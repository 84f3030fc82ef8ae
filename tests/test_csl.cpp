// CSL runtime-layer tests: the Table-I halo exchange (all parities and
// edge cases, switch positions restored), the 3-phase whole-fabric
// all-reduce (== serial sum on every fabric shape), and the Fig.-4
// eastward exchange with a single color + ring mode.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "collective_programs.hpp"
#include "csl/broadcast.hpp"
#include "csl/colors.hpp"
#include "wse/fabric.hpp"

namespace fvdf::csl {
namespace {

using wse::Dir;
using wse::Dsd;
using wse::dsd;
using wse::Fabric;
using wse::MemSpan;
using wse::PeContext;
using wse::PeCoord;
using wse::PeProgram;
using namespace collective_test;

// ---------- HaloExchange ----------
//
// The exchange runs as bytecode emitted by csl::HaloEmitter around the
// routes csl::HaloExchange installs, exactly as the solvers use it
// (tests/collective_programs.hpp).

struct FabricShape {
  i64 width, height;
};

class HaloShapes : public ::testing::TestWithParam<FabricShape> {};

TEST_P(HaloShapes, DeliversAllFourNeighborColumns) {
  const auto [width, height] = GetParam();
  Fabric fabric(width, height);
  verify_halos(fabric, run_halo_test(fabric, 6, 1), 6);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HaloShapes,
                         ::testing::Values(FabricShape{1, 1}, FabricShape{2, 1},
                                           FabricShape{1, 2}, FabricShape{2, 2},
                                           FabricShape{3, 3}, FabricShape{4, 3},
                                           FabricShape{3, 4}, FabricShape{5, 2},
                                           FabricShape{2, 5}, FabricShape{6, 6},
                                           FabricShape{7, 4}, FabricShape{4, 7}));

TEST(HaloExchange, SwitchPositionsReturnToInitialAfterEachRound) {
  // Ring mode + the advance protocol must restore every router; three
  // consecutive rounds would fail otherwise.
  Fabric fabric(4, 3);
  verify_halos(fabric, run_halo_test(fabric, 3, 3), 3);
  for (i64 y = 0; y < 3; ++y)
    for (i64 x = 0; x < 4; ++x)
      for (wse::Color c : {kHaloC1, kHaloC2, kHaloC3, kHaloC4})
        EXPECT_EQ(fabric.pe_router(x, y).position(c), 0u)
            << "PE(" << x << "," << y << ") color " << static_cast<int>(c);
}

TEST(HaloExchange, FaceCallbackFiresPerReceivedFace) {
  Fabric fabric(3, 3);
  std::vector<PeProgram*> programs; // row-major
  verify_halos(fabric, run_halo_test(fabric, 2, 1, &programs), 2);
  auto faces = [&](i64 x, i64 y) {
    return programs[static_cast<std::size_t>(y * 3 + x)]->bytecode_state()->k;
  };
  // Center PE has 4 neighbors, corner has 2, edge-middle has 3.
  EXPECT_EQ(faces(1, 1), 4u);
  EXPECT_EQ(faces(0, 0), 2u);
  EXPECT_EQ(faces(1, 0), 3u);
}

TEST(HaloExchange, TrafficMatchesFourColumnSendsPerInteriorPe) {
  const i64 width = 4, height = 4;
  const u32 nz = 8;
  Fabric fabric(width, height);
  run_halo_test(fabric, nz, 1);
  // Every PE sends its column 4 times (one per step); edge sends drop.
  const u64 expected_injected = static_cast<u64>(width * height) * 4 * nz;
  EXPECT_EQ(fabric.stats().words_delivered + fabric.stats().words_dropped,
            expected_injected);
}

// ---------- AllReduce ----------
//
// The reduction runs as bytecode emitted by csl::ReduceEmitter around the
// routes and slots csl::AllReduce configures
// (tests/collective_programs.hpp).

class AllReduceShapes : public ::testing::TestWithParam<FabricShape> {};

TEST_P(AllReduceShapes, SumsEveryPeContribution) {
  const auto [width, height] = GetParam();
  Fabric fabric(width, height);
  f64 expected = 0;
  const std::vector<f32> results = run_reduce_test(fabric, 1, [&](PeCoord coord) {
    const f32 value = static_cast<f32>(coord.x + 10 * coord.y + 1);
    expected += value;
    return value;
  });
  ASSERT_EQ(results.size(), static_cast<std::size_t>(width * height));
  for (f32 total : results) EXPECT_FLOAT_EQ(total, static_cast<f32>(expected));
}

INSTANTIATE_TEST_SUITE_P(Shapes, AllReduceShapes,
                         ::testing::Values(FabricShape{1, 1}, FabricShape{2, 1},
                                           FabricShape{1, 2}, FabricShape{2, 2},
                                           FabricShape{3, 2}, FabricShape{2, 3},
                                           FabricShape{5, 5}, FabricShape{8, 3},
                                           FabricShape{3, 8}, FabricShape{7, 7},
                                           FabricShape{1, 6}, FabricShape{6, 1}));

TEST(AllReduce, BackToBackRoundsProduceFreshSums) {
  const i64 width = 4, height = 3;
  Fabric fabric(width, height);
  const std::vector<f32> results =
      run_reduce_test(fabric, 3, [](PeCoord) { return 1.0f; });
  const auto pes = static_cast<std::size_t>(width * height);
  ASSERT_EQ(results.size(), 3 * pes);
  // Round k contributes (1 + k) per PE.
  std::map<f32, int> histogram;
  for (f32 total : results) ++histogram[total];
  EXPECT_EQ(histogram[static_cast<f32>(pes)], static_cast<int>(pes));
  EXPECT_EQ(histogram[static_cast<f32>(2 * pes)], static_cast<int>(pes));
  EXPECT_EQ(histogram[static_cast<f32>(3 * pes)], static_cast<int>(pes));
}

TEST(AllReduce, HandlesNegativeAndFractionalValues) {
  Fabric fabric(3, 3);
  f64 expected = 0;
  const std::vector<f32> results = run_reduce_test(fabric, 1, [&](PeCoord coord) {
    const f32 value = 0.25f * static_cast<f32>(coord.x) -
                      0.75f * static_cast<f32>(coord.y);
    expected += value;
    return value;
  });
  for (f32 total : results)
    EXPECT_NEAR(total, expected, 1e-5) << "fp32 chain reduction";
}

// ---------- EastwardExchange (Fig. 4) ----------

class ExchangeTestProgram final : public PeProgram {
public:
  explicit ExchangeTestProgram(u32 nz) : nz_(nz) {}

  void on_start(PeContext& ctx) override {
    exchange_.configure(ctx);
    mine_ = ctx.memory().alloc_f32("mine", nz_);
    theirs_ = ctx.memory().alloc_f32("theirs", nz_);
    for (u32 z = 0; z < nz_; ++z) {
      ctx.memory().store(mine_.offset_words + z,
                         fingerprint(ctx.coord().x, ctx.coord().y, z));
      ctx.memory().store(theirs_.offset_words + z, -1.0f);
    }
    exchange_.start(ctx, dsd(mine_), dsd(theirs_), [this](PeContext& c) {
      verify(c);
      c.halt();
    });
  }

  void on_task(PeContext& ctx, wse::Color color) override {
    ASSERT_TRUE(exchange_.handles(color));
    exchange_.on_task(ctx, color);
  }

private:
  void verify(PeContext& ctx) {
    const i64 x = ctx.coord().x;
    for (u32 z = 0; z < nz_; ++z) {
      const f32 got = ctx.memory().load(theirs_.offset_words + z);
      if (x > 0) {
        EXPECT_FLOAT_EQ(got, fingerprint(x - 1, ctx.coord().y, z));
      } else {
        EXPECT_FLOAT_EQ(got, -1.0f);
      }
    }
  }

  u32 nz_;
  EastwardExchange exchange_;
  MemSpan mine_{}, theirs_{};
};

TEST(EastwardExchange, EveryPeReceivesItsWesternNeighborData) {
  for (i64 width : {1, 2, 3, 4, 7, 8}) {
    Fabric fabric(width, 1);
    fabric.load([&](PeCoord) { return std::make_unique<ExchangeTestProgram>(5); });
    EXPECT_TRUE(fabric.run().all_halted) << "width " << width;
  }
}

TEST(EastwardExchange, RingRestoresSwitchPositions) {
  Fabric fabric(4, 1);
  fabric.load([&](PeCoord) { return std::make_unique<ExchangeTestProgram>(3); });
  ASSERT_TRUE(fabric.run().all_halted);
  for (i64 x = 0; x < 4; ++x)
    EXPECT_EQ(fabric.pe_router(x, 0).position(kExchangeX), 0u) << "PE " << x;
}

TEST(EastwardExchange, RunsOnEveryRowOfA2dFabricIndependently) {
  Fabric fabric(3, 4);
  fabric.load([&](PeCoord) { return std::make_unique<ExchangeTestProgram>(4); });
  EXPECT_TRUE(fabric.run().all_halted);
}

} // namespace
} // namespace fvdf::csl
