#pragma once
// Collective test programs shared by the csl and fabric tests: the
// Table-I halo exchange and the whole-fabric all-reduce, each a bytecode
// program built with the solvers' emitters (csl/lowering.hpp) around the
// routes its csl component installs, plus host-side checks of what they
// deliver.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/fabric.hpp"

namespace fvdf::csl::collective_test {

using wse::Dir;
using wse::dsd;
using wse::Fabric;
using wse::MemSpan;
using wse::PeContext;
using wse::PeCoord;
using wse::PeProgram;
namespace bc = wse::bc;

// Each PE's column value is a unique fingerprint: f(x, y, z) = x*10000 +
// y*100 + z, so any misdelivery is detectable.
inline f32 fingerprint(i64 x, i64 y, u32 z) {
  return static_cast<f32>(x * 10000 + y * 100 + static_cast<i64>(z));
}

// Buffer spans of a halo test PE. All PEs allocate the same layout, so one
// set describes every arena.
struct HaloSpans {
  MemSpan column{};
  std::array<MemSpan, 4> halos{}; // west, east, south, north
};

// `rounds` back-to-back exchanges, then halt. Every received face bumps
// the VM's k counter, so k ends as the number of faces received.
inline std::shared_ptr<const bc::Program>
build_halo_test(PeContext& ctx, u32 nz, u32 rounds, HaloSpans& spans) {
  HaloExchange().configure(ctx);
  spans.column = ctx.memory().alloc_f32("column", nz);
  for (u32 z = 0; z < nz; ++z)
    ctx.memory().store(spans.column.offset_words + z,
                       fingerprint(ctx.coord().x, ctx.coord().y, z));
  for (auto& buf : spans.halos) {
    buf = ctx.memory().alloc_f32("halo", nz);
    for (u32 z = 0; z < nz; ++z)
      ctx.memory().store(buf.offset_words + z, -1.0f); // sentinel
  }

  bc::Builder b("halo-test");
  HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                   {HaloExchange::Colors{}, dsd(spans.column),
                    dsd(spans.halos[0]), dsd(spans.halos[1]),
                    dsd(spans.halos[2]), dsd(spans.halos[3]),
                    [](bc::Builder& bb, Dir) { bb.kinc(); },
                    /*cont_reg=*/0, /*pending_ureg=*/0});
  const auto entry = b.make_label();
  const auto round = b.make_label();
  const auto done = b.make_label();
  b.bind(entry);
  b.set_entry(entry);
  b.setu(1, rounds);
  b.bind(round);
  b.setc(0, done);
  halo.emit_start();
  b.ret();
  b.bind(done);
  b.decjnz(1, round);
  b.halt();
  b.ret();
  halo.emit_handlers();
  return std::make_shared<const bc::Program>(b.finish());
}

// Runs the halo test on every PE of `fabric` and returns the buffer spans;
// `programs` (optional) collects the PE programs in row-major order.
inline HaloSpans run_halo_test(Fabric& fabric, u32 nz, u32 rounds,
                                std::vector<PeProgram*>* programs = nullptr) {
  auto spans = std::make_shared<HaloSpans>();
  fabric.load([&, spans](PeCoord) {
    auto program = std::make_unique<bc::BuiltProgram>(
        [nz, rounds, spans](PeContext& ctx) {
          return build_halo_test(ctx, nz, rounds, *spans);
        });
    if (programs != nullptr) programs->push_back(program.get());
    return program;
  });
  EXPECT_TRUE(fabric.run().all_halted);
  return *spans;
}

// Every column is intact, every halo holds its neighbor's column, and
// boundary halos stay untouched.
inline void verify_halos(Fabric& fabric, const HaloSpans& spans, u32 nz) {
  const i64 width = fabric.width();
  const i64 height = fabric.height();
  for (i64 y = 0; y < height; ++y) {
    for (i64 x = 0; x < width; ++x) {
      wse::PeMemory& mem = fabric.pe_memory(x, y);
      auto check = [&](const MemSpan& buf, i64 nx, i64 ny, bool exists) {
        for (u32 z = 0; z < nz; ++z) {
          const f32 got = mem.load(buf.offset_words + z);
          if (exists) {
            EXPECT_FLOAT_EQ(got, fingerprint(nx, ny, z))
                << "PE(" << x << "," << y << ") z=" << z;
          } else {
            EXPECT_FLOAT_EQ(got, -1.0f) << "boundary halo must stay untouched";
          }
        }
      };
      check(spans.column, x, y, true);                 // own column
      check(spans.halos[0], x - 1, y, x > 0);          // west neighbor
      check(spans.halos[1], x + 1, y, x < width - 1);  // east neighbor
      check(spans.halos[2], x, y + 1, y < height - 1); // fabric south = y+1
      check(spans.halos[3], x, y - 1, y > 0);          // fabric north = y-1
    }
  }
}

// `rounds` back-to-back reductions contributing value, value + 1, ...;
// round r's fabric total lands in word r of the span `totals`.
inline std::shared_ptr<const bc::Program>
build_reduce_test(PeContext& ctx, f32 value, u32 rounds, MemSpan& totals) {
  AllReduce routes;
  routes.configure(ctx);
  totals = ctx.memory().alloc_f32("totals", rounds);
  bc::Builder b("reduce-test");
  ReduceEmitter reduce(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                       {AllReduce::Colors{}, routes.slot_value().offset_words,
                        routes.slot_in().offset_words, /*cont_reg=*/1});
  const auto entry = b.make_label();
  b.bind(entry);
  b.set_entry(entry);
  reduce.emit_handler_bindings();
  for (u32 r = 0; r < rounds; ++r) {
    const auto after = b.make_label();
    b.umovi(0, value + static_cast<f32>(r)); // contribution in f0
    b.setc(1, after);
    b.jmp(reduce.start_label());
    b.bind(after); // fabric total back in f0
    b.rstore(0, totals.offset_words + r);
  }
  b.halt();
  b.ret();
  reduce.emit_blocks();
  return std::make_shared<const bc::Program>(b.finish());
}

// Runs the reduction with `value_of(coord)` contributed per PE and returns
// every PE's totals, round by round.
inline std::vector<f32>
run_reduce_test(Fabric& fabric, u32 rounds,
                const std::function<f32(PeCoord)>& value_of) {
  auto totals = std::make_shared<MemSpan>();
  fabric.load([&](PeCoord coord) {
    return std::make_unique<bc::BuiltProgram>(
        [value = value_of(coord), rounds, totals](PeContext& ctx) {
          return build_reduce_test(ctx, value, rounds, *totals);
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  std::vector<f32> results;
  for (i64 y = 0; y < fabric.height(); ++y)
    for (i64 x = 0; x < fabric.width(); ++x)
      for (u32 r = 0; r < rounds; ++r)
        results.push_back(
            fabric.pe_memory(x, y).load(totals->offset_words + r));
  return results;
}

} // namespace fvdf::csl::collective_test
