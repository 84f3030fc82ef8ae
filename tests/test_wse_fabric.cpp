// Fabric integration tests with tiny hand-written PE programs: wavelet
// delivery, inbox buffering, completion callbacks, control-wavelet switch
// advancement, backpressure stalls, edge drops, halt semantics, timing
// determinism and statistics.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "collective_programs.hpp"
#include "common/error.hpp"
#include "wse/fabric.hpp"

namespace fvdf::wse {
namespace {

// A configurable test program driven by lambdas.
class LambdaProgram final : public PeProgram {
public:
  using StartFn = std::function<void(PeContext&)>;
  using TaskFn = std::function<void(PeContext&, Color)>;
  LambdaProgram(StartFn start, TaskFn task)
      : start_(std::move(start)), task_(std::move(task)) {}

  void on_start(PeContext& ctx) override {
    if (start_) start_(ctx);
  }
  void on_task(PeContext& ctx, Color color) override {
    if (task_) task_(ctx, color);
  }

private:
  StartFn start_;
  TaskFn task_;
};

ColorConfig to_east() {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)}};
  return config;
}

ColorConfig from_west() {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
  return config;
}

TEST(Fabric, PointToPointTransferDeliversWordsInOrder) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 4);
            for (u32 i = 0; i < 4; ++i)
              ctx.memory().store(src.offset_words + i, static_cast<f32>(i + 1));
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 4);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [=](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kDone);
          for (u32 i = 0; i < 4; ++i)
            EXPECT_FLOAT_EQ(ctx.memory().load(i), static_cast<f32>(i + 1));
          ctx.halt();
        });
  });
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
  EXPECT_EQ(fabric.stats().words_delivered, 4u);
  EXPECT_GT(result.cycles, 0.0);
}

TEST(Fabric, InboxBuffersDataArrivingBeforeRecv) {
  // The receiver registers its descriptor only when poked by a later local
  // activation; words must wait in the inbox meanwhile.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kDone = 26;
  bool received = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 2);
            ctx.memory().store(src.offset_words, 5.0f);
            ctx.memory().store(src.offset_words + 1, 6.0f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            (void)ctx.memory().alloc_f32("dst", 2);
            // No recv yet; let the data arrive first, then poke ourselves.
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            ctx.recv(kData, Dsd{0, 2, 1}, kDone);
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 5.0f);
          EXPECT_FLOAT_EQ(ctx.memory().load(1), 6.0f);
          received = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(received);
}

TEST(Fabric, MultiHopChainForwardsThroughMiddleRouter) {
  // PE0 -> PE2 through PE1's router (rx West, tx East) without touching
  // PE1's CPU.
  Fabric fabric(3, 1);
  constexpr Color kData = 1;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 9.0f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else if (coord.x == 1) {
            ColorConfig passthrough;
            passthrough.positions = {
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::East)}};
            ctx.configure_router(kData, passthrough);
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [=](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 9.0f);
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.stats().wavelet_hops, 2u); // two link traversals
}

TEST(Fabric, BroadcastFanoutDeliversToRampAndForwards) {
  // PE1 taps and forwards: one send reaches PE1 and PE2.
  Fabric fabric(3, 1);
  constexpr Color kData = 2;
  constexpr Color kDone = 24;
  int deliveries = 0;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 4.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else if (coord.x == 1) {
            ColorConfig tap;
            tap.positions = {SwitchPosition{DirMask::of(Dir::West),
                                            DirMask::of(Dir::Ramp, Dir::East)}};
            ctx.configure_router(kData, tap);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [&](PeContext& ctx, Color) {
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 4.5f);
          ++deliveries;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(deliveries, 2);
}

TEST(Fabric, ControlWaveletAdvancesEveryRouterItTraverses) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          ColorConfig ring;
          if (coord.x == 0) {
            ring.positions = {
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::East), DirMask::of(Dir::Ramp)}};
          } else {
            ring.positions = {
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)},
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::West)}};
          }
          ring.ring_mode = true;
          ctx.configure_router(kData, ring);
          if (coord.x == 0) {
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 1.0f);
            // Data plus trailing control: both routers advance to pos 1.
            ctx.send(kData, dsd(src), color_bit(kData));
            ctx.halt();
          } else {
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [](PeContext& ctx, Color) { ctx.halt(); });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.pe_router(0, 0).position(kData), 1u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kData), 1u);
  EXPECT_GE(fabric.stats().control_wavelets, 1u);
}

TEST(Fabric, BackpressureStallsUntilAdvance) {
  // The receiver's switch starts in a position that rejects West arrivals;
  // the flit must park and deliver only after a local advance.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kDone = 26;
  bool delivered = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 2.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ColorConfig wrong_then_right;
            wrong_then_right.positions = {
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
            ctx.configure_router(kData, wrong_then_right);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
            // Burn enough cycles that the flit arrives (and stalls) before
            // the poke flips the switch.
            const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
            ctx.dsd().fmovs_imm(dsd(scratch), 0.0f);
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            // Flip to the accepting position; the parked flit re-dispatches.
            ctx.advance_local(color_bit(kData));
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 2.5f);
          delivered = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(delivered);
  EXPECT_GE(fabric.stats().flits_stalled, 1u);
}

TEST(Fabric, EdgeSendsAreDroppedAndCounted) {
  Fabric fabric(1, 1);
  constexpr Color kData = 0;
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) {
          ctx.configure_router(kData, to_east());
          const MemSpan src = ctx.memory().alloc_f32("src", 3);
          ctx.send(kData, dsd(src));
          ctx.halt();
        },
        nullptr);
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.stats().words_dropped, 3u);
  EXPECT_EQ(fabric.stats().words_delivered, 0u);
}

TEST(Fabric, RunIsDeterministic) {
  auto run_once = [] {
    Fabric fabric(3, 3);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return std::make_unique<LambdaProgram>(
          [coord](PeContext& ctx) {
            if (coord.x == 0) {
              ctx.configure_router(kData, to_east());
              const MemSpan src = ctx.memory().alloc_f32("src", 8);
              for (u32 i = 0; i < 8; ++i)
                ctx.memory().store(src.offset_words + i,
                                   static_cast<f32>(coord.y * 100 + i));
              ctx.send(kData, dsd(src));
              ctx.halt();
            } else if (coord.x == 1) {
              ctx.configure_router(kData, from_west());
              const MemSpan dst = ctx.memory().alloc_f32("dst", 8);
              ctx.recv(kData, dsd(dst), kDone);
            } else {
              ctx.halt();
            }
          },
          [](PeContext& ctx, Color) {
            // Burn deterministic compute time proportional to the data.
            auto& e = ctx.dsd();
            e.fmuls_imm(Dsd{0, 8, 1}, Dsd{0, 8, 1}, 2.0f);
            ctx.halt();
          });
    });
    const auto result = fabric.run();
    return std::make_pair(result.cycles, fabric.stats().events_processed);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Fabric, CycleLimitStopsRunawayPrograms) {
  Fabric fabric(1, 1);
  constexpr Color kLoop = 24;
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) { ctx.activate(kLoop); },
        [](PeContext& ctx, Color) {
          // Ping-pong forever, each task burning a little time.
          auto& e = ctx.dsd();
          (void)e.fadds_scalar(1.0f, 2.0f);
          ctx.activate(kLoop);
        });
  });
  const auto result = fabric.run(/*max_cycles=*/5000);
  EXPECT_FALSE(result.all_halted);
  EXPECT_TRUE(result.hit_cycle_limit);
}

TEST(Fabric, SendCompletionFiresAfterInjection) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kSent = 24;
  bool sent = false;
  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 16);
            ctx.send(kData, dsd(src), 0, kSent);
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 16);
            ctx.recv(kData, dsd(dst), kSent);
          }
        },
        [&](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kSent);
          if (ctx.coord().x == 0) sent = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(sent);
}

TEST(Fabric, StatsAggregateCounters) {
  Fabric fabric(2, 2);
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) {
          const MemSpan a = ctx.memory().alloc_f32("a", 10);
          ctx.dsd().fmovs_imm(dsd(a), 1.0f);
          ctx.dsd().fmuls_imm(dsd(a), dsd(a), 2.0f);
          ctx.halt();
        },
        nullptr);
  });
  EXPECT_TRUE(fabric.run().all_halted);
  const OpCounters total = fabric.total_counters();
  EXPECT_EQ(total.count(Opcode::FMOV), 4u * 10);
  EXPECT_EQ(total.count(Opcode::FMUL), 4u * 10);
  EXPECT_EQ(total.total_flops(), 4u * 10);
  EXPECT_EQ(fabric.pe_counters(0, 0).count(Opcode::FMUL), 10u);
}

TEST(Fabric, InvalidUsagesThrow) {
  Fabric fabric(1, 1);
  EXPECT_THROW(fabric.run(), Error); // run before load
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>([](PeContext& ctx) { ctx.halt(); },
                                           nullptr);
  });
  EXPECT_THROW(fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(nullptr, nullptr);
  }),
               Error); // double load
  EXPECT_TRUE(fabric.run().all_halted);
}

TEST(Fabric, HostAccessorsRejectOutOfRangeCoordinates) {
  Fabric fabric(3, 2);
  EXPECT_THROW(fabric.pe_memory(-1, 0), Error);
  EXPECT_THROW(fabric.pe_memory(3, 0), Error);
  EXPECT_THROW(fabric.pe_memory(0, 2), Error);
  EXPECT_THROW(fabric.pe_router(0, -1), Error);
  EXPECT_THROW(fabric.pe_router(5, 5), Error);
  EXPECT_THROW(fabric.pe_counters(-2, 1), Error);
  EXPECT_NO_THROW(fabric.pe_memory(2, 1));
  EXPECT_NO_THROW(fabric.pe_router(0, 0));
  EXPECT_NO_THROW(fabric.pe_counters(2, 1));
}

TEST(Fabric, RejectedAdvanceReparksWithoutEventOrTraceInflation) {
  // The receiver's switch cycles through two rejecting positions before an
  // accepting one. The advance through a still-rejecting position must
  // re-park the flit directly: exactly one FlitStalled record and stall
  // count, no matter how many advances it takes to release it.
  Fabric fabric(2, 1);
  TraceBuffer trace;
  fabric.set_trace(trace.sink());
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kPoke2 = 26;
  constexpr Color kDone = 27;
  bool delivered = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 3.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ColorConfig wrong_wrong_right;
            wrong_wrong_right.positions = {
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
            ctx.configure_router(kData, wrong_wrong_right);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
            // Let the flit arrive (and stall) before the pokes advance.
            const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
            ctx.dsd().fmovs_imm(dsd(scratch), 0.0f);
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            ctx.advance_local(color_bit(kData)); // position 1: still rejects
            ctx.activate(kPoke2);
            return;
          }
          if (color == kPoke2) {
            ctx.advance_local(color_bit(kData)); // position 2: accepts
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 3.5f);
          delivered = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.stats().flits_stalled, 1u);
  EXPECT_EQ(trace.count(TraceEvent::FlitStalled), 1u);
}

TEST(Fabric, LargerMessagesTakeLongerOnTheLink) {
  auto timed_transfer = [](u32 words) {
    Fabric fabric(2, 1);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return std::make_unique<LambdaProgram>(
          [coord, words](PeContext& ctx) {
            if (coord.x == 0) {
              ctx.configure_router(kData, to_east());
              const MemSpan src = ctx.memory().alloc_f32("src", words);
              ctx.send(kData, dsd(src));
              ctx.halt();
            } else {
              ctx.configure_router(kData, from_west());
              const MemSpan dst = ctx.memory().alloc_f32("dst", words);
              ctx.recv(kData, dsd(dst), kDone);
            }
          },
          [](PeContext& ctx, Color) { ctx.halt(); });
    });
    return fabric.run().cycles;
  };
  EXPECT_GT(timed_transfer(256), timed_transfer(8));
}

// --- bytecode collectives ---------------------------------------------------
// The lowered Table-I collectives (csl/lowering.hpp) must deliver the
// right values on every fabric shape: every halo holds its neighbor's
// column (boundary halos untouched), every PE ends the all-reduce with
// the fabric total. The programs are tests/collective_programs.hpp's.

TEST(BytecodeCollectives, HaloExchangeDeliversNeighborColumns) {
  constexpr u32 nz = 6;
  constexpr std::pair<i64, i64> kShapes[] = {{1, 1}, {2, 2}, {4, 3},
                                             {3, 4}, {5, 1}, {1, 5}};
  for (const auto& [width, height] : kShapes) {
    Fabric fabric(width, height);
    csl::collective_test::verify_halos(
        fabric, csl::collective_test::run_halo_test(fabric, nz, 1), nz);
    // Every PE sends its column once per step; edge sends drop.
    EXPECT_EQ(fabric.stats().words_delivered + fabric.stats().words_dropped,
              static_cast<u64>(width * height) * 4 * nz)
        << width << "x" << height;
  }
}

TEST(BytecodeCollectives, AllReduceLeavesTheTotalOnEveryPe) {
  constexpr std::pair<i64, i64> kShapes[] = {{1, 1}, {2, 1}, {1, 3},
                                             {3, 2}, {4, 4}, {5, 3}};
  for (const auto& [width, height] : kShapes) {
    auto value_of = [](PeCoord c) {
      return 0.25f * static_cast<f32>(c.x) - 0.75f * static_cast<f32>(c.y) + 1.0f;
    };
    f64 expected = 0;
    for (i64 y = 0; y < height; ++y)
      for (i64 x = 0; x < width; ++x) expected += value_of(PeCoord{x, y});
    Fabric fabric(width, height);
    for (f32 total : csl::collective_test::run_reduce_test(fabric, 1, value_of))
      EXPECT_NEAR(total, expected, 1e-5) << width << "x" << height;
  }
}

} // namespace
} // namespace fvdf::wse
