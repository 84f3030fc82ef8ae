#include "analysis/fixtures.hpp"

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "csl/allreduce.hpp"
#include "csl/any_source.hpp"
#include "csl/broadcast.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/dsd.hpp"
#include "wse/router.hpp"

namespace fvdf::analysis::fixtures {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::Dsd;
using wse::MemSpan;
using wse::PeContext;
using wse::PeCoord;
using wse::PeProgram;
using wse::ProgramFactory;
using wse::ProgramManifest;
using wse::SwitchPosition;

namespace {

// ---------- known-good collective drivers ----------

// The Table-I halo exchange and the all-reduce are bytecode programs built
// with the solver's emitters (csl/lowering.hpp): one collective round,
// then halt.

std::shared_ptr<const wse::bc::Program> build_halo(PeContext& ctx, u32 nz) {
  csl::HaloExchange().configure(ctx);
  const MemSpan column = ctx.memory().alloc_f32("column", nz);
  std::array<MemSpan, 4> halos{};
  for (auto& buf : halos) buf = ctx.memory().alloc_f32("halo", nz);
  wse::bc::Builder b("halo");
  csl::HaloEmitter halo(
      b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
      {csl::HaloExchange::Colors{}, wse::dsd(column), wse::dsd(halos[0]),
       wse::dsd(halos[1]), wse::dsd(halos[2]), wse::dsd(halos[3]),
       /*face=*/nullptr, /*cont_reg=*/0, /*pending_ureg=*/0});
  const auto entry = b.make_label();
  const auto done = b.make_label();
  b.bind(entry);
  b.set_entry(entry);
  b.setc(0, done);
  halo.emit_start();
  b.ret();
  b.bind(done);
  b.halt();
  b.ret();
  halo.emit_handlers();
  return std::make_shared<const wse::bc::Program>(b.finish());
}

std::shared_ptr<const wse::bc::Program> build_allreduce(PeContext& ctx) {
  csl::AllReduce reduce_routes;
  reduce_routes.configure(ctx);
  wse::bc::Builder b("allreduce");
  csl::ReduceEmitter reduce(b, ctx.coord(), ctx.fabric_width(),
                            ctx.fabric_height(),
                            {csl::AllReduce::Colors{},
                             reduce_routes.slot_value().offset_words,
                             reduce_routes.slot_in().offset_words,
                             /*cont_reg=*/1});
  const auto entry = b.make_label();
  const auto done = b.make_label();
  b.bind(entry);
  b.set_entry(entry);
  reduce.emit_handler_bindings();
  b.umovi(0, 1.0f); // this PE's contribution
  b.setc(1, done);
  b.jmp(reduce.start_label());
  b.bind(done);
  b.halt();
  b.ret();
  reduce.emit_blocks();
  return std::make_shared<const wse::bc::Program>(b.finish());
}

class EastwardProgram final : public PeProgram {
public:
  explicit EastwardProgram(u32 block) : block_(block) {}

  void on_start(PeContext& ctx) override {
    exchange_.configure(ctx);
    mine_ = ctx.memory().alloc_f32("mine", block_);
    from_west_ = ctx.memory().alloc_f32("from_west", block_);
    exchange_.start(ctx, wse::dsd(mine_), wse::dsd(from_west_),
                    [](PeContext& c) { c.halt(); });
  }

  void on_task(PeContext& ctx, Color color) override {
    exchange_.on_task(ctx, color);
  }

  ProgramManifest manifest(PeCoord coord, i64 width, i64 height) const override {
    return exchange_.manifest(coord, width, height);
  }

private:
  u32 block_;
  csl::EastwardExchange exchange_;
  MemSpan mine_{};
  MemSpan from_west_{};
};

class AnySourceProgram final : public PeProgram {
public:
  AnySourceProgram(PeCoord source, u32 block) : source_(source), block_(block) {}

  void on_start(PeContext& ctx) override {
    broadcast_.configure(ctx, source_);
    block_span_ = ctx.memory().alloc_f32("block", block_);
    broadcast_.start(ctx, wse::dsd(block_span_), [](PeContext& c) { c.halt(); });
  }

  void on_task(PeContext& ctx, Color color) override {
    broadcast_.on_task(ctx, color);
  }

  ProgramManifest manifest(PeCoord coord, i64 width, i64 height) const override {
    return broadcast_.manifest(coord, width, height);
  }

private:
  PeCoord source_;
  u32 block_;
  csl::AnySourceBroadcast broadcast_;
  MemSpan block_span_{};
};

// ---------- seeded defects ----------

constexpr Color kDefectColor = 5;

ColorConfig one_position(DirMask rx, DirMask tx) {
  ColorConfig config;
  config.positions = {SwitchPosition{rx, tx}};
  return config;
}

/// Eastward chain that deliberately skips the edge clip: the right-most
/// PE's transmit points off the fabric.
class EdgeRouteProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    ctx.configure_router(kDefectColor,
                         one_position(DirMask::of(Dir::Ramp, Dir::West),
                                      DirMask::of(Dir::East)));
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x == 0 && coord.y == 0)
      m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// PE (0,0) forwards east, PE (1,0) forwards straight back: the channel
/// dependency graph has the cycle (1,0)@West -> (0,0)@East -> (1,0)@West.
class CreditCycleProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    if (ctx.coord().x % 2 == 0) {
      ctx.configure_router(kDefectColor,
                           one_position(DirMask::of(Dir::Ramp, Dir::East),
                                        DirMask::of(Dir::East)));
    } else {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::West),
                                                      DirMask::of(Dir::West)));
    }
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x == 0 && coord.y == 0)
      m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// The sender's wavelet lands on PE (1,0)'s ramp, but that program neither
/// arms a recv nor declares a task handler for the color.
class MissingHandlerProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    if (ctx.coord().x % 2 == 0) {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::Ramp),
                                                      DirMask::of(Dir::East)));
    } else {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::West),
                                                      DirMask::of(Dir::Ramp)));
    }
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x % 2 == 0) m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// One allocation larger than the entire arena: alloc_f32 throws the
/// "PE memory overflow" Error the verifier maps to a memory-budget
/// diagnostic (with the full allocation map).
class ArenaOverflowProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    const u64 words = ctx.memory().capacity_bytes() / 4 + 1;
    ctx.memory().alloc_f32("overflow", static_cast<u32>(words));
  }
  void on_task(PeContext&, Color) override {}
};

// ---------- seeded bytecode defects ----------

/// A seeded bytecode defect: `setup` installs routes and allocations, and
/// the prebuilt stream is exposed for static analysis but never started —
/// the defects exist to be rejected, not run. The manifest is derived from
/// the stream (PeProgram's default).
std::unique_ptr<PeProgram>
defect_program(std::shared_ptr<const wse::bc::Program> program,
               std::function<void(PeContext&)> setup) {
  return std::make_unique<wse::bc::BuiltProgram>(
      [program = std::move(program), setup = std::move(setup)](PeContext& ctx) {
        if (setup) setup(ctx);
        return program;
      },
      /*start=*/false);
}

} // namespace

ProgramFactory halo_program(u32 nz) {
  return [nz](PeCoord) {
    return std::make_unique<wse::bc::BuiltProgram>(
        [nz](PeContext& ctx) { return build_halo(ctx, nz); });
  };
}

ProgramFactory allreduce_program() {
  return [](PeCoord) {
    return std::make_unique<wse::bc::BuiltProgram>(build_allreduce);
  };
}

ProgramFactory eastward_program(u32 block) {
  return [block](PeCoord) { return std::make_unique<EastwardProgram>(block); };
}

ProgramFactory any_source_program(PeCoord source, u32 block) {
  return [source, block](PeCoord) {
    return std::make_unique<AnySourceProgram>(source, block);
  };
}

ProgramFactory edge_route_defect() {
  return [](PeCoord) { return std::make_unique<EdgeRouteProgram>(); };
}

ProgramFactory credit_cycle_defect() {
  return [](PeCoord) { return std::make_unique<CreditCycleProgram>(); };
}

ProgramFactory missing_handler_defect() {
  return [](PeCoord) { return std::make_unique<MissingHandlerProgram>(); };
}

ProgramFactory arena_overflow_defect() {
  return [](PeCoord) { return std::make_unique<ArenaOverflowProgram>(); };
}

ProgramFactory bc_oob_span_defect() {
  wse::bc::Builder b("bc-oob-span");
  const u8 bad = b.dsd(Dsd{/*offset=*/100000, /*length=*/4, /*stride=*/1});
  b.vmovi(bad, 0.0f); // pc 0: span [100000..100003] vs a 16-word arena
  b.ret();
  auto program =
      std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return defect_program(program, [](PeContext& ctx) {
      ctx.memory().alloc_f32("buf", 16);
    });
  };
}

ProgramFactory bc_unset_continuation_defect() {
  wse::bc::Builder b("bc-unset-continuation");
  b.jind(0); // pc 0: no reachable SETC ever arms cont0
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return defect_program(program, nullptr);
  };
}

ProgramFactory bc_unbounded_loop_defect() {
  wse::bc::Builder b("bc-unbounded-loop");
  b.setu(0, 0); // pc 0: first DECJNZ decrement wraps u0 to 0xffffffff
  const auto loop = b.make_label();
  b.bind(loop);
  b.sadd(0, 0, 0); // pc 1: a charged op, so the loop body has a cost
  b.decjnz(0, loop); // pc 2
  b.ret();
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return defect_program(program, nullptr);
  };
}

ProgramFactory bc_send_overlap_defect() {
  wse::bc::Builder b("bc-send-overlap");
  const u8 buf = b.dsd(Dsd{0, 4, 1});
  const auto handler = b.make_label();
  b.seth(kDefectColor, handler); // pc 0
  b.send(kDefectColor, buf);     // pc 1: words [0..3] now in flight
  b.umovi(0, 1.0f);              // pc 2
  b.stos(0, 2);                  // pc 3: overwrites word 2 of the payload
  b.ret();
  b.bind(handler);
  b.ret();
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return defect_program(program, [](PeContext& ctx) {
      ctx.memory().alloc_f32("buf", 16);
      // Self-delivery loop: inject from the ramp, deliver to the ramp.
      ctx.configure_router(kDefectColor,
                           one_position(DirMask::of(Dir::Ramp),
                                        DirMask::of(Dir::Ramp)));
    });
  };
}

ProgramFactory bc_unbalanced_send_defect() {
  wse::bc::Builder tx("bc-unbalanced-send-tx");
  tx.send(kDefectColor, tx.dsd(Dsd{0, 8, 1})); // 8-word messages east
  tx.ret();
  wse::bc::Builder rx("bc-unbalanced-send-rx");
  rx.recv(kDefectColor, rx.dsd(Dsd{0, 6, 1}), wse::kInvalidColor); // 6 words
  rx.ret();
  auto tx_program = std::make_shared<const wse::bc::Program>(tx.finish());
  auto rx_program = std::make_shared<const wse::bc::Program>(rx.finish());
  return [tx_program, rx_program](PeCoord coord) {
    if (coord.x == 0) {
      return defect_program(
          tx_program, [](PeContext& ctx) {
            ctx.memory().alloc_f32("buf", 16);
            ctx.configure_router(kDefectColor,
                                 one_position(DirMask::of(Dir::Ramp),
                                              DirMask::of(Dir::East)));
          });
    }
    return defect_program(
        rx_program, [](PeContext& ctx) {
          ctx.memory().alloc_f32("buf", 16);
          ctx.configure_router(kDefectColor,
                               one_position(DirMask::of(Dir::West),
                                            DirMask::of(Dir::Ramp)));
        });
  };
}

} // namespace fvdf::analysis::fixtures
