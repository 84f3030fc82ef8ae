// Fabric explorer: programming the simulated wafer-scale engine directly.
//
// This example is a guided tour of the device programming model the solver
// is built on — the level at which the paper's CSL code operates. Every PE
// runs one flat bytecode program (wse/bytecode.hpp) assembled with the same
// emitters the CG solver uses:
//   1. routers and colors: the Table-I four-step halo exchange, whose
//      switch-position rings and trailing control wavelets generalize
//      Fig. 4 / Listing 1 (csl::HaloExchange routes, csl::HaloEmitter);
//   2. the whole-fabric all-reduce (Sec. III-C) summing one value per PE
//      (csl::AllReduce routes, csl::ReduceEmitter);
//   3. DSD vector instructions with the instruction/traffic ledger that
//      backs Table V.
//
//   ./examples/fabric_explorer [--width 6 --height 4 --nz 16]

#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/fabric.hpp"

using namespace fvdf;
using namespace fvdf::wse;

namespace {

// Where the tour leaves the all-reduce total (every PE allocates the same
// layout, so the offset is the same everywhere).
MemSpan g_total{};

// Routes, arena and program for one PE: exchange columns with the four
// neighbors, reduce a scalar across the fabric, then do some vector
// arithmetic on the result.
std::shared_ptr<const bc::Program> build_tour(PeContext& ctx, u32 nz) {
  csl::HaloExchange().configure(ctx);
  csl::AllReduce reduce_routes;
  reduce_routes.configure(ctx);

  auto& mem = ctx.memory();
  const MemSpan column = mem.alloc_f32("column", nz);
  const MemSpan west = mem.alloc_f32("halo_w", nz);
  const MemSpan east = mem.alloc_f32("halo_e", nz);
  const MemSpan south = mem.alloc_f32("halo_s", nz);
  const MemSpan north = mem.alloc_f32("halo_n", nz);
  g_total = mem.alloc_f32("total", 1);
  // Fill the column with this PE's linear id (a host upload, uncharged).
  const f32 id = static_cast<f32>(ctx.coord().y * ctx.fabric_width() + ctx.coord().x);
  for (u32 z = 0; z < nz; ++z) mem.store(column.offset_words + z, id);

  bc::Builder b("tour");
  csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                        {csl::HaloExchange::Colors{}, dsd(column), dsd(west),
                         dsd(east), dsd(south), dsd(north), /*face=*/nullptr,
                         /*cont_reg=*/0, /*pending_ureg=*/0});
  csl::ReduceEmitter reduce(b, ctx.coord(), ctx.fabric_width(),
                            ctx.fabric_height(),
                            {csl::AllReduce::Colors{},
                             reduce_routes.slot_value().offset_words,
                             reduce_routes.slot_in().offset_words,
                             /*cont_reg=*/1});
  const auto entry = b.make_label();
  const auto exchanged = b.make_label();
  const auto reduced = b.make_label();

  // Step 1: start the exchange; the task ends and the fabric resumes the
  // program at `exchanged` once all four steps have completed.
  b.bind(entry);
  b.set_entry(entry);
  reduce.emit_handler_bindings();
  b.setc(0, exchanged);
  halo.emit_start();
  b.ret();

  // Step 2: all-reduce the first word of the west halo (the x=0 PE has no
  // western neighbor and contributes its own id). The branch is resolved
  // here, at assembly time, like every coordinate case of the lowering.
  b.bind(exchanged);
  b.lods(0, (ctx.coord().x == 0 ? column : west).offset_words);
  b.setc(1, reduced);
  b.jmp(reduce.start_label());

  // Step 3: vector arithmetic with the reduced value (in f0): column +=
  // total, broadcast through the west halo as a scratch vector.
  b.bind(reduced);
  b.rstore(0, g_total.offset_words);
  const u8 col = b.dsd(dsd(column));
  const u8 scratch = b.dsd(dsd(west));
  b.vmovi(scratch, 1.0f);
  b.vmulr(scratch, scratch, 0);
  b.vadd(col, col, scratch);
  b.halt();
  b.ret();

  halo.emit_handlers();
  reduce.emit_blocks();
  return std::make_shared<const bc::Program>(b.finish());
}

} // namespace

int main(int argc, char** argv) {
  i64 width = 6, height = 4, nz = 16;
  CliParser cli("fabric_explorer", "tour of the simulated WSE programming model");
  cli.add_i64("width", &width, "fabric width (PEs)");
  cli.add_i64("height", &height, "fabric height (PEs)");
  cli.add_i64("nz", &nz, "words per PE column");
  if (!cli.parse(argc, argv)) return 0;

  Fabric fabric(width, height);
  fabric.load([&](PeCoord) {
    return std::make_unique<bc::BuiltProgram>(
        [nz](PeContext& ctx) { return build_tour(ctx, static_cast<u32>(nz)); });
  });
  const auto result = fabric.run();

  std::cout << "fabric " << width << "x" << height << ", " << nz
            << "-word columns: " << (result.all_halted ? "completed" : "STUCK")
            << " after " << fmt_count(static_cast<u64>(result.cycles))
            << " cycles (" << fmt_seconds(fabric.seconds(result.cycles)) << " at "
            << fabric.timing().clock_hz / 1e9 << " GHz)\n\n";

  const auto& stats = fabric.stats();
  Table table("Fabric statistics");
  table.set_header({"metric", "value"});
  table.add_row({"messages sent", fmt_count(stats.messages_sent)});
  table.add_row({"wavelet hops", fmt_count(stats.wavelet_hops)});
  table.add_row({"words delivered", fmt_count(stats.words_delivered)});
  table.add_row({"words dropped off-edge", fmt_count(stats.words_dropped)});
  table.add_row({"control wavelets", fmt_count(stats.control_wavelets)});
  table.add_row({"backpressure stalls", fmt_count(stats.flits_stalled)});
  table.add_row({"tasks run", fmt_count(stats.tasks_run)});
  std::cout << table << '\n';

  const OpCounters totals = fabric.total_counters();
  std::cout << "instruction ledger (all PEs): " << totals.summary() << '\n';

  // Every PE must hold the same reduced value; verify via one probe each.
  // (The expected all-reduce total: sum over PEs of the id of their western
  // neighbor, or their own id on the x=0 column.)
  f64 expected = 0;
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x)
      expected += static_cast<f64>(y * width + (x > 0 ? x - 1 : 0));
  std::cout << "all-reduce total on PE(0,0): " << fabric.pe_memory(0, 0).load(g_total.offset_words)
            << " (expected " << expected << ")\n";
  return result.all_halted ? 0 : 1;
}
