#pragma once
// The FV device programs (docs/simulator.md, "Bytecode ISA").
//
// "Unlike the conventional approach, our implementation of the conjugate
// gradient algorithm on a dataflow architecture utilizes a state machine.
// We have devised 14 states to orchestrate the various steps involved."
// (Sec. III-D). lower_cg translates that 14-state CG machine, and
// lower_chebyshev the reduction-free Chebyshev iteration, into one flat
// wse::bc::Program per PE shape, including their Table-I collectives
// (csl/lowering.hpp). Every conditional of Algorithm 1 is a branch in
// the stream, and all data movement stays asynchronous: a face's flux is
// computed the moment its halo lands (Sec. III-B) and the dot products go
// through the whole-fabric all-reduce (Sec. III-C).
//
// The BytecodeCgProgram / BytecodeChebyshevProgram wrappers run the
// setup in on_start (plan, route configuration, upload) and then enter
// the interpreter; every later task activation is dispatched by the
// fabric directly into the bytecode stream (wse/fabric.cpp), never
// through on_task virtual dispatch.
//
// Lowering happens eagerly at construction against a probe PeMemory (the
// same allocation sequence on_start later performs against the real
// arena, so embedded offsets agree; planned once per Dirichlet count and
// memoized in the ProgramCache), which makes the manifest — derived
// from the instruction stream by PeProgram::manifest — and bytecode()
// available to the verifier and the lookahead planner before the fabric
// runs. PEs whose lowering inputs coincide (coordinate parity, fabric
// edges, Dirichlet count) share one immutable Program through a
// mutex-guarded cache. The GoldenDigest tests
// (tests/test_dataflow_solver.cpp) pin the programs' results bit for bit.

#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <tuple>

#include "core/mapping.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvdf::core {

/// Per-PE CG program configuration (identical across PEs except `init`).
struct CgPeConfig {
  u32 nz = 1;
  FluxMode mode = FluxMode::Fused;
  u64 max_iterations = 10'000; // k_max
  f32 tolerance = 0.0f;        // epsilon vs the global r^T r (or r^T z for PCG)
  bool jx_only = false;        // Alg. 2 scaling mode: halo+flux loop only
  // Extensions over the paper's plain-CG kernel:
  bool jacobi = false;         // Jacobi (diagonal) preconditioning
  f32 diagonal_shift = 0.0f;   // adds shift*x to interior rows of Jx — the
                               // accumulation term of a backward-Euler step
  PeInit init;                 // this PE's column data
};

/// Per-PE Chebyshev program configuration (see solver/chebyshev.hpp): the
/// recurrence coefficients are precomputed scalars every PE evaluates
/// identically, so the all-reduce runs only for the periodic probe.
struct ChebyshevPeConfig {
  u32 nz = 1;
  FluxMode mode = FluxMode::Fused;
  u64 max_iterations = 50'000;
  f32 tolerance = 0.0f;       // epsilon vs the global r^T r at probes
  u32 check_every = 16;       // iterations between convergence probes
  f32 lambda_min = 0.0f;      // spectral bounds (host-estimated)
  f32 lambda_max = 0.0f;
  f32 divergence_factor = 1e8f;
  f32 diagonal_shift = 0.0f;  // backward-Euler accumulation term
  PeInit init;
};

/// Everything the lowering branches on. Two PEs with equal sites produce
/// byte-identical programs (given one solver config).
struct LoweringSite {
  wse::PeCoord coord{};
  i64 width = 1;
  i64 height = 1;
  PeLayout layout{};
  csl::HaloExchange::Colors halo_colors{};
  csl::AllReduce::Colors reduce_colors{};
  u32 slot_value = 0; // AllReduce scalar slots (word offsets)
  u32 slot_in = 0;
};

std::shared_ptr<const wse::bc::Program> lower_cg(const CgPeConfig& config,
                                                 const LoweringSite& site);

std::shared_ptr<const wse::bc::Program>
lower_chebyshev(const ChebyshevPeConfig& config, const LoweringSite& site);

/// Thread-safe Program cache shared by every PE of one solve (programs are
/// lowered lazily per distinct site shape; on_start runs concurrently
/// across fabric shards). It also memoizes the arena plan: a solve has a
/// handful of distinct Dirichlet counts, so the probe arena is built once
/// per count, not once per PE.
class ProgramCache {
public:
  using Key = std::tuple<u32, u32, u32>; // (shape bits, dirichlet count, slot)
  using Lower = std::function<std::shared_ptr<const wse::bc::Program>()>;

  static Key key_for(const LoweringSite& site);

  std::shared_ptr<const wse::bc::Program> get_or_lower(const Key& key,
                                                       const Lower& lower);

  /// The coordinate-free part of a lowering site — the PeLayout and the
  /// AllReduce slots — planned against a probe arena with the exact
  /// allocation sequence on_start performs, once per distinct input set.
  LoweringSite planned_site(const wse::PeMemoryParams& mem, u32 nz,
                            FluxMode mode, u32 dirichlet_count, bool jacobi,
                            bool with_source);

private:
  // Every PeLayout::plan input, so a memo hit is exact for any caller.
  using PlanKey = std::tuple<u32, u32, FluxMode, bool, bool, u64, u64>;

  std::mutex mutex_;
  std::map<Key, std::shared_ptr<const wse::bc::Program>> programs_;
  std::map<PlanKey, LoweringSite> plans_;
};

/// Computes the lowering site a PE at `coord` will see: the cache's
/// planned_site for its Dirichlet count plus the PE's position, so every
/// embedded offset matches the real run.
LoweringSite plan_site(wse::PeCoord coord, i64 width, i64 height,
                       const wse::PeMemoryParams& mem, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi, bool with_source,
                       ProgramCache& cache);

class BytecodeCgProgram final : public wse::PeProgram {
public:
  BytecodeCgProgram(CgPeConfig config, wse::PeCoord coord, i64 width,
                    i64 height, const wse::PeMemoryParams& mem,
                    std::shared_ptr<ProgramCache> cache);

  void on_start(wse::PeContext& ctx) override;
  void on_task(wse::PeContext& ctx, wse::Color color) override;
  const wse::bc::Program* bytecode() const override { return program_.get(); }
  wse::bc::VmState* bytecode_state() override { return &vm_; }

private:
  CgPeConfig config_;
  LoweringSite site_;
  csl::HaloExchange halo_;
  csl::AllReduce reduce_;
  std::shared_ptr<const wse::bc::Program> program_;
  wse::bc::VmState vm_;
};

class BytecodeChebyshevProgram final : public wse::PeProgram {
public:
  BytecodeChebyshevProgram(ChebyshevPeConfig config, wse::PeCoord coord,
                           i64 width, i64 height,
                           const wse::PeMemoryParams& mem,
                           std::shared_ptr<ProgramCache> cache);

  void on_start(wse::PeContext& ctx) override;
  void on_task(wse::PeContext& ctx, wse::Color color) override;
  const wse::bc::Program* bytecode() const override { return program_.get(); }
  wse::bc::VmState* bytecode_state() override { return &vm_; }

private:
  ChebyshevPeConfig config_;
  LoweringSite site_;
  csl::HaloExchange halo_;
  csl::AllReduce reduce_;
  std::shared_ptr<const wse::bc::Program> program_;
  wse::bc::VmState vm_;
};

} // namespace fvdf::core
