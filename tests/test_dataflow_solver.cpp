// End-to-end tests of the dataflow FV solver on the simulated fabric:
// numerical agreement with the f64 host oracle across fabric shapes
// (odd/even extents exercise the parity-dependent Table-I schedule),
// permeability fields, flux-kernel modes and column depths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "core/validation.hpp"
#include "fv/problem.hpp"
#include "golden_digest.hpp"
#include "solver/pressure_solve.hpp"

namespace fvdf::core {
namespace {

DataflowConfig tight_config(FluxMode mode = FluxMode::Fused) {
  DataflowConfig config;
  config.flux_mode = mode;
  config.tolerance = 1e-12f; // on r^T r
  config.max_iterations = 2000;
  return config;
}

TEST(DataflowSolver, SolvesTinyHomogeneousProblem) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);

  const auto report = compare_with_host(problem, result, 1e-20);
  EXPECT_LT(report.rel_l2_error, 1e-5);
  EXPECT_LT(report.host_residual_norm, 1e-4);
}

TEST(DataflowSolver, MatchesHostOnHeterogeneousProblem) {
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 8, /*seed=*/42);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged);
  const auto report = compare_with_host(problem, result, 1e-22);
  EXPECT_LT(report.rel_l2_error, 2e-5) << report.summary();
}

TEST(DataflowSolver, OnTheFlyModeMatchesFusedMode) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 6, /*seed=*/7);
  const auto fused = solve_dataflow(problem, tight_config(FluxMode::Fused));
  const auto otf = solve_dataflow(problem, tight_config(FluxMode::OnTheFly));
  ASSERT_TRUE(fused.converged);
  ASSERT_TRUE(otf.converged);
  for (std::size_t i = 0; i < fused.pressure.size(); ++i)
    EXPECT_NEAR(fused.pressure[i], otf.pressure[i], 1e-4f);
}

struct ShapeParam {
  i64 nx, ny, nz;
};

class DataflowShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(DataflowShapes, ConvergesAndMatchesHost) {
  const auto [nx, ny, nz] = GetParam();
  const auto problem = FlowProblem::quarter_five_spot(nx, ny, nz, /*seed=*/13, 0.5);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged) << nx << "x" << ny << "x" << nz;
  const auto report = compare_with_host(problem, result, 1e-22);
  EXPECT_LT(report.rel_l2_error, 5e-5)
      << nx << "x" << ny << "x" << nz << ": " << report.summary();
}

// Odd/even fabric extents exercise all parity paths of the Table-I
// schedule; 1-wide fabrics exercise the degenerate edge cases.
INSTANTIATE_TEST_SUITE_P(
    Shapes, DataflowShapes,
    ::testing::Values(ShapeParam{2, 2, 3}, ShapeParam{3, 3, 3}, ShapeParam{4, 3, 5},
                      ShapeParam{3, 4, 5}, ShapeParam{5, 5, 2}, ShapeParam{1, 5, 4},
                      ShapeParam{5, 1, 4}, ShapeParam{1, 1, 6}, ShapeParam{7, 2, 3},
                      ShapeParam{2, 7, 3}, ShapeParam{6, 6, 1}, ShapeParam{8, 7, 4}));

TEST(DataflowSolver, JxOnlyModeRunsFixedIterations) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 6);
  DataflowConfig config;
  config.jx_only = true;
  config.max_iterations = 10;
  const auto result = solve_dataflow(problem, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_GT(result.device_cycles, 0.0);
}

TEST(DataflowSolver, DeviceIterationCountTracksHostF32) {
  const auto problem = FlowProblem::quarter_five_spot(5, 5, 5, /*seed=*/3, 0.5);
  const auto result = solve_dataflow(problem, tight_config());

  CgOptions options;
  options.tolerance = 1e-12;
  const auto host = solve_pressure_host_f32(problem, options);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(host.cg.converged);
  // fp32 reduction orders differ (device reduces along chains), so allow a
  // small iteration-count drift.
  const i64 device_iters = static_cast<i64>(result.iterations);
  const i64 host_iters = static_cast<i64>(host.cg.iterations);
  EXPECT_NEAR(static_cast<double>(device_iters), static_cast<double>(host_iters),
              std::max<double>(3.0, 0.2 * static_cast<double>(host_iters)));
}

TEST(DataflowSolver, CommOnlyTimingIsCheaperThanFullRun) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 8);
  DataflowConfig full;
  full.jx_only = true;
  full.max_iterations = 5;
  const auto with_compute = solve_dataflow(problem, full);

  DataflowConfig comm_only = full;
  comm_only.timing.compute_scale = 0.0; // Table IV's FLOP-free run
  const auto without_compute = solve_dataflow(problem, comm_only);

  EXPECT_LT(without_compute.device_cycles, with_compute.device_cycles);
  // Identical traffic either way.
  EXPECT_EQ(without_compute.fabric.words_delivered, with_compute.fabric.words_delivered);
}

TEST(DataflowSolver, ReportsFabricTraffic) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_GT(result.fabric.messages_sent, 0u);
  EXPECT_GT(result.fabric.words_delivered, 0u);
  EXPECT_GT(result.counters.total_flops(), 0u);
}

// --- golden digests --------------------------------------------------------
// Every kernel configuration, fabric shape, thread count and column depth
// below is pinned to a golden digest (tests/golden_digest.hpp): solution
// bytes, iteration count, cycle count, fabric statistics, op ledger,
// residual history and Table-II phase cycles. Never edit one to make a
// test pass.

constexpr golden::Digest kCgFused{0x37e2c2ce76736eecull, 0x9124485b2e082ac0ull};
constexpr golden::Digest kCgOnTheFly{0x2423c3527980b977ull, 0x688e660d606ff976ull};
constexpr golden::Digest kJacobiShift{0xa61a9a48effe9400ull, 0x7457a10ac5ba710eull};
constexpr golden::Digest kJxOnly{0xa448f1ccbb3bee10ull, 0x8b606fac42159f18ull};
constexpr golden::Digest kShape1x1x4{0xd51b406f9c81f5abull, 0xf73d0947745a6eb4ull};
constexpr golden::Digest kShape1x5x3{0xdeb000cadf430fcdull, 0xc8c95a4f1ca2d2acull};
constexpr golden::Digest kShape5x1x3{0x7cbe3c3ce7e5a54full, 0x4a7da83e494d50b5ull};
constexpr golden::Digest kShape3x4x5{0x63f3b8696ec47f54ull, 0x73ce5f3ceae2e26cull};
constexpr golden::Digest kShape7x2x3{0x409bb748904de3a1ull, 0xf24b824de4dea7d4ull};
constexpr golden::Digest kChebyshev{0xc142ac2d5770cf50ull, 0xc754e879bbb82612ull};
constexpr golden::Digest kThreads4x6x5{0x21ec8db28c91a96cull, 0xb8cea3622a7240adull};
constexpr golden::Digest kDeepCgFused{0x3198225c94bd7df4ull, 0x77abbb4e3980411cull};
constexpr golden::Digest kDeepJacobiShift{0x2678a5c33994d028ull, 0xfac343818d03bfe8ull};
constexpr golden::Digest kDeepOnTheFly{0x6b7d076199e39389ull, 0x81887412d33fe34aull};
constexpr golden::Digest kInitialField5x5x3{0xe7d1038084996960ull, 0xac02c98fb4d27193ull};
constexpr golden::Digest kInitialFieldDeep{0xcc6c836016bdd32cull, 0xe85c7fc57b4e338dull};

void expect_golden(const FlowProblem& problem, const DataflowConfig& config,
                   const golden::Digest& want, const std::string& label) {
  golden::expect_digest(golden::solve_cg(problem, config), want, label);
}

TEST(GoldenDigest, CgFused) {
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 8, /*seed=*/42);
  expect_golden(problem, tight_config(FluxMode::Fused), kCgFused, "cg fused");
}

TEST(GoldenDigest, CgOnTheFly) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 6, /*seed=*/7);
  expect_golden(problem, tight_config(FluxMode::OnTheFly), kCgOnTheFly,
                "cg on-the-fly");
}

TEST(GoldenDigest, JacobiPreconditionedWithShift) {
  const auto problem = FlowProblem::quarter_five_spot(4, 5, 5, /*seed=*/11);
  DataflowConfig config = tight_config();
  config.jacobi_precondition = true;
  config.diagonal_shift = 0.05f;
  expect_golden(problem, config, kJacobiShift, "jacobi + shift");
}

TEST(GoldenDigest, JxOnlyMode) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 6);
  DataflowConfig config;
  config.jx_only = true;
  config.max_iterations = 8;
  expect_golden(problem, config, kJxOnly, "jx_only");
}

// Odd/even fabric extents select different Table-I schedule parities and
// different lowered programs; 1-wide fabrics hit the degenerate edges.
TEST(GoldenDigest, FabricShapes) {
  const struct {
    ShapeParam shape;
    golden::Digest want;
  } cases[] = {{{1, 1, 4}, kShape1x1x4}, {{1, 5, 3}, kShape1x5x3},
               {{5, 1, 3}, kShape5x1x3}, {{3, 4, 5}, kShape3x4x5},
               {{7, 2, 3}, kShape7x2x3}};
  for (const auto& c : cases) {
    const auto [nx, ny, nz] = c.shape;
    const auto problem =
        FlowProblem::quarter_five_spot(nx, ny, nz, /*seed=*/13, 0.5);
    expect_golden(problem, tight_config(), c.want,
                  std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                      std::to_string(nz));
  }
}

TEST(GoldenDigest, Chebyshev) {
  const auto problem = FlowProblem::homogeneous_column(5, 5, 3);
  ChebyshevDeviceConfig config;
  config.bounds = SpectralBounds{0.05, 12.0}; // conservative bracket
  config.tolerance = 1e-8f;
  config.max_iterations = 2000;
  config.check_every = 8;
  golden::expect_digest(golden::solve_chebyshev(problem, config), kChebyshev,
                        "chebyshev");
}

// sim_threads is a host-side knob: one digest at every thread count.
TEST(GoldenDigest, EveryThreadCount) {
  const auto problem = FlowProblem::quarter_five_spot(4, 6, 5, /*seed=*/23);
  for (u32 threads : {1u, 2u, 3u}) {
    DataflowConfig config = tight_config();
    config.sim_threads = threads;
    expect_golden(problem, config, kThreads4x6x5,
                  "threads=" + std::to_string(threads));
  }
}

// Deep columns: DSD spans of 256-512 words and PE arenas near the 48 KiB
// budget, 10 iterations each at tolerance 0.
DataflowConfig deep_config() {
  DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 10;
  return config;
}

TEST(GoldenDigest, DeepColumnCgFused) {
  const auto problem = FlowProblem::quarter_five_spot(4, 3, 512, /*seed=*/13, 0.5);
  expect_golden(problem, deep_config(), kDeepCgFused, "4x3x512 cg fused");
}

TEST(GoldenDigest, DeepColumnJacobiShift) {
  const auto problem = FlowProblem::quarter_five_spot(4, 3, 512, /*seed=*/13, 0.5);
  DataflowConfig config = deep_config();
  config.jacobi_precondition = true;
  config.diagonal_shift = 0.05f;
  expect_golden(problem, config, kDeepJacobiShift, "4x3x512 jacobi + shift");
}

TEST(GoldenDigest, DeepColumnOnTheFly) {
  const auto problem = FlowProblem::quarter_five_spot(3, 3, 256, /*seed=*/13, 0.5);
  DataflowConfig config = deep_config();
  config.flux_mode = FluxMode::OnTheFly;
  expect_golden(problem, config, kDeepOnTheFly, "3x3x256 on-the-fly");
}

// A non-default initial field (DataflowConfig::initial_field): every
// interior cell gets its own starting value, Dirichlet cells keep theirs,
// so each PE uploads a different p0 column.
std::vector<f64> varied_initial_field(const FlowProblem& problem) {
  std::vector<f64> field = problem.initial_pressure(0.0);
  const std::vector<f64> probe = problem.initial_pressure(1.0);
  for (std::size_t i = 0; i < field.size(); ++i)
    if (field[i] != probe[i]) field[i] = 0.1 * static_cast<f64>((i * 7) % 13);
  return field;
}

TEST(GoldenDigest, InitialFieldOverride) {
  const auto small = FlowProblem::quarter_five_spot(5, 5, 3, /*seed=*/9);
  DataflowConfig config = tight_config();
  config.initial_field = varied_initial_field(small);
  expect_golden(small, config, kInitialField5x5x3, "5x5x3 initial field");

  const auto deep = FlowProblem::quarter_five_spot(4, 3, 512, /*seed=*/13, 0.5);
  DataflowConfig deep_cfg = deep_config();
  deep_cfg.jacobi_precondition = true;
  deep_cfg.diagonal_shift = 0.05f;
  deep_cfg.initial_field = varied_initial_field(deep);
  expect_golden(deep, deep_cfg, kInitialFieldDeep,
                "4x3x512 jacobi + shift initial field");
}

// The preflight verifier consumes the bytecode manifest (derived from the
// instruction stream); a full verified solve must pass.
TEST(DataflowSolver, VerifyPreflightPasses) {
  const auto problem = FlowProblem::quarter_five_spot(3, 3, 4, /*seed=*/5);
  DataflowConfig config = tight_config();
  config.verify_preflight = true;
  const auto result = solve_dataflow(problem, config);
  EXPECT_TRUE(result.converged);
  const auto report = verify_dataflow(problem, config);
  EXPECT_TRUE(report.ok()) << report.summary();
}

} // namespace
} // namespace fvdf::core
