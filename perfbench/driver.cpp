// fvdf benchmark driver. perfbench/run.py builds this binary and runs it
// once per measurement:
//
//   fvdf_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// One process runs one workload for S seconds of timed requests and prints
// one JSON result line last. Every request goes through fvdf's public entry
// points in-process and is timed from outside them:
//   * solver workloads: Config::parse_string -> app::scenario_from_config
//     -> app::run_scenario, one request at a time (the fvdf_sim path);
//   * serve-hot-cold: an in-process serve::Server on a throwaway unix
//     socket, driven by serve::Client connections in a closed loop (the
//     fvdf_serve path).
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same calls are split into per-layer spans (parse, problem build,
// solve, residual, plus verify / lookahead-plan / discretize / warm-solve
// probes, the profiled one split at the event loop) and the result carries
// the per-layer metrics; the span tree and counts are written to
// DIR/trace-<workload>-seed<N>.json. Nothing inside fvdf is instrumented
// beyond attaching the existing telemetry::HostProfiler through
// DataflowConfig::host_profiler.
//
// Inputs are INI case texts generated from the seed; fvdf only ever sees
// that text. Outputs are checked against repeats, a reference solve, the
// host CG oracle and (cg-64x64x8-serial) a 2-thread solve against the
// serial engine; a request that throws or fails a check counts as failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/solver.hpp"
#include "fv/residual.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/blas.hpp"
#include "solver/pressure_solve.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace fvdf;
using Clock = std::chrono::steady_clock;

// Relative agreement demanded between the device's Eq.(3) residual norm
// and the f64 host CG oracle's after the same number of iterations. The
// device computes in fp32; over the fixed 10-iteration caps used here the
// two agree to ~1e-6 relative (measured), so 1e-3 flags a wrong solve
// without tripping on rounding.
constexpr f64 kOracleRelTolerance = 1e-3;
// ROADMAP item 1's bar: a traced request's layer self-times must account
// for its untraced wall time to within this share.
constexpr f64 kCoverageTolerance = 0.05;

f64 seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64>(b - a).count();
}

f64 process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<f64>(t.tv_sec) + 1e-6 * static_cast<f64>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

f64 peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

f64 median(std::vector<f64> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, or NaN when fewer than `min_beyond` samples
/// lie above it (a tail read from a handful of samples is the maximum).
f64 percentile(std::vector<f64> values, f64 p, std::size_t min_beyond) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<f64>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (values.size() - 1 - index < min_beyond) return std::nan("");
  return values[index];
}

bool bitwise_equal(const std::vector<f64>& a, const std::vector<f64>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(f64)) == 0;
}

std::string pressure_hash(const std::vector<f64>& pressure) {
  return hash_hex(fnv1a64(pressure.data(), pressure.size() * sizeof(f64)));
}

// ---------------------------------------------------------------------------
// Workloads and the seeded case generator.

struct Workload {
  const char* name;
  i64 nx, ny, nz;
  u64 iterations; // fixed CG iteration cap, run at tolerance 0
  // > 1: each run also solves its case at this many simulator
  // threads, requires results bitwise equal to the serial engine, and (in
  // the traced run) profiles that solve for the parallel-engine metrics.
  u32 parallel_threads;
  bool serve;
};

const Workload kWorkloads[] = {
    {"cg-64x64x8-serial", 64, 64, 8, 10, 2, false},
    {"deep-column-32x32x512", 32, 32, 512, 10, 0, false},
    {"serve-hot-cold", 16, 16, 4, 10, 0, true},
};

// Serve traffic: three closed-loop clients over two solve workers; a
// request repeats one of kHotCases with probability kHotShare, otherwise
// it is a fresh case (a cache miss). Half hot, half cold is the mix of the
// repo's serve load generator (bench/serve_qps.cpp).
constexpr u32 kServeClients = 3;
constexpr u32 kServeWorkers = 2;
constexpr u32 kHotCases = 3;
constexpr f64 kHotShare = 0.5;
// Seconds of traced in-process requests on the hot cases after the loop.
constexpr f64 kServeTracedSeconds = 3;
// Daemon set-ups whose median is setup_s; half run before the client loop
// and half after it, so they sample the host's speed at both ends.
constexpr u32 kServeSetupReps = 40;

struct CaseSpec {
  u64 perm_seed = 0;
  f64 sigma = 1.0;
  f64 injector_pressure = 1.0;
};

CaseSpec draw_case(Rng& rng) {
  CaseSpec spec;
  spec.perm_seed = 1 + rng.uniform_index(1'000'000'000);
  // Rounded so the INI text round-trips exactly.
  spec.sigma = std::round(rng.uniform(0.75, 1.25) * 1000.0) / 1000.0;
  spec.injector_pressure = std::round(rng.uniform(0.5, 2.0) * 1000.0) / 1000.0;
  return spec;
}

std::string case_text(const Workload& w, const CaseSpec& spec,
                      u64 max_iterations) {
  std::ostringstream os;
  os << "[mesh]\nnx = " << w.nx << "\nny = " << w.ny << "\nnz = " << w.nz
     << "\n\n[perm]\nkind = lognormal\nsigma = " << spec.sigma
     << "\nseed = " << spec.perm_seed
     << "\n\n[wells]\ninjector_pressure = " << spec.injector_pressure
     << "\nproducer_pressure = 0.0\n\n[solver]\nbackend = dataflow\n"
        "tolerance = 0\nmax_iterations = "
     << max_iterations << "\nsim_threads = 1\n";
  if (w.serve) os << "verify = true\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// A blocked fvdf call cannot be cancelled, and a run must end within its
// time limit. The watchdog ends the process (exit 3, no result line) when a
// guarded call outlives kCallTimeoutS, and names the call.

constexpr f64 kCallTimeoutS = 60; // the slowest guarded call takes ~3 s

class Watchdog {
public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::string call) {
    std::lock_guard<std::mutex> lock(mutex_);
    call_ = std::move(call);
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<f64>(kCallTimeoutS));
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_ = Clock::time_point::max();
  }

private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (Clock::now() >= deadline_) {
        std::cerr << "fvdf_perfbench: " << call_ << " did not return within "
                  << kCallTimeoutS << " s; ending the run without a result\n";
        std::_Exit(3);
      }
      if (deadline_ == Clock::time_point::max())
        cv_.wait(lock);
      else
        cv_.wait_until(lock, deadline_);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  Clock::time_point deadline_ = Clock::time_point::max();
  std::string call_;
  bool stop_ = false;
  std::thread thread_; // last: it reads the members above
};

Watchdog& watchdog() {
  static Watchdog instance;
  return instance;
}

/// Arms the watchdog for the lifetime of one call into fvdf.
class GuardedCall {
public:
  explicit GuardedCall(std::string call) { watchdog().arm(std::move(call)); }
  ~GuardedCall() { watchdog().disarm(); }
  GuardedCall(const GuardedCall&) = delete;
  GuardedCall& operator=(const GuardedCall&) = delete;
};

// ---------------------------------------------------------------------------
// Span recorder for the traced run: spans are kept in memory and written
// once at exit. A span's self time is its duration minus the part of it
// its children cover.

class Tracer {
public:
  struct Span {
    std::string name;
    f64 start = 0;
    f64 end = 0;
    i64 parent = -1;
    i64 request = -1;
  };

  f64 now() const { return seconds_between(t0_, Clock::now()); }

  i64 open(std::string name, i64 parent, i64 request) {
    spans_.push_back(Span{std::move(name), now(), 0, parent, request});
    return static_cast<i64>(spans_.size()) - 1;
  }
  void close(i64 id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  i64 add(std::string name, f64 start, f64 end, i64 parent, i64 request) {
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<i64>(spans_.size()) - 1;
  }

  i64 size() const { return static_cast<i64>(spans_.size()); }
  const Span& span(i64 id) const { return spans_[static_cast<std::size_t>(id)]; }
  f64 duration(i64 id) const { return span(id).end - span(id).start; }

  /// Duration minus the union of the children's intervals (clipped to
  /// the span).
  f64 self_time(i64 id) const {
    const Span& s = span(id);
    std::vector<std::pair<f64, f64>> covered;
    for (const Span& c : spans_)
      if (c.parent == id)
        covered.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
    std::sort(covered.begin(), covered.end());
    f64 union_len = 0;
    f64 cursor = s.start;
    for (const auto& [b, e] : covered) {
      const f64 begin = std::max(b, cursor);
      if (e > begin) {
        union_len += e - begin;
        cursor = e;
      }
    }
    return (s.end - s.start) - union_len;
  }

  /// Seconds of a root span its descendants' self times account for (self
  /// times of a tree sum to the root's duration).
  f64 layer_total(i64 root) const { return duration(root) - self_time(root); }

  void write_spans(telemetry::JsonWriter& w) const {
    w.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .kv("id", static_cast<i64>(i))
          .kv("name", s.name)
          .kv("start", s.start)
          .kv("end", s.end)
          .kv("parent", s.parent)
          .kv("request", s.request)
          .kv("self", self_time(static_cast<i64>(i)))
          .end_object();
    }
    w.end_array();
  }

private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, std::string name, i64 parent, i64 request)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  i64 id() const { return id_; }

private:
  Tracer& tracer_;
  i64 id_;
};

// ---------------------------------------------------------------------------
// Result reporting.

struct Metric {
  std::string name;
  f64 value = 0;
  std::string unit;
};

struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  bool checks_ok = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes; // human-readable lines

  void fail_check(const std::string& why) {
    checks_ok = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  void metric(std::string name, f64 value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// ---------------------------------------------------------------------------
// The request path and its references.

/// The DataflowConfig app::run_scenario builds for a steady dataflow
/// scenario (src/app/scenario.cpp), so a direct core::solve_dataflow call
/// reproduces a request's solve and exposes its counters.
core::DataflowConfig dataflow_config(const app::Scenario& scenario) {
  core::DataflowConfig config;
  config.tolerance = static_cast<f32>(scenario.tolerance);
  config.max_iterations = scenario.max_iterations;
  config.sim_threads = scenario.sim_threads;
  config.verify_preflight = scenario.verify;
  return config;
}

/// One end-to-end request: case text in, pressure field out.
app::ScenarioOutcome run_request(const std::string& text) {
  const Config config = Config::parse_string(text);
  const app::Scenario scenario = app::scenario_from_config(config);
  std::ostringstream log;
  return app::run_scenario(scenario, log);
}

/// A request's solve repeated through core::solve_dataflow: its pressure
/// (run_scenario's f64 layout) and the exact counters run_scenario does
/// not return.
struct Reference {
  std::vector<f64> pressure;
  f64 device_cycles = 0;
  wse::FabricStats fabric;
};

Reference reference_solve(const std::string& text, u32 sim_threads) {
  const Config config = Config::parse_string(text);
  app::Scenario scenario = app::scenario_from_config(config);
  scenario.sim_threads = sim_threads;
  scenario.verify = false; // verification never changes results
  const core::DataflowResult result =
      core::solve_dataflow(*scenario.problem, dataflow_config(scenario));
  Reference ref;
  ref.pressure.assign(result.pressure.begin(), result.pressure.end());
  ref.device_cycles = result.device_cycles;
  ref.fabric = result.fabric;
  return ref;
}

/// Eq.(3) residual norm of the f64 host CG oracle after the same
/// iteration cap.
f64 oracle_residual_norm(const std::string& text) {
  const Config config = Config::parse_string(text);
  const app::Scenario scenario = app::scenario_from_config(config);
  CgOptions options;
  options.tolerance = 0;
  options.max_iterations = scenario.max_iterations;
  return solve_pressure_host(*scenario.problem, options).final_residual_norm;
}

bool check_oracle(const std::string& text, f64 device_norm, RunResult& out,
                  const std::string& label) {
  const f64 host_norm = oracle_residual_norm(text);
  const f64 rel = std::abs(device_norm - host_norm) /
                  std::max(std::abs(host_norm), 1e-300);
  std::ostringstream os;
  os << label << ": Eq.(3) residual device " << device_norm << " vs host CG "
     << host_norm << " (rel diff " << rel << ", tolerance "
     << kOracleRelTolerance << ")";
  out.notes.push_back(os.str());
  if (!(rel <= kOracleRelTolerance)) {
    out.fail_check(label + ": residual disagrees with the host CG oracle");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer probes for the traced run.

/// Layer metric name -> value, for one traced request.
using LayerSample = std::map<std::string, f64>;

/// The solve path of one request, split at the public calls run_scenario
/// makes. The host profiler is left off: attached, it slows the event loop
/// by 10-20%, and the traced request must stay a faithful copy of the
/// untraced one. The event loop is profiled in the warm-solve probe.
struct TracedRequest {
  i64 root = -1;
  std::vector<f64> pressure;
  std::shared_ptr<const FlowProblem> problem;
  core::DataflowConfig config;
  std::shared_ptr<core::CaseArtifacts> artifacts;
};

// The layer metrics need the profiler's state totals, not its pc samples.
constexpr telemetry::HostProfilerConfig kProfilerConfig{
    /*pc_sample_period=*/1u << 30, /*max_intervals_per_worker=*/1u << 15};

/// Adds the profiler's event-loop interval as a child span of `parent`.
void add_event_loop_span(Tracer& tracer, const telemetry::HostProfiler& prof,
                         i64 parent, i64 request) {
  if (!prof.captured()) return;
  // begin_run's epoch on the tracer's clock: both clocks are steady.
  const f64 begin = tracer.now() - prof.now();
  tracer.add("wse.run", begin, begin + prof.wall_seconds(), parent, request);
}

void profiler_metrics(const telemetry::HostProfiler& prof, LayerSample& s) {
  f64 by_state[telemetry::kNumHostStates] = {};
  for (u32 w = 0; w < prof.workers(); ++w)
    for (u32 st = 0; st < telemetry::kNumHostStates; ++st)
      by_state[st] += prof.worker_timeline(w).total(
          static_cast<telemetry::HostState>(st));
  const f64 worker_wall = prof.wall_seconds() * std::max<u32>(prof.workers(), 1);
  const auto share = [&](telemetry::HostState st) {
    return worker_wall > 0 ? by_state[static_cast<u32>(st)] / worker_wall : 0.0;
  };
  u64 worked = 0;
  u64 shard_rounds = 0;
  for (u32 i = 0; i < prof.shards(); ++i) {
    worked += prof.shard_stats(i).rounds_worked;
    shard_rounds += prof.shard_stats(i).rounds_total();
  }
  s["wse.rounds"] = static_cast<f64>(prof.rounds());
  s["wse.run_share"] = share(telemetry::HostState::Run);
  s["wse.barrier_share"] = share(telemetry::HostState::Barrier);
  s["wse.merge_share"] = share(telemetry::HostState::Merge);
  s["wse.park_share"] = share(telemetry::HostState::Park);
  s["wse.worked_round_share"] =
      shard_rounds > 0 ? static_cast<f64>(worked) / static_cast<f64>(shard_rounds)
                       : 0.0;
  s["wse.speedup_bound"] = prof.max_speedup_bound(2);
}

void result_counts(const core::DataflowResult& r, LayerSample& s) {
  s["core.iterations"] = static_cast<f64>(r.iterations);
  s["wse.events"] = static_cast<f64>(r.fabric.events_processed);
  s["wse.tasks_run"] = static_cast<f64>(r.fabric.tasks_run);
  s["wse.messages_sent"] = static_cast<f64>(r.fabric.messages_sent);
  s["wse.word_hops"] = static_cast<f64>(r.fabric.word_hops);
  s["wse.flits_stalled"] = static_cast<f64>(r.fabric.flits_stalled);
  const f64 flops = static_cast<f64>(r.counters.total_flops());
  const f64 words =
      static_cast<f64>(r.counters.memory_loads() + r.counters.memory_stores());
  s["kernel.flops"] = flops;
  s["kernel.mem_words"] = words;
  s["kernel.flops_per_word"] = words > 0 ? flops / words : 0.0;
  s["device_cycles"] = r.device_cycles;
}

TracedRequest traced_request(Tracer& tracer, i64 request,
                             const std::string& text, LayerSample& sample,
                             core::DataflowResult& result) {
  TracedRequest tr;
  tr.root = tracer.open("request", -1, request);
  Config config;
  {
    ScopedSpan span(tracer, "app.parse", tr.root, request);
    config = Config::parse_string(text);
  }
  {
    ScopedSpan span(tracer, "app.problem_build", tr.root, request);
    tr.problem = app::problem_from_config(config);
  }
  app::Scenario scenario;
  {
    ScopedSpan span(tracer, "app.scenario", tr.root, request);
    scenario = app::scenario_from_config(config, tr.problem);
  }
  tr.config = dataflow_config(scenario);
  tr.artifacts = std::make_shared<core::CaseArtifacts>();
  {
    core::DataflowConfig cold = tr.config;
    cold.artifacts = tr.artifacts; // filled here, reused by the warm probe
    ScopedSpan span(tracer, "core.solve_cold", tr.root, request);
    result = core::solve_dataflow(*tr.problem, cold);
  }
  {
    ScopedSpan span(tracer, "app.residual", tr.root, request);
    tr.pressure.assign(result.pressure.begin(), result.pressure.end());
    const auto residual = compute_residual(*tr.problem, tr.pressure);
    (void)blas::norm2(residual.data(), residual.size());
  }
  tracer.close(tr.root);
  result_counts(result, sample);
  return tr;
}

/// Setup-layer probes on a traced request's case: discretize, verify,
/// lookahead plan, a warm solve reusing the cold solve's artifacts (timed
/// like the cold one, without the profiler, so their difference is
/// lowering) and the same warm solve profiled, for the event-loop split;
/// with parallel_threads > 1, one more profiled warm solve at that many
/// simulator threads, whose profile gives the parallel-engine metrics.
/// Returns false when a probe's result disagrees with the request.
bool probe_layers(Tracer& tracer, i64 request, const TracedRequest& tr,
                  u32 parallel_threads, LayerSample& sample) {
  const i64 root = tracer.open("probe", -1, request);
  {
    ScopedSpan span(tracer, "fv.discretize", root, request);
    const auto system = tr.problem->discretize<f32>();
    (void)system;
  }
  core::DataflowConfig plain = tr.config;
  plain.verify_preflight = false;
  bool verified = false;
  {
    ScopedSpan span(tracer, "analysis.verify", root, request);
    verified = core::verify_dataflow(*tr.problem, plain).ok();
  }
  {
    ScopedSpan span(tracer, "analysis.lookahead_plan", root, request);
    (void)core::plan_dataflow_lookahead(*tr.problem, plain);
  }
  core::DataflowConfig warm = tr.config;
  warm.artifacts = tr.artifacts;
  core::DataflowResult warm_result;
  {
    ScopedSpan span(tracer, "core.solve_warm", root, request);
    warm_result = core::solve_dataflow(*tr.problem, warm);
  }
  telemetry::HostProfiler prof(kProfilerConfig);
  core::DataflowResult profiled_result;
  {
    warm.host_profiler = &prof;
    ScopedSpan span(tracer, "core.solve_profiled", root, request);
    profiled_result = core::solve_dataflow(*tr.problem, warm);
    add_event_loop_span(tracer, prof, span.id(), request);
  }
  const auto as_f64 = [](const std::vector<f32>& field) {
    return std::vector<f64>(field.begin(), field.end());
  };
  bool same = bitwise_equal(as_f64(warm_result.pressure), tr.pressure) &&
              bitwise_equal(as_f64(profiled_result.pressure), tr.pressure);
  telemetry::HostProfiler parallel_prof(kProfilerConfig);
  if (parallel_threads > 1) {
    core::DataflowConfig parallel = tr.config;
    parallel.sim_threads = parallel_threads;
    parallel.artifacts = tr.artifacts;
    parallel.host_profiler = &parallel_prof;
    ScopedSpan span(tracer, "core.solve_parallel", root, request);
    const core::DataflowResult result = core::solve_dataflow(*tr.problem, parallel);
    add_event_loop_span(tracer, parallel_prof, span.id(), request);
    same = same && bitwise_equal(as_f64(result.pressure), tr.pressure) &&
           result.fabric == warm_result.fabric;
  }
  tracer.close(root);
  profiler_metrics(parallel_threads > 1 ? parallel_prof : prof, sample);
  return verified && same;
}

/// Span durations of one traced request and its probes, as layer metrics.
void span_metrics(const Tracer& tracer, i64 first_span, i64 last_span,
                  LayerSample& s) {
  f64 warm_run = 0;
  for (i64 id = first_span; id < last_span; ++id) {
    const Tracer::Span& span = tracer.span(id);
    if (span.name == "wse.run") {
      if (tracer.span(span.parent).name == "core.solve_profiled")
        warm_run = tracer.duration(id);
    } else if (span.name != "request" && span.name != "probe" &&
               span.name != "app.scenario") {
      s[span.name + "_s"] = tracer.duration(id);
    }
  }
  s["core.lowering_s"] = s["core.solve_cold_s"] - s["core.solve_warm_s"];
  s["wse.run_s"] = warm_run;
  s["wse.events_per_s"] = warm_run > 0 ? s["wse.events"] / warm_run : 0;
  s["wse.fabric_setup_s"] = s["core.solve_profiled_s"] - warm_run;
}

// The per-layer metric names and units the traced run reports, in order.
// Layers a workload does not exercise report 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"app.parse_s", "s"},
    {"app.problem_build_s", "s"},
    {"fv.discretize_s", "s"},
    {"app.residual_s", "s"},
    {"analysis.verify_s", "s"},
    {"analysis.lookahead_plan_s", "s"},
    {"core.solve_cold_s", "s"},
    {"core.solve_warm_s", "s"},
    {"core.lowering_s", "s"},
    {"core.iterations", "count"},
    {"wse.run_s", "s"},
    {"wse.fabric_setup_s", "s"},
    {"wse.events", "count"},
    {"wse.events_per_s", "1/s"},
    {"wse.tasks_run", "count"},
    {"wse.messages_sent", "count"},
    {"wse.word_hops", "count"},
    {"wse.flits_stalled", "count"},
    {"wse.rounds", "count"},
    {"wse.run_share", "1"},
    {"wse.barrier_share", "1"},
    {"wse.merge_share", "1"},
    {"wse.park_share", "1"},
    {"wse.worked_round_share", "1"},
    {"wse.speedup_bound", "x"},
    {"kernel.flops", "count"},
    {"kernel.mem_words", "count"},
    {"kernel.flops_per_word", "1"},
    {"serve.cache_hit_ratio", "1"},
    {"serve.cache_misses", "count"},
    {"serve.rejected", "count"},
    {"serve.setup_hot_s", "s"},
    {"serve.setup_cold_s", "s"},
    {"serve.solve_s", "s"},
    {"serve.queue_wait_s", "s"},
    {"serve.request_p95_s", "s"},
    {"serve.solves_per_s", "1/s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_share", "1"},
    {"trace.coverage", "1"},
};

// ---------------------------------------------------------------------------
// Traced in-process requests (all workloads): each traced request runs
// between two untraced run_request calls on the same case (its twins), so
// the tracing overhead and the layers' coverage of a real request are
// measured under the same host conditions. The layer probes follow.

struct TracedRun {
  std::vector<i64> requests;
  std::vector<LayerSample> samples;
  std::vector<f64> traced_wall;
  std::vector<f64> untraced_wall; // mean of the two twins
  std::vector<f64> coverage;      // layer self-times / untraced wall
  std::vector<f64> root_coverage; // layer self-times / traced wall
};

void traced_groups(const std::vector<std::string>& cases, f64 seconds,
                   u32 min_groups, u32 parallel_threads, Tracer& tracer,
                   i64& next_request, RunResult& out, TracedRun& run) {
  // The process's first request pays one-time costs (page faults, heap
  // growth) that would land on the first twin only.
  ++out.attempted;
  try {
    const GuardedCall guard("traced-run warm-up request");
    (void)run_request(cases[0]);
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail_check(std::string("warm-up request threw: ") + e.what());
  }
  const auto start = Clock::now();
  for (u32 i = 0;; ++i) {
    if (i >= min_groups && seconds_between(start, Clock::now()) >= seconds) break;
    const std::string& text = cases[i % cases.size()];
    const i64 request = next_request++;
    out.attempted += 3; // the traced request and its two untraced twins
    try {
      // The twins run just before and just after the traced request; their
      // mean cancels a steady drift of the host's speed across the three.
      std::vector<f64> twin_pressure[2];
      f64 twin_wall[2] = {0, 0};
      const auto run_untraced = [&](int t) {
        const GuardedCall guard("untraced request " + std::to_string(request));
        const auto t0 = Clock::now();
        twin_pressure[t] = run_request(text).pressure;
        twin_wall[t] = seconds_between(t0, Clock::now());
      };
      run_untraced(0);
      LayerSample sample;
      core::DataflowResult result;
      const i64 first = tracer.size();
      TracedRequest tr;
      {
        const GuardedCall guard("traced request " + std::to_string(request));
        tr = traced_request(tracer, request, text, sample, result);
      }
      run_untraced(1);
      bool probes_ok = false;
      {
        const GuardedCall guard("layer probes " + std::to_string(request));
        probes_ok = probe_layers(tracer, request, tr, parallel_threads, sample);
      }
      const i64 last = tracer.size();
      if (!probes_ok || !bitwise_equal(twin_pressure[0], tr.pressure) ||
          !bitwise_equal(twin_pressure[1], tr.pressure)) {
        out.failed += 3;
        out.fail_check("traced request " + std::to_string(request) +
                       (probes_ok ? ": traced solve differs from run_scenario"
                                  : ": warm solve or verifier disagrees"));
        continue;
      }
      span_metrics(tracer, first, last, sample);
      const f64 untraced = 0.5 * (twin_wall[0] + twin_wall[1]);
      const f64 layers = tracer.layer_total(tr.root);
      run.requests.push_back(request);
      run.samples.push_back(std::move(sample));
      run.traced_wall.push_back(tracer.duration(tr.root));
      run.untraced_wall.push_back(untraced);
      run.coverage.push_back(untraced > 0 ? layers / untraced : 0);
      run.root_coverage.push_back(layers / tracer.duration(tr.root));
    } catch (const std::exception& e) {
      out.failed += 3;
      out.fail_check("traced request " + std::to_string(request) + " threw: " +
                     e.what());
    }
  }
}

/// Each layer's share of the wall time of all request trees rooted at a
/// span named `root_name`: summed self times over summed root durations.
std::string self_time_shares(const Tracer& tracer, const std::string& root_name) {
  std::map<std::string, f64> self;
  f64 total = 0;
  for (i64 id = 0; id < tracer.size(); ++id) {
    i64 root = id;
    while (tracer.span(root).parent >= 0) root = tracer.span(root).parent;
    if (tracer.span(root).name != root_name) continue;
    if (root == id) total += tracer.duration(id);
    self[tracer.span(id).name] += tracer.self_time(id);
  }
  std::vector<std::pair<f64, std::string>> ranked;
  for (const auto& [name, seconds] : self) ranked.emplace_back(seconds, name);
  std::sort(ranked.rbegin(), ranked.rend());
  std::ostringstream os;
  os << root_name << " self-time shares:";
  for (const auto& [seconds, name] : ranked) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.1f%%", total > 0 ? 100 * seconds / total : 0);
    os << ' ' << name << buf;
  }
  return os.str();
}

/// Medians of the traced samples as per-layer metrics (serve.* values are
/// merged in by the caller; layers nobody measured report 0).
void layer_metrics(const TracedRun& run, const Tracer& tracer,
                   const std::map<std::string, f64>& extra, RunResult& out) {
  std::map<std::string, std::vector<f64>> by_name;
  for (const LayerSample& s : run.samples)
    for (const auto& [name, value] : s) by_name[name].push_back(value);
  const f64 traced = median(run.traced_wall);
  const f64 untraced = median(run.untraced_wall);
  // Each request's coverage compares two separate timings, so it carries the
  // host's request-to-request noise; the gate takes the run's median.
  const f64 coverage = median(run.coverage);
  std::map<std::string, f64> values = extra;
  for (const auto& [name, list] : by_name) values[name] = median(list);
  values["trace.overhead_s"] = traced - untraced;
  values["trace.overhead_share"] = untraced > 0 ? (traced - untraced) / untraced : 0;
  values["trace.coverage"] = coverage;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    out.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (run.samples.empty()) {
    out.fail_check("no traced request completed");
    return;
  }
  std::ostringstream os;
  os << "traced: " << run.samples.size() << " request(s), time_to_solution_s "
     << traced << " traced vs " << untraced << " untraced (overhead "
     << traced - untraced << " s); layer self-times / untraced wall:";
  for (f64 c : run.coverage) os << ' ' << c;
  os << " (median " << coverage << "); of the traced wall, at least "
     << *std::min_element(run.root_coverage.begin(), run.root_coverage.end());
  out.notes.push_back(os.str());
  out.notes.push_back(self_time_shares(tracer, "request"));
  out.notes.push_back(self_time_shares(tracer, "probe"));
  if (std::abs(coverage - 1.0) > kCoverageTolerance)
    out.fail_check("layer self-times account for the untraced request wall "
                   "only to within " + std::to_string(std::abs(coverage - 1.0)));
}

void write_trace(const std::string& path, const Workload& w, u64 seed,
                 const Tracer& tracer, const TracedRun& run,
                 const std::vector<std::pair<i64, std::map<std::string, f64>>>&
                     serve_counts) {
  telemetry::JsonWriter json;
  json.begin_object()
      .kv("format", "fvdf.perfbench.trace/1")
      .kv("workload", w.name)
      .kv("seed", seed);
  tracer.write_spans(json);
  json.key("requests").begin_array();
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    json.begin_object()
        .kv("request", run.requests[i])
        .kv("traced_s", run.traced_wall[i])
        .kv("untraced_s", run.untraced_wall[i])
        .kv("coverage", run.coverage[i])
        .kv("root_coverage", run.root_coverage[i])
        .key("counts")
        .begin_object();
    for (const auto& [name, value] : run.samples[i]) json.kv(name, value);
    json.end_object().end_object();
  }
  for (const auto& [request, counts] : serve_counts) {
    json.begin_object().kv("request", request).key("counts").begin_object();
    for (const auto& [name, value] : counts) json.kv(name, value);
    json.end_object().end_object();
  }
  json.end_array().end_object();
  std::ofstream(path) << json.take() << '\n';
}

// ---------------------------------------------------------------------------
// Solver workloads: one request at a time through run_request.

constexpr u32 kMinRequests = 4; // timed requests even if `seconds` is short

void solver_workload(const Workload& w, u64 seed, f64 seconds, bool trace,
                     const std::string& trace_path, RunResult& out) {
  Rng rng(seed);
  const CaseSpec spec = draw_case(rng);
  const std::string text = case_text(w, spec, w.iterations);

  if (trace) {
    Tracer tracer;
    TracedRun run;
    i64 next_request = 0;
    traced_groups({text}, seconds, /*min_groups=*/5, w.parallel_threads,
                  tracer, next_request, out, run);
    layer_metrics(run, tracer, {}, out);
    write_trace(trace_path, w, seed, tracer, run, {});
    return;
  }

  // Each timed request follows a setup_s request: the case at
  // max_iterations = 0, cold, through the same entry point. Alternating the
  // two makes both sample the same stretch of the host's speed, which
  // drifts over seconds.
  const std::string zero = case_text(w, spec, 0);
  std::vector<f64> setup;
  std::vector<f64> wall;
  std::vector<f64> cpu;
  u64 wrong = 0; // completed requests that differ from the first result
  std::vector<f64> first;
  f64 device_norm = 0;
  const auto start = Clock::now();
  for (u32 n = 0;; ++n) {
    if (n >= kMinRequests && seconds_between(start, Clock::now()) >= seconds)
      break;
    out.attempted += 2;
    try {
      const GuardedCall guard("setup request " + std::to_string(n));
      const auto t0 = Clock::now();
      (void)run_request(zero);
      setup.push_back(seconds_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail_check(std::string("setup request threw: ") + e.what());
    }
    try {
      const GuardedCall guard("timed request " + std::to_string(n));
      const f64 c0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      app::ScenarioOutcome outcome = run_request(text);
      const f64 t = seconds_between(t0, Clock::now());
      const f64 c = process_cpu_seconds() - c0;
      if (first.empty()) {
        first = std::move(outcome.pressure);
        device_norm = outcome.residual_norm;
      } else if (!bitwise_equal(outcome.pressure, first)) {
        ++wrong;
        out.fail_check("request " + std::to_string(n) +
                       ": a repeat differs bitwise from the first result");
      }
      wall.push_back(t);
      cpu.push_back(c);
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail_check(std::string("request threw: ") + e.what());
    }
  }
  // Read before the checks below, whose reference, parallel and oracle
  // solves are the benchmark's own work, not the workload's.
  const f64 rss_mb = peak_rss_mb();

  // Checks, untimed: the reference solve (exact counters), the host CG
  // oracle, and the cross-thread-count contract of the parallel engine.
  // When one fails, every completed request counts as failed.
  Reference ref;
  bool case_ok = !first.empty();
  if (case_ok) {
    try {
      {
        const GuardedCall guard("serial reference solve");
        ref = reference_solve(text, 1);
      }
      if (!bitwise_equal(ref.pressure, first)) {
        case_ok = false;
        out.fail_check("run_scenario differs bitwise from its "
                       "core::solve_dataflow reference");
      }
      if (!check_oracle(text, device_norm, out, "case")) case_ok = false;
      if (w.parallel_threads > 1) {
        const GuardedCall guard("parallel reference solve");
        const Reference par = reference_solve(text, w.parallel_threads);
        const bool same = bitwise_equal(par.pressure, ref.pressure) &&
                          par.device_cycles == ref.device_cycles &&
                          par.fabric == ref.fabric;
        out.notes.push_back("sim_threads " + std::to_string(w.parallel_threads) +
                            (same ? " matches" : " DIFFERS FROM") +
                            " the serial engine in pressure, device_cycles "
                            "and FabricStats");
        if (!same) {
          case_ok = false;
          out.fail_check("parallel engine differs from serial");
        }
      }
    } catch (const std::exception& e) {
      case_ok = false;
      out.fail_check(std::string("reference threw: ") + e.what());
    }
  }
  out.failed += case_ok ? wrong : wall.size();

  out.metric("time_to_solution_s", median(wall), "s");
  out.metric("setup_s", median(setup), "s");
  out.metric("cpu_s", median(cpu), "s");
  out.metric("peak_rss_mb", rss_mb, "MB");
  out.metric("device_cycles", ref.device_cycles, "cycles");
  std::ostringstream os;
  os << wall.size() << " timed request(s), wall s:";
  for (f64 t : wall) os << ' ' << t;
  os << "; setup s:";
  for (f64 t : setup) os << ' ' << t;
  out.notes.push_back(os.str());
}

// ---------------------------------------------------------------------------
// serve-hot-cold: an in-process daemon, three closed-loop clients.

/// Fills every entry of `refs` (keyed by case text) with its serial
/// reference solve, on `threads` threads.
void parallel_references(std::map<std::string, Reference>& refs, u32 threads) {
  std::vector<std::pair<const std::string*, Reference*>> work;
  for (auto& [text, ref] : refs) work.emplace_back(&text, &ref);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  std::vector<std::thread> pool;
  for (u32 t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < work.size(); i = next++) {
        try {
          *work[i].second = reference_solve(*work[i].first, 1);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mutex);
          error = e.what();
        }
      }
    });
  for (std::thread& t : pool) t.join();
  FVDF_CHECK_MSG(error.empty(), "reference solve threw: " << error);
}

struct ServeSample {
  u32 client = 0;
  std::string case_text;
  f64 send = 0; // seconds on the run's clock
  f64 recv = 0;
  f64 setup = 0;
  f64 solve = 0;
  bool hit = false;
  std::string hash;
  bool ok = false;
};

serve::ServerConfig server_config(const std::string& socket_path) {
  serve::ServerConfig config;
  config.socket_path = socket_path;
  config.http_port = -1;
  config.jobs.workers = kServeWorkers;
  return config;
}

/// Daemon construction to the result of its first cold zero-iteration
/// request.
f64 serve_setup_once(const std::string& socket_path, const std::string& text) {
  const auto t0 = Clock::now();
  serve::Server server(server_config(socket_path));
  server.start();
  f64 seconds = 0;
  {
    serve::Client client;
    client.connect(socket_path);
    serve::Client::SolveRequest request;
    request.id = "setup";
    request.case_text = text;
    client.solve(request);
    const serve::JsonValue result = client.wait_result(request.id);
    seconds = seconds_between(t0, Clock::now());
    FVDF_CHECK_MSG(result.get_string("event", "") == "result",
                   "setup request failed: " << result.get_string("message", ""));
  }
  server.request_shutdown();
  server.wait();
  return seconds;
}

void serve_workload(const Workload& w, u64 seed, f64 seconds, bool trace,
                    const std::string& out_dir, const std::string& trace_path,
                    RunResult& out) {
  Rng rng(seed);
  std::vector<CaseSpec> hot_specs;
  std::vector<std::string> hot;
  for (u32 k = 0; k < kHotCases; ++k) {
    hot_specs.push_back(draw_case(rng));
    hot.push_back(case_text(w, hot_specs.back(), w.iterations));
  }
  const std::string sock_prefix =
      out_dir + "/serve-" + std::to_string(::getpid()) + "-";

  std::vector<f64> setup;
  const std::string zero = case_text(w, hot_specs[0], 0);
  const auto measure_setup = [&](u32 first_rep, u32 reps) {
    if (trace) return;
    for (u32 r = first_rep; r < first_rep + reps; ++r) {
      ++out.attempted;
      try {
        const GuardedCall guard("serve setup " + std::to_string(r));
        setup.push_back(serve_setup_once(
            sock_prefix + "s" + std::to_string(r) + ".sock", zero));
      } catch (const std::exception& e) {
        ++out.failed;
        out.fail_check(std::string("serve setup threw: ") + e.what());
      }
    }
  };
  measure_setup(0, kServeSetupReps / 2);

  // Closed loop: each client sends its next request when the previous
  // result arrives.
  const std::string socket_path = sock_prefix + "main.sock";
  serve::Server server(server_config(socket_path));
  server.start();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<f64>(seconds));
  std::vector<std::vector<ServeSample>> per_client(kServeClients);
  std::vector<std::string> client_errors(kServeClients);
  const f64 cpu0 = process_cpu_seconds();
  std::vector<std::thread> clients;
  for (u32 c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Rng mix(seed * 0x9e3779b97f4a7c15ULL + 1000 + c);
        serve::Client client;
        client.connect(socket_path);
        for (u64 n = 0; Clock::now() < deadline; ++n) {
          ServeSample s;
          s.client = c;
          s.case_text = mix.uniform() < kHotShare
                            ? hot[mix.uniform_index(kHotCases)]
                            : case_text(w, draw_case(mix), w.iterations);
          serve::Client::SolveRequest request;
          request.id = "c" + std::to_string(c) + "-" + std::to_string(n);
          request.case_text = s.case_text;
          s.send = seconds_between(t0, Clock::now());
          client.solve(request);
          const serve::JsonValue result = client.wait_result(request.id);
          s.recv = seconds_between(t0, Clock::now());
          s.ok = result.get_string("event", "") == "result";
          if (s.ok) {
            s.setup = result.get_f64("setup_seconds", 0);
            s.solve = result.get_f64("solve_seconds", 0);
            s.hit = result.get_string("cache", "") == "hit";
            s.hash = result.get_string("pressure_hash", "");
          }
          per_client[c].push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        client_errors[c] = e.what();
      }
    });
  }
  std::this_thread::sleep_until(deadline);
  {
    const GuardedCall guard("serve requests in flight at the deadline");
    for (std::thread& t : clients) t.join();
  }
  const f64 loop_wall = seconds_between(t0, Clock::now());
  const f64 loop_cpu = process_cpu_seconds() - cpu0;
  // Read before the reference solves and run_scenario calls below, which
  // are the benchmark's checks, not the daemon's work.
  const f64 rss_mb = peak_rss_mb();
  const serve::CacheStats cache = server.cache().stats();
  const serve::JobStats jobs = server.jobs().stats();
  server.request_shutdown();
  server.wait();
  measure_setup(kServeSetupReps / 2, kServeSetupReps - kServeSetupReps / 2);

  std::vector<ServeSample> samples;
  for (auto& list : per_client)
    for (ServeSample& s : list) samples.push_back(std::move(s));
  for (u32 c = 0; c < kServeClients; ++c)
    if (!client_errors[c].empty()) {
      ++out.attempted;
      ++out.failed;
      out.fail_check("client " + std::to_string(c) + ": " + client_errors[c]);
    }

  // Checks, untimed: every result's pressure_hash against an in-process
  // reference solve of the same case text; the references of the hot
  // cases against app::run_scenario itself and the host CG oracle.
  std::map<std::string, Reference> refs;
  for (const ServeSample& s : samples)
    if (s.ok) refs.emplace(s.case_text, Reference{});
  {
    const GuardedCall guard("serve reference solves");
    parallel_references(refs, kServeWorkers + 1);
  }
  for (const std::string& text : hot) {
    if (refs.count(text) == 0) continue;
    const GuardedCall guard("hot case run_scenario");
    const app::ScenarioOutcome outcome = run_request(text);
    if (pressure_hash(outcome.pressure) != pressure_hash(refs[text].pressure))
      out.fail_check("hot case: reference solve differs from run_scenario");
    check_oracle(text, outcome.residual_norm, out, "hot case");
  }
  std::vector<f64> latency;
  std::vector<f64> cycles;
  u64 completed = 0;
  u64 mismatched = 0;
  for (ServeSample& s : samples) {
    ++out.attempted;
    if (s.ok && s.hash != pressure_hash(refs[s.case_text].pressure)) {
      s.ok = false;
      ++mismatched;
    }
    if (!s.ok) {
      ++out.failed;
      continue;
    }
    ++completed;
    latency.push_back(s.recv - s.send);
    cycles.push_back(refs[s.case_text].device_cycles);
  }
  if (mismatched > 0)
    out.fail_check(std::to_string(mismatched) +
                   " serve result(s) differ from the in-process reference");

  std::vector<f64> hot_lat, cold_lat, solve_all;
  for (const ServeSample& s : samples) {
    if (!s.ok) continue;
    (s.hit ? hot_lat : cold_lat).push_back(s.recv - s.send);
    solve_all.push_back(s.solve);
  }
  const f64 p95 = percentile(latency, 0.95, 10);
  const f64 solves_per_s = loop_wall > 0 ? static_cast<f64>(completed) / loop_wall : 0;
  std::ostringstream os;
  os << completed << " serve request(s) over " << refs.size()
     << " distinct case(s), " << cache.hits << " cache hit(s), " << cache.misses
     << " miss(es); request_p95_s " << p95 << " (" << latency.size()
     << " samples), solves_per_s " << solves_per_s << "; median latency hot "
     << median(hot_lat) << " s, cold " << median(cold_lat)
     << " s; median server solve " << median(solve_all) << " s";
  out.notes.push_back(os.str());

  if (!trace) {
    out.metric("time_to_solution_s", median(latency), "s");
    out.metric("setup_s", median(setup), "s");
    out.metric("cpu_s", completed > 0 ? loop_cpu / static_cast<f64>(completed) : 0,
               "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("device_cycles", median(cycles), "cycles");
    return;
  }

  // Traced: client-side request spans with the server-reported setup and
  // solve durations as children; the remainder of the client latency is
  // queue wait (admission queue, socket and protocol).
  Tracer tracer;
  i64 next_request = 0;
  std::vector<f64> setup_hot, setup_cold, solve, queue;
  std::vector<std::pair<i64, std::map<std::string, f64>>> serve_counts;
  for (const ServeSample& s : samples) {
    if (!s.ok) continue;
    const i64 request = next_request++;
    const f64 lat = s.recv - s.send;
    const f64 q = std::max(0.0, lat - s.setup - s.solve);
    const f64 b = s.send; // the serve loop's clock
    const i64 root = tracer.add("serve.request", b, b + lat, -1, request);
    tracer.add("serve.queue_wait", b, b + q, root, request);
    tracer.add(s.hit ? "serve.setup_hot" : "serve.setup_cold", b + q,
               b + q + s.setup, root, request);
    tracer.add("serve.solve", b + q + s.setup, b + q + s.setup + s.solve, root,
               request);
    (s.hit ? setup_hot : setup_cold).push_back(s.setup);
    solve.push_back(s.solve);
    queue.push_back(q);
    serve_counts.push_back({request,
                            {{"cache_hit", s.hit ? 1.0 : 0.0},
                             {"client", static_cast<f64>(s.client)},
                             {"latency_s", lat}}});
  }
  std::map<std::string, f64> extra;
  const u64 lookups = cache.hits + cache.misses;
  extra["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<f64>(cache.hits) / static_cast<f64>(lookups) : 0;
  extra["serve.cache_misses"] = static_cast<f64>(cache.misses);
  extra["serve.rejected"] = static_cast<f64>(jobs.rejected);
  extra["serve.setup_hot_s"] = median(setup_hot);
  extra["serve.setup_cold_s"] = median(setup_cold);
  extra["serve.solve_s"] = median(solve);
  extra["serve.queue_wait_s"] = median(queue);
  extra["serve.request_p95_s"] = std::isnan(p95) ? 0.0 : p95;
  extra["serve.solves_per_s"] = solves_per_s;

  // The layers below the daemon, on the hot cases in-process.
  TracedRun run;
  traced_groups(hot, kServeTracedSeconds, kHotCases, w.parallel_threads,
                tracer, next_request, out, run);
  layer_metrics(run, tracer, extra, out);
  out.notes.push_back(self_time_shares(tracer, "serve.request"));
  write_trace(trace_path, w, seed, tracer, run, serve_counts);
}

// ---------------------------------------------------------------------------

void print_result(const RunResult& r) {
  telemetry::JsonWriter json;
  json.begin_object()
      .kv("correct", r.checks_ok && r.failed == 0)
      .kv("attempted", r.attempted)
      .kv("failed", r.failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : r.metrics)
    json.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  json.end_object().end_object();
  std::cout << json.take() << std::endl;
}

int usage(const char* why) {
  std::cerr << "fvdf_perfbench: " << why
            << "\nusage: fvdf_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".";
  u64 seed = 0;
  f64 seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") workload_name = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace = std::stoi(value) != 0;
      else if (flag == "--out") out_dir = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!(seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(out_dir);
  set_log_level(LogLevel::Warn);

  const std::string trace_path = out_dir + "/trace-" + workload->name + "-seed" +
                                 std::to_string(seed) + ".json";
  RunResult result;
  try {
    if (workload->serve)
      serve_workload(*workload, seed, seconds, trace, out_dir, trace_path, result);
    else
      solver_workload(*workload, seed, seconds, trace, trace_path, result);
  } catch (const std::exception& e) {
    std::cerr << "fvdf_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cout << "workload " << workload->name << ", seed " << seed << ", "
            << (trace ? "traced" : "untraced") << '\n';
  for (const std::string& note : result.notes) std::cout << "  " << note << '\n';
  if (trace) std::cout << "  spans written to " << trace_path << '\n';
  print_result(result);
  return 0;
}
