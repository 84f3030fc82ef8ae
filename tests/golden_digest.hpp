#pragma once
// Golden digests of device solves: FNV-1a 64 (common/serialize.hpp) over
// everything a solve reports, pinned as constants in the tests. The
// constants were recorded while two independent implementations of the CG
// and Chebyshev device programs (C++ callback state machines and the
// bytecode lowering) both ran every case and agreed bit for bit, so they
// carry that cross-check forward; the f64 host CG oracle
// (solve_pressure_host) stays the independent numerical reference.
//
// A digest is two halves so every build configuration checks what it
// computes:
//   result    — pressure and delta bytes, iterations, converged, the bits
//               of final_rr and device_cycles, every FabricStats field and
//               the op-ledger summary;
//   telemetry — the residual history and the Metrics-level phase cycles,
//               both recorded through the fabric's telemetry hooks, which
//               compile out under -DFVDF_TELEMETRY=OFF (checked only when
//               they are compiled in).
// A mismatch prints both halves in the form the tables below use, so a
// deliberate change to the device programs re-records by copying them.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "core/solver.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/session.hpp"

namespace fvdf::golden {

struct Digest {
  u64 result = 0;
  u64 telemetry = 0;
};

/// One solve plus the phase cycles of the Metrics session attached to it.
struct Solve {
  core::DataflowResult result;
  std::array<f64, telemetry::kNumPhases> phases{};
};

template <class T> u64 feed(u64 hash, const T& value) {
  return fnv1a64(&value, sizeof(T), hash);
}

template <class T> u64 feed(u64 hash, const std::vector<T>& values) {
  hash = feed(hash, static_cast<u64>(values.size()));
  return values.empty()
             ? hash
             : fnv1a64(values.data(), values.size() * sizeof(T), hash);
}

inline Digest digest(const Solve& solve) {
  constexpr u64 kBasis = 14695981039346656037ull;
  const core::DataflowResult& r = solve.result;
  u64 h = kBasis;
  h = feed(h, r.pressure);
  h = feed(h, r.delta);
  h = feed(h, r.iterations);
  h = feed(h, static_cast<u8>(r.converged));
  h = feed(h, r.final_rr);
  h = feed(h, r.device_cycles);
  const wse::FabricStats& f = r.fabric;
  for (u64 field : {f.messages_sent, f.wavelet_hops, f.word_hops,
                    f.words_delivered, f.words_dropped, f.control_wavelets,
                    f.tasks_run, f.events_processed, f.flits_stalled})
    h = feed(h, field);
  const std::string ledger = r.counters.summary();
  h = feed(h, std::vector<char>(ledger.begin(), ledger.end()));

  u64 t = feed(kBasis, r.residual_history);
  for (f64 cycles : solve.phases) t = feed(t, cycles);
  return {h, t};
}

inline std::string to_string(const Digest& d) {
  return "{0x" + hash_hex(d.result) + "ull, 0x" + hash_hex(d.telemetry) +
         "ull}";
}

inline Solve solve_cg(const FlowProblem& problem, core::DataflowConfig config) {
  telemetry::Session session({telemetry::Level::Metrics});
  config.telemetry = &session;
  Solve out;
  out.result = core::solve_dataflow(problem, config);
  out.phases = session.reference_phase_cycles();
  return out;
}

inline Solve solve_chebyshev(const FlowProblem& problem,
                             core::ChebyshevDeviceConfig config) {
  telemetry::Session session({telemetry::Level::Metrics});
  config.telemetry = &session;
  Solve out;
  out.result = core::solve_dataflow_chebyshev(problem, config);
  out.phases = session.reference_phase_cycles();
  return out;
}

inline void expect_digest(const Solve& solve, const Digest& golden,
                          const std::string& label) {
  const Digest got = digest(solve);
  EXPECT_EQ(got.result, golden.result)
      << label << ": result digest " << to_string(got);
#ifndef FVDF_TELEMETRY_DISABLED
  EXPECT_EQ(got.telemetry, golden.telemetry)
      << label << ": telemetry digest " << to_string(got);
#endif
}

} // namespace fvdf::golden
