// The three workloads and the metric set they all report.
#pragma once

#include <cstdint>
#include <string>

#include "machine.hpp"
#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets and journals (inside the checkout, so
  /// journals sit on the repository's filesystem with fsync on).
  std::string work_dir;
};

/// End-to-end metrics (reported with --trace 0). Measured with no probe
/// installed anywhere.
struct EndToEnd {
  Timing timing;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double best_y = 0.0;
};

/// Per-layer metrics (reported with --trace 1). A layer a workload does not
/// run reports 0; README.md says which workload moves which metric.
struct Layers {
  double handle_suggest_ms = 0, handle_observe_ms = 0;
  double transport_suggest_ms = 0, transport_observe_ms = 0;
  double bytes_per_verb = 0;
  double resumes_per_verb = 0, evictions_per_verb = 0;
  double build_ms = 0, teardown_ms = 0, resume_verb_ms = 0, hot_verb_ms = 0;
  double status_verb_ms = 0;
  double syncs_create = 0, syncs_suggest = 0, syncs_observe = 0,
         syncs_close = 0;
  double journal_bytes_per_eval = 0, journal_sync_ms = 0, journal_read_ms = 0;
  double journal_reopen_ms = 0;
  double tuner_suggest_ms = 0, tuner_observe_ms = 0, tuner_replay_ms = 0;
  double replay_ratio = 0, first_fit_ms = 0;
  double fit_ms = 0, sweep_ms = 0, table_build_ms = 0;
  double candidates_per_suggest = 0, ns_per_candidate = 0;
  double bytes_per_candidate = 0, sweep_gbps = 0;
  double enumerate_s = 0, valid_frac = 0, pass_ms = 0;
  double unattributed_suggest_ms = 0, unattributed_observe_ms = 0;
  double overhead_frac = 0;
};

/// Counts behind the result line's attempted / failed fields.
struct Outcome {
  EndToEnd e2e;
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// svc_evict (async = false) and svc_async (async = true).
[[nodiscard]] Outcome run_service(const Options& opt, bool async,
                                  Result& checks);

/// tune_stream.
[[nodiscard]] Outcome run_tune(const Options& opt, Result& checks);

/// Fill `result` with the end-to-end or the per-layer metrics.
void emit_metrics(const Outcome& outcome, const MachineStamp& machine,
                  bool trace, Result& result);

}  // namespace perfbench
