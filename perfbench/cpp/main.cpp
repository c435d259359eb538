// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <svc_evict|svc_async|tune_stream>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 prints the end-to-end metrics (nothing wrapped); --trace 1 runs
// untraced and traced halves and prints the per-layer metrics. The last
// stdout line is the JSON result (see report.hpp); `#` lines before it are
// details: the machine stamp, sample counts, tail percentiles, layer sums
// and any failed check. Exit status 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "machine.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

void emit_metrics(const Outcome& o, const MachineStamp& m, bool trace,
                  Result& r) {
  if (!trace) {
    const EndToEnd& e = o.e2e;
    const Timing& t = e.timing;
    r.add("evals_per_s", t.evals_per_s, "1/s");
    r.add("suggest_p50_ms", t.suggest_p50_ms, "ms");
    r.add("setup_s", e.setup_s, "s");
    r.add("peak_rss_mb", e.peak_rss_mb, "MiB");
    r.add("best_y", e.best_y, "objective");
    r.add("ok_frac",
          o.attempted > 0 ? static_cast<double>(o.attempted - o.failed) /
                                static_cast<double>(o.attempted)
                          : 0.0,
          "frac");
    note("timings are medians over " + std::to_string(t.blocks) +
         " blocks (block suggest p50 from " + fmt(t.suggest_p50_min_ms) +
         " to " + fmt(t.suggest_p50_max_ms) + " ms); tails: suggest p" +
         fmt(t.suggest.percentile) +
         " of n>=" + std::to_string(t.suggest.n) + " per block, observe p" +
         fmt(t.observe.percentile) + " of n>=" + std::to_string(t.observe.n) +
         " per block");
    // Not gated: too unsteady on this kind of machine to bound (README).
    note("suggest_tail_ms=" + fmt(t.suggest.value, 6) +
         " ms observe_p50_ms=" + fmt(t.observe_p50_ms, 6) +
         " ms observe_tail_ms=" + fmt(t.observe.value, 6) + " ms");
    return;
  }
  const Layers& L = o.layers;
  // The untraced half's tails and observe latency: reported here, ungated.
  r.add("suggest.tail_ms", o.e2e.timing.suggest.value, "ms");
  r.add("observe.p50_ms", o.e2e.timing.observe_p50_ms, "ms");
  r.add("observe.tail_ms", o.e2e.timing.observe.value, "ms");
  r.add("service.handle_ms.suggest", L.handle_suggest_ms, "ms");
  r.add("service.handle_ms.observe", L.handle_observe_ms, "ms");
  r.add("service.transport_ms.suggest", L.transport_suggest_ms, "ms");
  r.add("service.transport_ms.observe", L.transport_observe_ms, "ms");
  r.add("service.bytes_per_verb", L.bytes_per_verb, "B");
  r.add("service.status_verb_ms", L.status_verb_ms, "ms");
  r.add("manager.resumes_per_verb", L.resumes_per_verb, "count");
  r.add("manager.evictions_per_verb", L.evictions_per_verb, "count");
  r.add("manager.build_ms", L.build_ms, "ms");
  r.add("manager.teardown_ms", L.teardown_ms, "ms");
  r.add("manager.resume_verb_ms", L.resume_verb_ms, "ms");
  r.add("manager.hot_verb_ms", L.hot_verb_ms, "ms");
  r.add("journal.syncs_per_verb.create", L.syncs_create, "count");
  r.add("journal.syncs_per_verb.suggest", L.syncs_suggest, "count");
  r.add("journal.syncs_per_verb.observe", L.syncs_observe, "count");
  r.add("journal.syncs_per_verb.close", L.syncs_close, "count");
  r.add("journal.bytes_per_eval", L.journal_bytes_per_eval, "B");
  r.add("journal.sync_ms", L.journal_sync_ms, "ms");
  r.add("journal.read_ms", L.journal_read_ms, "ms");
  r.add("journal.reopen_ms", L.journal_reopen_ms, "ms");
  r.add("tuner.suggest_ms", L.tuner_suggest_ms, "ms");
  r.add("tuner.observe_ms", L.tuner_observe_ms, "ms");
  r.add("tuner.replay_ms", L.tuner_replay_ms, "ms");
  r.add("tuner.replay_ratio", L.replay_ratio, "ratio");
  r.add("tuner.first_fit_ms", L.first_fit_ms, "ms");
  r.add("hiperbot.fit_ms", L.fit_ms, "ms");
  r.add("hiperbot.sweep_ms", L.sweep_ms, "ms");
  r.add("hiperbot.table_build_ms", L.table_build_ms, "ms");
  r.add("sweep.candidates_per_suggest", L.candidates_per_suggest, "count");
  r.add("sweep.ns_per_candidate", L.ns_per_candidate, "ns");
  r.add("sweep.bytes_per_candidate", L.bytes_per_candidate, "B");
  r.add("sweep.gbps", L.sweep_gbps, "GB/s");
  r.add("machine.read_gbps.1t", m.read_gbps_1t, "GB/s");
  r.add("machine.read_gbps.nproc", m.read_gbps_nproc, "GB/s");
  r.add("machine.nproc", m.nproc, "count");
  r.add("space.enumerate_s", L.enumerate_s, "s");
  r.add("stream.valid_frac", L.valid_frac, "frac");
  r.add("stream.pass_ms", L.pass_ms, "ms");
  r.add("trace.unattributed_ms.suggest", L.unattributed_suggest_ms, "ms");
  r.add("trace.unattributed_ms.observe", L.unattributed_observe_ms, "ms");
  r.add("trace.overhead_frac", L.overhead_frac, "frac");
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<svc_evict|svc_async|tune_stream> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty() || value[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + value + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool seen[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value);
      seen[1] = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(flag, value));
      seen[2] = opt.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
      seen[3] = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
      seen[4] = !value.empty();
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (const bool s : seen) {
    if (!s) {
      usage("every flag is required (--seconds must be positive)");
    }
  }
  if (opt.workload != "svc_evict" && opt.workload != "svc_async" &&
      opt.workload != "tune_stream") {
    usage("unknown workload '" + opt.workload + "'");
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // Session names repeat from run to run, so journals must start empty.
  if (std::filesystem::exists(opt.work_dir) &&
      !std::filesystem::is_empty(opt.work_dir)) {
    usage("--work-dir '" + opt.work_dir + "' must be new or empty");
  }
  std::filesystem::create_directories(opt.work_dir);
  // First, while the process is still single-threaded: the stamp forks.
  const MachineStamp machine = stamp_machine(opt.work_dir);
  note("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
       " seconds=" + fmt(opt.seconds) + " trace=" + (opt.trace ? "1" : "0"));
  print_stamp(machine);
  Result result;
  try {
    const bool service =
        opt.workload == "svc_evict" || opt.workload == "svc_async";
    const Outcome outcome =
        service ? run_service(opt, opt.workload == "svc_async", result)
                : run_tune(opt, result);
    result.attempted = outcome.attempted;
    result.failed = outcome.failed;
    note("attempted=" + std::to_string(outcome.attempted) +
         " failed=" + std::to_string(outcome.failed) + " failed_frac=" +
         fmt(outcome.attempted > 0
                 ? static_cast<double>(outcome.failed) /
                       static_cast<double>(outcome.attempted)
                 : 0.0) +
         " frac");
    if (outcome.failed > 0) {
      result.fail_check(std::to_string(outcome.failed) +
                        " verbs or suggests failed or were refused");
    }
    emit_metrics(outcome, machine, opt.trace, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
