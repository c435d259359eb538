// Result assembly: percentiles, the metric list, and the output format.
//
// Standard output carries human-readable `# ...` detail lines first and,
// as its last line, one JSON object:
//   {"correct":true,"attempted":N,"failed":M,"metrics":{"name":
//    {"value":V,"unit":"U"},...}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// hpb::stats::quantile (p in [0, 1], linear interpolation between order
/// statistics), but 0 for an empty sample: a layer a workload does not run
/// reports 0.
[[nodiscard]] double quantile(const std::vector<double>& values, double p);
[[nodiscard]] double median(const std::vector<double>& values);

/// The highest percentile of a ladder (99, 95, 90, 75, 50) that still has
/// at least ten samples beyond it, with the sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

/// End-to-end timing of one run.
struct Timing {
  double evals_per_s = 0.0;
  double suggest_p50_ms = 0.0;
  Tail suggest;  // n is the smallest block's sample count
  double observe_p50_ms = 0.0;
  Tail observe;
  std::size_t blocks = 0;
  double suggest_p50_min_ms = 0.0;  // fastest and slowest block
  double suggest_p50_max_ms = 0.0;
};

/// Timing over whole units of work (a storm, a tuning loop), one block per
/// unit. Each block gives its own p50s, tails and rate, and the run reports
/// the median over blocks, so a burst of interference on a shared machine
/// moves a few blocks rather than the result. Only per-block summaries are
/// kept, so the benchmark's own memory does not grow with run length.
class Blocks {
 public:
  /// One unit: its suggest and observe latencies and its evaluation rate.
  void add(const std::vector<double>& suggest_ms,
           const std::vector<double>& observe_ms, double evals_per_s);
  [[nodiscard]] Timing summarize() const;

 private:
  struct Block {
    double rate = 0.0;
    double suggest_p50 = 0.0;
    Tail suggest;
    double observe_p50 = 0.0;
    Tail observe;
  };
  std::vector<Block> blocks_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed correctness check (printed as a detail line).
  void fail_check(const std::string& what);
};

/// Print one `# ...` detail line.
void note(const std::string& line);

/// Print the final JSON line.
void print_result(const Result& result);

/// VmHWM of this process in MiB (peak resident set).
[[nodiscard]] double peak_rss_mb();

/// Order-sensitive FNV-1a fold of doubles' bit patterns, for comparing
/// suggestion sequences bit for bit.
class SequenceHash {
 public:
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string fmt(double value, int precision = 4);

}  // namespace perfbench
