#include "report.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json_util.hpp"
#include "stats/quantile.hpp"

namespace perfbench {

double quantile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : hpb::stats::quantile(values, p);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

Tail tail_of(const std::vector<double>& values) {
  Tail t;
  t.n = values.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - p / 100);
    if (beyond >= 10.0 || p == 50.0) {
      t.percentile = p;
      t.value = quantile(values, p / 100);
      return t;
    }
  }
  return t;
}

void Blocks::add(const std::vector<double>& suggest_ms,
                 const std::vector<double>& observe_ms, double evals_per_s) {
  blocks_.push_back({evals_per_s, median(suggest_ms), tail_of(suggest_ms),
                     median(observe_ms), tail_of(observe_ms)});
}

Timing Blocks::summarize() const {
  Timing t;
  t.blocks = blocks_.size();
  if (blocks_.empty()) {
    return t;
  }
  t.suggest.n = t.observe.n = static_cast<std::size_t>(-1);
  std::vector<double> rate, s50, stail, o50, otail;
  for (const Block& b : blocks_) {
    rate.push_back(b.rate);
    s50.push_back(b.suggest_p50);
    o50.push_back(b.observe_p50);
    stail.push_back(b.suggest.value);
    otail.push_back(b.observe.value);
    // Units of one workload are the same size, so their tails share a
    // percentile; the stated n is the smallest block's.
    if (b.suggest.n < t.suggest.n) {
      t.suggest = b.suggest;
    }
    if (b.observe.n < t.observe.n) {
      t.observe = b.observe;
    }
  }
  t.suggest_p50_min_ms = quantile(s50, 0.0);
  t.suggest_p50_max_ms = quantile(s50, 1.0);
  t.evals_per_s = median(rate);
  t.suggest_p50_ms = median(s50);
  t.suggest.value = median(stail);
  t.observe_p50_ms = median(o50);
  t.observe.value = median(otail);
  return t;
}

void Result::fail_check(const std::string& what) {
  correct = false;
  note("CHECK FAILED: " + what);
}

void note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void print_result(const Result& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) {
      out += ',';
    }
    out += "\"" + m.name + "\":{\"value\":" + hpb::obs::json_double(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void SequenceHash::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

void SequenceHash::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

}  // namespace perfbench
