#include "layers.hpp"

namespace perfbench {

double sweep_bytes_per_candidate(std::size_t num_params) {
  return 4.0 * static_cast<double>(num_params) + 8.0;
}

void fill_tuner_layers(const std::vector<TunerCall>& calls,
                       std::size_t num_params, Layers& out) {
  std::vector<double> first_fit, fit, sweep, table, candidates, ns_per;
  for (const TunerCall& c : calls) {
    if (!c.has_sweep) {
      continue;
    }
    if (c.first_fit) {
      first_fit.push_back(c.ms());
    }
    fit.push_back(static_cast<double>(c.sweep.start_ns - c.start_ns) * 1e-6);
    sweep.push_back(static_cast<double>(c.sweep.end_ns - c.sweep.start_ns) *
                    1e-6);
    table.push_back(static_cast<double>(c.sweep.table_build_ns) * 1e-6);
    if (!c.sweep.streamed && c.sweep.pool > 0) {
      candidates.push_back(static_cast<double>(c.sweep.pool));
      ns_per.push_back(static_cast<double>(c.sweep.sweep_ns) /
                       static_cast<double>(c.sweep.pool));
    }
  }
  out.first_fit_ms = median(first_fit);
  out.fit_ms = median(fit);
  out.sweep_ms = median(sweep);
  out.table_build_ms = median(table);
  out.candidates_per_suggest = median(candidates);
  out.ns_per_candidate = median(ns_per);
  out.bytes_per_candidate = sweep_bytes_per_candidate(num_params);
  out.sweep_gbps = out.ns_per_candidate > 0.0
                       ? out.bytes_per_candidate / out.ns_per_candidate
                       : 0.0;
}

}  // namespace perfbench
