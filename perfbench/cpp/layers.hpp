// Per-layer numbers shared by the service and tune workloads: the tuner
// and acquisition layers as seen through ProbedTuner call records.
#pragma once

#include <cstddef>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Fill the tuner.first_fit, hiperbot.* and sweep.* fields from every call
/// that swept (live and replayed alike). Pooled sweeps take their candidate
/// count from the span; streamed workloads overwrite the sweep.* fields
/// with their shadow-pass counts.
void fill_tuner_layers(const std::vector<TunerCall>& calls,
                       std::size_t num_params, Layers& out);

/// Computed bytes one candidate costs the pooled sweep: a 4-byte level
/// column per parameter plus the 8-byte ordinal used for exclusion.
[[nodiscard]] double sweep_bytes_per_candidate(std::size_t num_params);

}  // namespace perfbench
