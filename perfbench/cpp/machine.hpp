// The machine stamp every result carries: cores, last-level cache, SIMD
// tier of the acquisition sweep, the journal directory's filesystem, and a
// read bandwidth measured in the same run.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct MachineStamp {
  unsigned nproc = 0;
  double llc_mib = 0.0;  // reported last-level cache, 0 when unknown
  std::string simd_tier;
  std::string journal_fs;
  double array_mib = 0.0;  // bytes streamed by the bandwidth probe
  double read_gbps_1t = 0.0;
  double read_gbps_nproc = 0.0;
};

/// Measure read bandwidth in a child process (its buffer never counts
/// toward this process's peak RSS) and collect the rest of the stamp.
/// `dir` is where the journals live. Call before any thread is started.
[[nodiscard]] MachineStamp stamp_machine(const std::string& dir);

/// Print the stamp as detail lines.
void print_stamp(const MachineStamp& m);

}  // namespace perfbench
