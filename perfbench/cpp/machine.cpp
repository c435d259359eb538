#include "machine.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t sum_range(const std::uint64_t* data, std::size_t n) {
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a += data[i];
    b += data[i + 1];
    c += data[i + 2];
    d += data[i + 3];
  }
  for (; i < n; ++i) {
    a += data[i];
  }
  return a + b + c + d;
}

/// Best-of-three GB/s for summing the whole array on `threads` threads.
double read_gbps(const std::vector<std::uint64_t>& array, unsigned threads,
                 std::uint64_t& sink) {
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<std::uint64_t> partial(threads, 0);
    const std::size_t slice = array.size() / threads;
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      const std::size_t begin = t * slice;
      const std::size_t end = t + 1 == threads ? array.size() : begin + slice;
      workers.emplace_back([&, t, begin, end] {
        partial[t] = sum_range(array.data() + begin, end - begin);
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (const std::uint64_t p : partial) {
      sink += p;
    }
    best = std::max(best, static_cast<double>(array.size() * 8) / s * 1e-9);
  }
  return best;
}

/// Filesystem type of the mount holding `dir`, from this process's own
/// mount table (longest mount-point prefix wins).
std::string filesystem_of(const std::string& dir) {
  char resolved[PATH_MAX];
  if (::realpath(dir.c_str(), resolved) == nullptr) {
    return "unknown";
  }
  const std::string path(resolved);
  std::ifstream in("/proc/self/mountinfo");
  std::string line;
  std::string best_mount;
  std::string best_type = "unknown";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, parent, devno, root, mount;
    fields >> id >> parent >> devno >> root >> mount;
    const std::size_t dash = line.find(" - ");
    if (dash == std::string::npos) {
      continue;
    }
    std::istringstream tail(line.substr(dash + 3));
    std::string type;
    tail >> type;
    const bool prefix =
        path == mount ||
        (path.rfind(mount, 0) == 0 &&
         (mount == "/" ||
         (path.size() > mount.size() && path[mount.size()] == '/')));
    if (prefix && mount.size() >= best_mount.size()) {
      best_mount = mount;
      best_type = type;
    }
  }
  return best_type;
}

}  // namespace

MachineStamp stamp_machine(const std::string& dir) {
  MachineStamp m;
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  m.llc_mib = llc > 0 ? static_cast<double>(llc) / (1 << 20) : 0.0;
  m.simd_tier = std::string(hpb::core::simd_tier_name(
      hpb::core::active_simd_tier()));
  m.journal_fs = filesystem_of(dir);
  // Twice the reported LLC, so most of each pass comes from memory, capped
  // to keep the probe small on a shared machine.
  const double want_mib = std::clamp(2.0 * m.llc_mib, 64.0, 512.0);
  const std::size_t words =
      static_cast<std::size_t>(want_mib * (1 << 20)) / sizeof(std::uint64_t);
  m.array_mib = static_cast<double>(words * 8) / (1 << 20);

  int fds[2];
  if (::pipe(fds) != 0) {
    return m;
  }
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(fds[0]);
    std::vector<std::uint64_t> array(words);
    for (std::size_t i = 0; i < words; ++i) {
      array[i] = i;
    }
    std::uint64_t sink = 0;
    double out[3] = {read_gbps(array, 1, sink), read_gbps(array, m.nproc, sink),
                     static_cast<double>(sink & 1)};
    const ssize_t n = ::write(fds[1], out, sizeof(out));
    ::_exit(n == static_cast<ssize_t>(sizeof(out)) ? 0 : 1);
  }
  ::close(fds[1]);
  if (child > 0) {
    double in[3] = {0.0, 0.0, 0.0};
    if (::read(fds[0], in, sizeof(in)) == static_cast<ssize_t>(sizeof(in))) {
      m.read_gbps_1t = in[0];
      m.read_gbps_nproc = in[1];
    }
    ::waitpid(child, nullptr, 0);
  }
  ::close(fds[0]);
  return m;
}

void print_stamp(const MachineStamp& m) {
  note("machine: nproc=" + std::to_string(m.nproc) +
       " llc_mib=" + fmt(m.llc_mib) + " simd_tier=" + m.simd_tier +
       " journal_fs=" + m.journal_fs);
  note("machine: read bandwidth " + fmt(m.read_gbps_1t) + " GB/s at 1 thread, " +
       fmt(m.read_gbps_nproc) + " GB/s at " + std::to_string(m.nproc) +
       " threads, over a " + fmt(m.array_mib) + " MiB array (" +
       fmt(m.llc_mib > 0 ? m.array_mib / m.llc_mib : 0.0, 3) +
       "x the reported LLC)");
}

}  // namespace perfbench
