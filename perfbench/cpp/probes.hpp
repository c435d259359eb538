// Layer probes the benchmark owns: wrappers around the public entry points
// of the tuner and the session factory. Nothing here reaches inside src/;
// every number is a timing of a call the benchmark makes or wraps.
//
//   ProbedTuner    Tuner decorator. Times every call into the wrapped tuner
//                  and installs a capturing trace sink on it through the
//                  public Tuner::set_recorder hook, so the tuner's own
//                  hiperbot.sweep spans land here.
//   probed_factory SessionFactory wrapper: times the factory call (pool
//                  copy + tuner constructor) and wraps the tuner it returns.
//
// Calls are recorded into the calling thread's current CallLog (see
// ScopedCallLog). The daemon runs a verb on one connection thread from
// handle_line to the response, so a log opened around handle_line sees
// exactly that verb's factory call, replay and live tuner calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session_manager.hpp"
#include "core/tuner.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// One hiperbot.sweep span as the tuner emitted it.
struct SweepSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t table_build_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t pool = 0;         // pooled sweeps: candidates in the pool
  std::uint64_t pass = 0;         // streamed sweeps: pass index
  std::uint64_t pass_length = 0;  // streamed sweeps: raw indices per pass
  bool streamed = false;
};

enum class CallKind { kSuggest, kObserve, kOther };

/// One timed call into a wrapped tuner.
struct TunerCall {
  CallKind kind = CallKind::kOther;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool has_sweep = false;
  SweepSpan sweep;
  /// The first call of this tuner instance that swept (its first fit after
  /// the initial design, which also builds the lazy pool columns).
  bool first_fit = false;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// Everything the probes saw on one thread while the log was open.
struct CallLog {
  std::vector<TunerCall> calls;
  std::vector<std::uint64_t> factory_ns;   // one entry per factory call
  std::vector<std::uint64_t> teardown_ns;  // one entry per tuner destroyed
};

/// Opens `log` as the current thread's call log for the guard's lifetime.
class ScopedCallLog {
 public:
  explicit ScopedCallLog(CallLog& log);
  ~ScopedCallLog();
  ScopedCallLog(const ScopedCallLog&) = delete;
  ScopedCallLog& operator=(const ScopedCallLog&) = delete;

 private:
  CallLog* previous_ = nullptr;
};

/// Monotonic nanoseconds on the same clock the tuner stamps its spans with.
[[nodiscard]] std::uint64_t now_ns();

/// Tuner decorator: forwards every call unchanged and records its timing
/// into the thread's call log (calls made with no log open are forwarded
/// but not recorded). Its destructor times the wrapped tuner's teardown,
/// which the daemon pays when it evicts or closes a session.
class ProbedTuner final : public hpb::core::Tuner {
 public:
  explicit ProbedTuner(std::unique_ptr<hpb::core::Tuner> inner);
  ~ProbedTuner() override;

  [[nodiscard]] hpb::space::Configuration suggest() override;
  void observe(const hpb::space::Configuration& config, double y) override;
  void observe_failure(const hpb::space::Configuration& config,
                       hpb::core::EvalStatus status) override;
  void abandon(const hpb::space::Configuration& config) override;
  [[nodiscard]] std::vector<hpb::space::Configuration> suggest_batch(
      std::size_t k) override;
  void observe_batch(
      std::span<const hpb::core::Observation> observations) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  class CaptureSink;

  /// Point the inner tuner at the capture sink, keeping whatever metrics
  /// registry its owner installed on this decorator.
  void arm();
  void record(CallKind kind, std::uint64_t start_ns);

  std::unique_ptr<hpb::core::Tuner> inner_;
  std::unique_ptr<CaptureSink> sink_;
  hpb::obs::Recorder inner_recorder_;
  bool swept_before_ = false;
};

/// Wrap `inner` so every factory call is timed and every tuner it builds is
/// a ProbedTuner.
[[nodiscard]] hpb::core::SessionFactory probed_factory(
    hpb::core::SessionFactory inner);

}  // namespace perfbench
