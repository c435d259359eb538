#include "probes.hpp"

#include <string_view>
#include <utility>

#include "obs/clock.hpp"

namespace perfbench {
namespace {

thread_local CallLog* t_log = nullptr;

}  // namespace

ScopedCallLog::ScopedCallLog(CallLog& log) : previous_(t_log) {
  t_log = &log;
}

ScopedCallLog::~ScopedCallLog() { t_log = previous_; }

std::uint64_t now_ns() { return hpb::obs::SystemClock::instance().now_ns(); }

/// Keeps the last hiperbot.sweep span the tuner emitted. A tuner instance
/// is driven by one thread at a time (the session's verb lock, or the
/// in-process loop), so no locking is needed.
class ProbedTuner::CaptureSink final : public hpb::obs::TraceSink {
 public:
  [[nodiscard]] std::uint64_t next_id() override { return ++next_id_; }

  void emit(const hpb::obs::TraceEvent& event) override {
    if (event.name != "hiperbot.sweep") {
      return;
    }
    SweepSpan s;
    s.start_ns = event.start_ns;
    s.end_ns = event.end_ns;
    for (const hpb::obs::TraceAttr& a : event.attrs) {
      if (a.key == "table_build_ns") {
        s.table_build_ns = a.uint_value;
      } else if (a.key == "sweep_ns") {
        s.sweep_ns = a.uint_value;
      } else if (a.key == "pool") {
        s.pool = a.uint_value;
      } else if (a.key == "pass") {
        s.pass = a.uint_value;
      } else if (a.key == "pass_length") {
        s.pass_length = a.uint_value;
      } else if (a.key == "mode") {
        s.streamed = a.string_value == "stream";
      }
    }
    last = s;
    fresh = true;
  }

  SweepSpan last;
  bool fresh = false;

 private:
  std::uint64_t next_id_ = 0;
};

ProbedTuner::ProbedTuner(std::unique_ptr<hpb::core::Tuner> inner)
    : inner_(std::move(inner)), sink_(std::make_unique<CaptureSink>()) {
  arm();
}

ProbedTuner::~ProbedTuner() {
  const std::uint64_t start = now_ns();
  inner_.reset();
  if (t_log != nullptr) {
    t_log->teardown_ns.push_back(now_ns() - start);
  }
}

void ProbedTuner::arm() {
  inner_recorder_.trace = sink_.get();
  inner_recorder_.metrics = recorder_ != nullptr ? recorder_->metrics : nullptr;
  inner_->set_recorder(&inner_recorder_);
  sink_->fresh = false;
}

void ProbedTuner::record(CallKind kind, std::uint64_t start_ns) {
  const std::uint64_t end = now_ns();
  if (t_log == nullptr) {
    return;
  }
  TunerCall call;
  call.kind = kind;
  call.start_ns = start_ns;
  call.end_ns = end;
  if (sink_->fresh) {
    call.has_sweep = true;
    call.sweep = sink_->last;
    call.first_fit = !swept_before_;
    swept_before_ = true;
  }
  t_log->calls.push_back(call);
}

hpb::space::Configuration ProbedTuner::suggest() {
  arm();
  const std::uint64_t start = now_ns();
  hpb::space::Configuration c = inner_->suggest();
  record(CallKind::kSuggest, start);
  return c;
}

void ProbedTuner::observe(const hpb::space::Configuration& config, double y) {
  arm();
  const std::uint64_t start = now_ns();
  inner_->observe(config, y);
  record(CallKind::kObserve, start);
}

void ProbedTuner::observe_failure(const hpb::space::Configuration& config,
                                  hpb::core::EvalStatus status) {
  arm();
  const std::uint64_t start = now_ns();
  inner_->observe_failure(config, status);
  record(CallKind::kObserve, start);
}

void ProbedTuner::abandon(const hpb::space::Configuration& config) {
  arm();
  const std::uint64_t start = now_ns();
  inner_->abandon(config);
  record(CallKind::kOther, start);
}

std::vector<hpb::space::Configuration> ProbedTuner::suggest_batch(
    std::size_t k) {
  arm();
  const std::uint64_t start = now_ns();
  std::vector<hpb::space::Configuration> batch = inner_->suggest_batch(k);
  record(CallKind::kSuggest, start);
  return batch;
}

void ProbedTuner::observe_batch(
    std::span<const hpb::core::Observation> observations) {
  arm();
  const std::uint64_t start = now_ns();
  inner_->observe_batch(observations);
  record(CallKind::kObserve, start);
}

hpb::core::SessionFactory probed_factory(hpb::core::SessionFactory inner) {
  return [inner = std::move(inner)](const hpb::core::SessionSpec& spec) {
    const std::uint64_t start = now_ns();
    hpb::core::SessionBackend backend = inner(spec);
    backend.tuner = std::make_unique<ProbedTuner>(std::move(backend.tuner));
    if (t_log != nullptr) {
      t_log->factory_ns.push_back(now_ns() - start);
    }
    return backend;
  };
}

}  // namespace perfbench
