#include "core/session.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace hpb::core {

namespace {

void validate_config(const SessionConfig& config) {
  HPB_REQUIRE(config.stop.min_relative_improvement >= 0.0,
              "Session: min_relative_improvement must be >= 0");
}

}  // namespace

Session::Session(Tuner& tuner, SessionConfig config, JournalWriter* journal)
    : config_(std::move(config)), tuner_(&tuner), journal_(journal) {
  validate_config(config_);
}

Session::Session(std::unique_ptr<Tuner> tuner, SessionConfig config,
                 std::unique_ptr<JournalWriter> journal)
    : config_(std::move(config)),
      tuner_(tuner.get()),
      journal_(journal.get()),
      owned_tuner_(std::move(tuner)),
      owned_journal_(std::move(journal)) {
  HPB_REQUIRE(tuner_ != nullptr, "Session: tuner must not be null");
  validate_config(config_);
  // An owned tuner lives exactly as long as the session, so the recorder
  // pointer (into config_) can never dangle for it.
  if (config_.recorder.active()) {
    tuner_->set_recorder(&config_.recorder);
  }
}

void Session::require_open(const char* verb) const {
  HPB_REQUIRE(!finished_, std::string("Session::") + verb +
                              ": session is closed");
  // Degraded = the journal can no longer be appended (disk fault), so any
  // further mutation would silently diverge from the durable state. The
  // session stays readable (status) and resumable after a restart; only
  // mutations are refused.
  HPB_REQUIRE(!degraded_,
              std::string("Session::") + verb +
                  ": session is degraded (journal append failed: " +
                  degraded_reason_ +
                  "); status and checkpoint remain available, restart the "
                  "daemon with a healthy disk to resume from the journal");
}

template <typename F>
void Session::journal_op(const char* what, F&& op) {
  try {
    op();
  } catch (const IoError& e) {
    degraded_ = true;
    degraded_reason_ = e.what();
    throw Error(std::string("session journal ") + what + " failed: " +
                e.what() + "; the session is now degraded (read-only) — "
                "its durable journal prefix is still valid for resume");
  }
}

void Session::reserve(std::size_t n) {
  result_.history.reserve(n);
  result_.best_so_far.reserve(n);
}

std::vector<Suggestion> Session::suggest(std::size_t k) {
  require_open("suggest");
  HPB_REQUIRE(k > 0, "Session::suggest: k must be positive");
  const bool sync = config_.mode == SessionMode::kSync;
  HPB_REQUIRE(!sync || outstanding_.empty(),
              "Session::suggest: a round of " +
                  std::to_string(outstanding_.size()) +
                  " suggestions is already in flight; observe it first");
  // Shed before any state changes: an unbounded outstanding set is how a
  // confused client (suggest in a loop, observe never) runs the daemon
  // out of memory and the TPE fit out of usefulness. Sync rounds are
  // naturally bounded by one batch.
  if (!sync && config_.max_pending > 0 &&
      outstanding_.size() + k > config_.max_pending) {
    throw OverloadError(
        "Session::suggest: " + std::to_string(outstanding_.size()) +
        " tokens are already outstanding and " + std::to_string(k) +
        " more would exceed the per-session pending cap of " +
        std::to_string(config_.max_pending) +
        "; observe or cancel outstanding tokens first");
  }
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  // The round span id is allocated before any child span so children can
  // point at it; the span record itself is emitted from observe(), when
  // its duration is known.
  if (sync) {
    round_id_ = tracing ? rec.trace->next_id() : 0;
    round_start_ = tracing ? rec.now_ns() : 0;
    round_requested_ = k;
  }
  const std::uint64_t start = tracing ? rec.now_ns() : 0;
  std::vector<space::Configuration> batch = tuner_->suggest_batch(k);
  HPB_REQUIRE(!batch.empty(), "Session: tuner returned an empty batch");
  HPB_REQUIRE(batch.size() <= k,
              "Session: tuner returned more configurations than asked");
  if (sync && tracing) {
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("requested", k),
        obs::TraceAttr::uint("actual", batch.size())};
    rec.trace->emit({.name = "suggest",
                     .id = rec.trace->next_id(),
                     .parent = round_id_,
                     .start_ns = start,
                     .end_ns = rec.now_ns(),
                     .attrs = attrs});
  }
  // Write-ahead: the round marker / ask line is durable before any result
  // can exist (a crash mid-round leaves an incomplete round the reader
  // drops and re-evaluates) and before any token escapes to a client (the
  // journal's outstanding set covers every token a client could hold).
  if (journal_ != nullptr) {
    journal_op("begin", [&] { journal_->begin(k, next_token_, batch); });
  }
  std::vector<Suggestion> suggestions;
  suggestions.reserve(batch.size());
  for (space::Configuration& c : batch) {
    outstanding_.emplace(next_token_, c);
    suggestions.push_back({next_token_, std::move(c)});
    ++next_token_;
  }
  if (sync) {
    return suggestions;
  }
  if (tracing) {
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("requested", k),
        obs::TraceAttr::uint("actual", suggestions.size()),
        obs::TraceAttr::uint("first_token", suggestions.front().token),
        obs::TraceAttr::uint("outstanding", outstanding_.size())};
    rec.trace->emit({.name = "ask",
                     .id = rec.trace->next_id(),
                     .parent = 0,
                     .start_ns = start,
                     .end_ns = rec.now_ns(),
                     .attrs = attrs});
  }
  if (rec.metrics != nullptr) {
    rec.metrics->counter("engine.asks").add(1);
    rec.metrics->gauge("engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
  ++round_index_;
  return suggestions;
}

std::vector<TokenResult> Session::round_results(
    std::span<const Observation> observations) const {
  HPB_REQUIRE(!outstanding_.empty(),
              "Session::observe: no round is in flight; call suggest first");
  HPB_REQUIRE(observations.size() == outstanding_.size(),
              "Session::observe: the in-flight round has " +
                  std::to_string(outstanding_.size()) + " suggestions but " +
                  std::to_string(observations.size()) +
                  " results were delivered");
  std::vector<TokenResult> results;
  results.reserve(observations.size());
  auto it = outstanding_.begin();
  for (std::size_t i = 0; i < observations.size(); ++i, ++it) {
    HPB_REQUIRE(
        observations[i].config.values() == it->second.values(),
        "Session::observe: result " + std::to_string(i) +
            " does not match the suggested configuration (results must be "
            "delivered in suggestion order; was this configuration ever "
            "suggested?)");
    results.push_back({it->first, observations[i].status, observations[i].y});
  }
  return results;
}

void Session::observe(const std::vector<Observation>& observations,
                      std::span<const EvalMeter> meters) {
  require_open("observe");
  HPB_REQUIRE(config_.mode == SessionMode::kSync,
              "Session::observe: this is an asynchronous session; deliver "
              "results by token");
  commit(round_results(observations), meters);
}

void Session::observe(std::span<const TokenResult> results) {
  require_open("observe");
  HPB_REQUIRE(config_.mode == SessionMode::kAsync,
              "Session::observe: this is a synchronous session; deliver the "
              "round by configuration");
  commit(results, {});
}

void Session::commit(std::span<const TokenResult> results,
                     std::span<const EvalMeter> meters) {
  HPB_REQUIRE(!results.empty(), "Session::observe: no results delivered");
  HPB_REQUIRE(meters.empty() || meters.size() == results.size(),
              "Session::observe: meters must be absent or one per result");
  // Validate everything before touching any state: a bad call (foreign or
  // duplicate token, a value that disagrees with its status) leaves the
  // session unchanged.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TokenResult& r = results[i];
    HPB_REQUIRE(outstanding_.contains(r.token),
                "Session::observe: token " + std::to_string(r.token) +
                    " is not outstanding (already resolved, cancelled, or "
                    "never issued)");
    for (std::size_t j = 0; j < i; ++j) {
      HPB_REQUIRE(results[j].token != r.token,
                  "Session::observe: token " + std::to_string(r.token) +
                      " appears twice in one delivery");
    }
    HPB_REQUIRE(r.ok() == std::isfinite(r.y),
                r.ok() ? "Session::observe: a successful observation must "
                         "carry a finite value"
                       : "Session::observe: a failed observation must carry "
                         "no value");
  }
  const bool sync = config_.mode == SessionMode::kSync;
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  std::vector<Observation> observations;
  observations.reserve(results.size());
  std::size_t failed = 0;
  for (const TokenResult& r : results) {
    observations.push_back({outstanding_.at(r.token), r.y, r.status});
    failed += r.ok() ? 0 : 1;
  }
  if (sync) {
    meter_round(observations, meters, failed);
  }
  // A group is what the tuner sees in one observe_batch: the whole sync
  // round, or one async token in completion order. Records hit the disk
  // before the tuner sees them: on-disk state always leads in-memory
  // state, so replay can reconstruct the tuner exactly.
  const std::size_t group = sync ? observations.size() : 1;
  for (std::size_t begin = 0; begin < observations.size(); begin += group) {
    for (std::size_t i = begin; journal_ != nullptr && i < begin + group;
         ++i) {
      journal_op("record",
                 [&] { journal_->record(results[i].token, observations[i]); });
      if (sync && tracing) {
        const std::uint64_t ts = rec.now_ns();
        const obs::TraceAttr attrs[] = {obs::TraceAttr::uint("index", i)};
        rec.trace->emit({.name = "journal.append",
                         .id = rec.trace->next_id(),
                         .parent = round_id_,
                         .start_ns = ts,
                         .end_ns = ts,
                         .attrs = attrs});
      }
    }
    const std::uint64_t start = tracing ? rec.now_ns() : 0;
    tuner_->observe_batch(
        std::span<const Observation>(observations).subspan(begin, group));
    if (tracing && sync) {
      rec.trace->emit({.name = "observe",
                       .id = rec.trace->next_id(),
                       .parent = round_id_,
                       .start_ns = start,
                       .end_ns = rec.now_ns(),
                       .attrs = {}});
    } else if (tracing) {
      const obs::TraceAttr attrs[] = {
          obs::TraceAttr::uint("token", results[begin].token),
          obs::TraceAttr::str("status",
                              tabular::status_name(results[begin].status))};
      rec.trace->emit({.name = "observe_async",
                       .id = rec.trace->next_id(),
                       .parent = 0,
                       .start_ns = start,
                       .end_ns = rec.now_ns(),
                       .attrs = attrs});
    }
    for (std::size_t i = begin; i < begin + group; ++i) {
      outstanding_.erase(results[i].token);
      apply(std::move(observations[i]));
    }
  }
  if (sync) {
    close_round(observations.size(), failed, meters);
  } else if (rec.metrics != nullptr) {
    rec.metrics->counter("engine.evaluations").add(results.size());
    rec.metrics->counter("engine.failures").add(failed);
    rec.metrics->gauge("engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
}

void Session::meter_round(std::span<const Observation> observations,
                          std::span<const EvalMeter> meters,
                          std::size_t failed) {
  const obs::Recorder& rec = config_.recorder;
  // Evaluation spans and meters are reduced in suggestion order on the
  // caller's thread: trace files stay deterministic under a fake clock
  // even though the evaluations themselves may have run on pool workers.
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    retries += meters[i].attempts - 1;
    // Evaluate spans describe *local* evaluations; a remote client that
    // evaluated elsewhere delivers no meters and gets no evaluate spans.
    if (rec.tracing()) {
      std::vector<obs::TraceAttr> attrs;
      attrs.reserve(4);
      attrs.push_back(obs::TraceAttr::uint("index", i));
      attrs.push_back(obs::TraceAttr::str(
          "status", tabular::status_name(observations[i].status)));
      if (observations[i].ok()) {
        attrs.push_back(obs::TraceAttr::num("value", observations[i].y));
      }
      attrs.push_back(obs::TraceAttr::uint("attempts", meters[i].attempts));
      rec.trace->emit({.name = "evaluate",
                       .id = rec.trace->next_id(),
                       .parent = round_id_,
                       .start_ns = meters[i].start_ns,
                       .end_ns = meters[i].end_ns,
                       .attrs = attrs});
    }
  }
  if (rec.metrics != nullptr) {
    rec.metrics->counter("engine.rounds").add(1);
    rec.metrics->counter("engine.evaluations").add(observations.size());
    rec.metrics->counter("engine.failures").add(failed);
    rec.metrics->counter("engine.eval_retries").add(retries);
    obs::Histogram& eval_ms = rec.metrics->histogram(
        "engine.eval_ms", obs::default_latency_buckets_ms());
    for (const EvalMeter& m : meters) {
      eval_ms.record(static_cast<double>(m.end_ns - m.start_ns) * 1e-6);
    }
  }
}

void Session::close_round(std::size_t actual, std::size_t failed,
                          std::span<const EvalMeter> meters) {
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  if (tracing) {
    const std::uint64_t round_end = rec.now_ns();
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("round", round_index_),
        obs::TraceAttr::uint("requested", round_requested_),
        obs::TraceAttr::uint("actual", actual),
        obs::TraceAttr::uint("failed", failed)};
    rec.trace->emit({.name = "round",
                     .id = round_id_,
                     .parent = 0,
                     .start_ns = round_start_,
                     .end_ns = round_end,
                     .attrs = attrs});
  }
  if (rec.metrics != nullptr && !meters.empty()) {
    // Round wall time: the traced span when available, else the envelope
    // of the evaluation meters (metrics-only runs make no round-level
    // clock reads).
    std::uint64_t start = meters.front().start_ns;
    std::uint64_t end = meters.front().end_ns;
    for (const EvalMeter& m : meters) {
      start = std::min(start, m.start_ns);
      end = std::max(end, m.end_ns);
    }
    if (tracing) {
      start = round_start_;
      end = rec.now_ns();
    }
    rec.metrics
        ->histogram("engine.round_ms", obs::default_latency_buckets_ms())
        .record(static_cast<double>(end - start) * 1e-6);
  }
  ++round_index_;
}

std::size_t Session::cancel(std::span<const std::uint64_t> tokens) {
  require_open("cancel");
  const bool sync = config_.mode == SessionMode::kSync;
  std::vector<std::uint64_t> to_cancel(tokens.begin(), tokens.end());
  if (sync) {
    HPB_REQUIRE(tokens.empty(),
                "Session::cancel: synchronous sessions have no tokens; "
                "cancel releases the whole in-flight round");
    HPB_REQUIRE(!outstanding_.empty(),
                "Session::cancel: no round is in flight; nothing to cancel");
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    HPB_REQUIRE(outstanding_.contains(tokens[i]),
                "Session::cancel: token " + std::to_string(tokens[i]) +
                    " is not outstanding (already resolved, cancelled, or "
                    "never issued)");
    for (std::size_t j = 0; j < i; ++j) {
      HPB_REQUIRE(tokens[j] != tokens[i],
                  "Session::cancel: token " + std::to_string(tokens[i]) +
                      " appears twice in one cancellation");
    }
  }
  if (tokens.empty()) {
    // Cancel-all: the whole sync round, or every async token (the un-wedge
    // verb for a client that lost track, or an operator releasing a dead
    // client's work).
    for (const auto& [token, config] : outstanding_) {
      to_cancel.push_back(token);
    }
  }
  // The journal line goes first: once it is durable, a crash between here
  // and the tuner updates replays to the same released state. A group is
  // one journal line: the whole sync round (`abandon`), or one async token.
  const std::size_t group = sync ? to_cancel.size() : 1;
  for (std::size_t begin = 0; begin < to_cancel.size(); begin += group) {
    const std::span<const std::uint64_t> released =
        std::span<const std::uint64_t>(to_cancel).subspan(begin, group);
    if (journal_ != nullptr) {
      journal_op("cancel", [&] { journal_->cancel(released); });
    }
    for (const std::uint64_t token : released) {
      const auto it = outstanding_.find(token);
      tuner_->abandon(it->second);
      outstanding_.erase(it);
    }
  }
  const obs::Recorder& rec = config_.recorder;
  if (sync) {
    if (rec.tracing()) {
      const obs::TraceAttr attrs[] = {
          obs::TraceAttr::uint("round", round_index_),
          obs::TraceAttr::uint("released", to_cancel.size())};
      rec.trace->emit({.name = "cancel_round",
                       .id = rec.trace->next_id(),
                       .parent = round_id_,
                       .start_ns = round_start_,
                       .end_ns = rec.now_ns(),
                       .attrs = attrs});
    }
    if (rec.metrics != nullptr) {
      rec.metrics->counter("engine.cancelled_rounds").add(1);
    }
    ++round_index_;
  } else if (rec.metrics != nullptr && !to_cancel.empty()) {
    rec.metrics->counter("engine.cancelled_tokens").add(to_cancel.size());
    rec.metrics->gauge("engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
  return to_cancel.size();
}

void Session::replay(
    std::span<const Observation> observations,
    std::span<const std::pair<std::uint64_t, space::Configuration>>
        outstanding,
    std::uint64_t next_token, std::size_t rounds) {
  require_open("replay");
  HPB_REQUIRE(outstanding_.empty() && next_token_ == 1,
              "Session::replay: replay only precedes fresh suggests");
  for (const Observation& o : observations) {
    apply(o);
  }
  outstanding_.insert(outstanding.begin(), outstanding.end());
  next_token_ = next_token;
  round_index_ = rounds;
}

void Session::apply(Observation o) {
  // A failed evaluation never improves and can never hit the target; a
  // first success "improves" by definition.
  const bool first_success =
      o.ok() && result_.history.size() == result_.num_failed;
  const bool improved =
      o.ok() && (first_success ||
                 o.y < result_.best_value -
                           config_.stop.min_relative_improvement *
                               std::abs(result_.best_value));
  if (o.ok()) {
    if (first_success || o.y < result_.best_value) {
      result_.best_value = o.y;
      result_.best_config = o.config;
    }
  } else {
    ++result_.num_failed;
  }
  result_.history.push_back(std::move(o));
  result_.best_so_far.push_back(result_.best_value);
  if (config_.recorder.metrics != nullptr &&
      result_.best_value != std::numeric_limits<double>::infinity()) {
    config_.recorder.metrics->gauge("engine.best_value")
        .set(result_.best_value);
  }

  // Stopping conditions are evaluated per observation (stagnation patience
  // counts within a batch too); once a condition fires the rest of the
  // round is still recorded above — those evaluations already happened.
  if (stopped_) {
    return;
  }
  if (result_.best_value <= config_.stop.target_value) {
    reason_ = StopReason::kTargetReached;
    stopped_ = true;
    return;
  }
  since_improvement_ = improved ? 0 : since_improvement_ + 1;
  if (config_.stop.stagnation_patience > 0 &&
      since_improvement_ >= config_.stop.stagnation_patience) {
    reason_ = StopReason::kStagnation;
    stopped_ = true;
  }
}

SessionStatus Session::status() const {
  SessionStatus s;
  s.evaluations = result_.history.size();
  s.num_failed = result_.num_failed;
  s.rounds = round_index_;
  s.pending = outstanding_.size();
  s.async = config_.mode == SessionMode::kAsync;
  if (s.async) {
    s.pending_tokens.reserve(outstanding_.size());
    for (const auto& [token, config] : outstanding_) {
      s.pending_tokens.push_back(token);
    }
  }
  s.best_value = result_.best_value;
  s.best_config = result_.best_config.values();
  s.stopped = stopped_;
  s.reason = reason_;
  s.finished = finished_;
  s.degraded = degraded_;
  s.degraded_reason = degraded_reason_;
  return s;
}

void Session::finish(StopReason reason) {
  require_open("finish");
  // kInterrupted deliberately leaves the journal unfinalized: an
  // interrupted session is exactly what --resume expects to find.
  if (journal_ != nullptr && reason != StopReason::kInterrupted) {
    journal_op("finalize",
               [&] { journal_->finalize(stop_reason_name(reason)); });
  }
  stopped_ = true;
  reason_ = reason;
  finished_ = reason != StopReason::kInterrupted;
}

void Session::close() {
  require_open("close");
  HPB_REQUIRE(outstanding_.empty(),
              "Session::close: " +
                  (round_in_flight()
                       ? "a round of " + std::to_string(outstanding_.size()) +
                             " suggestions is in flight; observe it (or "
                             "cancel it) before closing"
                       : std::to_string(outstanding_.size()) +
                             " tokens are outstanding; observe or cancel "
                             "them before closing"));
  if (journal_ != nullptr) {
    journal_op("finalize", [&] { journal_->finalize("closed"); });
  }
  finished_ = true;
}

}  // namespace hpb::core
