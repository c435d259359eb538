// Session: the reentrant per-run core of the tuning loop.
//
// A Session owns everything one tuning run carries between rounds — the
// tuner, the write-ahead journal, the observability recorder, the
// outstanding (suggested-but-unobserved) suggestions, the stopping
// bookkeeping, and the best-so-far trajectory — behind explicit suggest /
// observe / cancel / status entry points. TuningEngine::run drives a single
// Session to completion (evaluating the objective itself); SessionManager
// hosts thousands of named Sessions whose clients evaluate remotely and
// come and go between verbs.
//
// The split is exact: Session::suggest performs everything run_round did up
// to (and including) the journal round marker, Session::observe performs
// everything after the evaluations returned, in the same order — trace span
// ids, clock reads, journal bytes, and metrics all match the pre-split
// driver bit for bit (pinned by tests/test_session.cpp).
//
// Both modes run one token state machine: every suggest issues one token
// per suggestion into one ordered outstanding set, every result resolves a
// token through one commit path, every cancel releases tokens, and one
// replay restores the set from the journal. SessionMode selects only a
// validation policy and a journal dialect:
//
//   - sync (round barrier): suggest refuses while any token is outstanding,
//     so at most one round is in flight; the round is delivered whole, by
//     configuration, in suggestion order (an out-of-order observe is a
//     client error, not a crash) and reaches the tuner as one
//     observe_batch; cancel releases the whole round (an `abandon` marker,
//     so resume replays it as a cancelled round). Tokens stay internal.
//   - async: suggest never waits and tokens are returned to the client;
//     results resolve tokens one at a time in any order and any subset;
//     cancel abandons any subset (or everything). Every verb is journaled
//     write-ahead (the ask line is durable before its tokens are returned),
//     so an async session is always evictable and a resumed one re-exposes
//     exactly the outstanding tokens a client could hold.
//
// Failure handling, stopping bookkeeping, and journal finalization
// semantics are unchanged from the engine they were extracted from.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/loop.hpp"
#include "core/stopping.hpp"
#include "core/tuner.hpp"
#include "obs/recorder.hpp"

namespace hpb::core {

/// How a driver treats failed evaluations (EvalStatus != kOk).
struct FailurePolicy {
  /// Immediate re-evaluations of a configuration whose attempt came back
  /// kCrashed (the one transient status) before it is recorded as failed.
  /// Retries are extra objective calls but occupy the same budget slot.
  /// kInvalid / kTimeout are deterministic verdicts and are never retried.
  std::size_t max_retries = 1;
};

/// Per-evaluation wall time and attempt count, captured by the driver on
/// the worker that ran the evaluation (only when a recorder is attached)
/// and reduced into trace spans / latency histograms by Session::observe.
struct EvalMeter {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t attempts = 1;
};

/// How a session hands out and takes back evaluations: the validation
/// policy over the one token state machine, and the journal dialect.
enum class SessionMode {
  /// Round barrier: one suggest_batch at a time, observed whole, in
  /// suggestion order. Tokens are internal to the round.
  kSync,
  /// Token-structured: suggestions carry client-visible tokens, results
  /// resolve tokens in any order, suggest never waits on outstanding
  /// evaluations.
  kAsync,
};

/// One tokenized suggestion.
struct Suggestion {
  std::uint64_t token = 0;
  space::Configuration config;
};

/// One completed evaluation identified by token (the session resolves the
/// configuration itself).
struct TokenResult {
  std::uint64_t token = 0;
  tabular::EvalStatus status = tabular::EvalStatus::kOk;
  /// Finite exactly when the status is ok; a failure carries no value.
  double y = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] bool ok() const noexcept {
    return status == tabular::EvalStatus::kOk;
  }
};

/// Everything a Session carries besides the tuner and the journal. The
/// evaluation-side knobs (batch size, failure policy, deadline, stop flag)
/// belong to the driver that evaluates the objective (EngineConfig); a
/// remote client performs its own evaluations.
struct SessionConfig {
  /// Observability hooks (trace sink / metrics registry / clock), optional
  /// and not owned. The all-null default adds no work to the loop.
  obs::Recorder recorder;
  /// Stopping conditions. Session::observe applies the per-observation
  /// bookkeeping (target check, stagnation patience) and exposes the
  /// verdict via status(); drivers decide whether to honor it (run()
  /// ignores it, run_until() stops on it).
  StopConfig stop;
  /// Round-structured (default) or token-structured asynchronous session.
  SessionMode mode = SessionMode::kSync;
  /// Async sessions: cap on outstanding (suggested-but-unresolved) tokens.
  /// A suggest that would exceed it throws hpb::OverloadError before
  /// any state changes. 0 = unlimited. Sync rounds are naturally bounded
  /// by one batch and ignore this.
  std::size_t max_pending = 0;
};

/// Snapshot of a session's progress, cheap enough to take per verb.
struct SessionStatus {
  std::size_t evaluations = 0;
  std::size_t num_failed = 0;
  /// Completed suggest/observe rounds.
  std::size_t rounds = 0;
  /// Suggestions of the in-flight round still awaiting observe (0 when no
  /// round is in flight). Async sessions: the outstanding token count.
  std::size_t pending = 0;
  /// Async sessions only: the outstanding tokens in issue order. A client
  /// resuming after a crash reads these to pick up (or cancel) evaluations
  /// it no longer remembers.
  std::vector<std::uint64_t> pending_tokens;
  /// The session runs in asynchronous (token) mode.
  bool async = false;
  double best_value = 0.0;
  /// Raw values of the best successful configuration; empty until the
  /// first success.
  std::vector<double> best_config;
  /// A stopping condition fired (target reached / stagnation). The session
  /// still accepts observes for an in-flight round.
  bool stopped = false;
  StopReason reason = StopReason::kBudgetExhausted;
  /// finish()/close() was called; every further verb throws.
  bool finished = false;
  /// A journal append failed (disk fault): the session is read-only —
  /// status still serves, every mutating verb throws. The durable journal
  /// prefix is still valid; a daemon restart (with the disk healthy again)
  /// resumes the session from it.
  bool degraded = false;
  std::string degraded_reason;
};

class Session {
 public:
  /// Borrowing constructor, used by TuningEngine: the caller keeps
  /// ownership of the tuner and the journal (both must outlive the
  /// session) and is responsible for installing the recorder on the tuner
  /// (the engine points it at its own config, exactly as before the
  /// split).
  Session(Tuner& tuner, SessionConfig config, JournalWriter* journal = nullptr);

  /// Owning constructor, used by SessionManager: the session owns its
  /// tuner and journal, and installs its recorder on the tuner when one is
  /// attached.
  Session(std::unique_ptr<Tuner> tuner, SessionConfig config,
          std::unique_ptr<JournalWriter> journal);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Ask the tuner for up to `k` configurations and issue one token per
  /// suggestion, journaled write-ahead (sync: the round marker; async: the
  /// ask line). Sync sessions open a round and throw while one is already
  /// in flight; async sessions never wait, but shed with OverloadError past
  /// max_pending. Throws if the session is finished.
  [[nodiscard]] std::vector<Suggestion> suggest(std::size_t k);

  /// Sync: deliver the evaluated round by configuration, in suggestion
  /// order. Validates that the observations match the round's suggestions
  /// (out-of-order or foreign results throw without corrupting the
  /// session), then commits them: journal, tuner (one observe_batch), and
  /// best-so-far + stopping bookkeeping. `meters` (driver-side timing)
  /// feeds the evaluate spans and latency histograms; remote sessions pass
  /// none and get no evaluate spans.
  void observe(const std::vector<Observation>& observations,
               std::span<const EvalMeter> meters = {});

  /// Async: deliver completed evaluations by token, in any order and any
  /// subset. Every token must be outstanding and appear at most once per
  /// call; validation happens before any state changes, so a bad call
  /// leaves the session untouched.
  void observe(std::span<const TokenResult> results);

  /// Release outstanding tokens that will never be observed (the client
  /// evaluating them died or gave up), journaled before the tuner sees the
  /// abandon. Sync: `tokens` must be empty and the whole in-flight round is
  /// released. Async: the given tokens, or every outstanding token when
  /// `tokens` is empty (the un-wedge verb for a client that lost track).
  /// Returns the number of suggestions released.
  std::size_t cancel(std::span<const std::uint64_t> tokens = {});

  /// Apply a journal replay (from replay_journal, which already drove the
  /// tuner): the observations go through the result and stopping
  /// bookkeeping, and the outstanding tokens, the token counter and the
  /// round counter are restored. Only valid before the first suggest of a
  /// fresh session.
  void replay(
      std::span<const Observation> observations,
      std::span<const std::pair<std::uint64_t, space::Configuration>>
          outstanding = {},
      std::uint64_t next_token = 1, std::size_t rounds = 0);

  [[nodiscard]] SessionStatus status() const;

  /// Terminal bookkeeping for a driver-completed run: finalizes the
  /// journal with the stop reason — except kInterrupted, which leaves the
  /// journal resumable (that is what --resume expects to find).
  void finish(StopReason reason);

  /// Terminal bookkeeping for a service session: finalizes the journal
  /// with "closed". Throws when a round is in flight (its suggestions
  /// would be orphaned) or the session already finished.
  void close();

  [[nodiscard]] TuneResult take_result() noexcept { return std::move(result_); }
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return result_.history.size();
  }
  /// A sync round is in flight (always false for async sessions).
  [[nodiscard]] bool round_in_flight() const noexcept {
    return config_.mode == SessionMode::kSync && !outstanding_.empty();
  }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  [[nodiscard]] StopReason stop_reason() const noexcept { return reason_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// A journal append failed: the session is read-only (see
  /// SessionStatus::degraded).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] bool journaled() const noexcept { return journal_ != nullptr; }

  /// Pre-size the history/best-so-far vectors (drivers know their budget).
  void reserve(std::size_t n);

 private:
  /// One observation's worth of result + stopping bookkeeping — identical
  /// for a replayed and a freshly evaluated observation, which is what
  /// makes a resumed session stop exactly where the uninterrupted one
  /// would.
  void apply(Observation o);

  void require_open(const char* verb) const;

  /// Map a sync round delivered by configuration onto the round's tokens:
  /// the barrier policy for observe (the whole round, in issue order).
  [[nodiscard]] std::vector<TokenResult> round_results(
      std::span<const Observation> observations) const;

  /// The one observe commit path: validate every result, then journal,
  /// feed the tuner, and apply each group — a whole sync round or a single
  /// async token.
  void commit(std::span<const TokenResult> results,
              std::span<const EvalMeter> meters);

  /// Sync rounds: the evaluate spans and round counters emitted before the
  /// round is journaled, and the round span / latency emitted after.
  void meter_round(std::span<const Observation> observations,
                   std::span<const EvalMeter> meters, std::size_t failed);
  void close_round(std::size_t actual, std::size_t failed,
                   std::span<const EvalMeter> meters);

  /// Run one journal mutation; an IoError marks the session degraded and
  /// rethrows as a structured hpb::Error naming the read-only contract.
  template <typename F>
  void journal_op(const char* what, F&& op);

  SessionConfig config_;
  Tuner* tuner_ = nullptr;
  JournalWriter* journal_ = nullptr;
  std::unique_ptr<Tuner> owned_tuner_;
  std::unique_ptr<JournalWriter> owned_journal_;

  TuneResult result_;
  std::size_t since_improvement_ = 0;
  bool stopped_ = false;
  StopReason reason_ = StopReason::kBudgetExhausted;
  bool finished_ = false;
  // Atomic so the manager's health/eviction scans can read it without the
  // per-session op mutex; the reason string is only read under that mutex.
  std::atomic<bool> degraded_{false};
  std::string degraded_reason_;

  // Outstanding tokens, ordered by issue (a sync session holds at most
  // one round here). The ordered map keeps status().pending_tokens
  // deterministic.
  std::map<std::uint64_t, space::Configuration> outstanding_;
  std::uint64_t next_token_ = 1;
  // Completed sync rounds (cancelled included) / async asks.
  std::size_t round_index_ = 0;
  // The in-flight sync round's requested size and trace span.
  std::size_t round_requested_ = 0;
  std::uint64_t round_id_ = 0;
  std::uint64_t round_start_ = 0;
};

}  // namespace hpb::core
