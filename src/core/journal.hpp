// Write-ahead observation journal: crash-tolerant persistence for tuning
// sessions.
//
// The TuningEngine appends one fsync'd record per observation, so the
// on-disk state is always a valid prefix of the run: kill -9 the process at
// any byte and what survives is the header plus zero or more complete
// rounds (a torn tail — a partial line or a half-written round — is
// detected and dropped by the reader). Resume is replay-based: tuners are
// deterministic given their suggest/observe call sequence, so driving a
// fresh tuner through the journal's rounds — suggest_batch(requested) per
// round, observations answered from the journal instead of re-evaluating
// the objective — reconstructs the exact in-memory state (including RNG
// position and pending-batch tracking) the session had when it died. The
// continued run is therefore bitwise identical to an uninterrupted one.
//
// Format (line-oriented text; doubles as 16-hex-digit IEEE-754 bit
// patterns so values round-trip exactly). The header fixes one of two body
// dialects, which the writer emits and the reader parses:
//
//   hpbj v1
//   meta <key> <value>            # session parameters, see JournalHeader
//   ...body...
//   end <reason>                  # present only when the session completed
//
// Sync dialect (the default) — one block per round:
//
//   round <index> <requested> <actual>
//   obs <status> <y-bits> <v0-bits> <v1-bits> ...
//   ...                           # exactly <actual> obs lines per round
//
// The round marker is written after suggest_batch (so <actual> is known)
// and before evaluation; its records follow once the round is evaluated. A
// round marker may instead be followed by a single `abandon` line: the
// round was cancelled whole (client died mid-round), replay re-suggests it
// and abandons every member, and the session keeps going instead of
// wedging. Commit rule: a round commits whole. A marker followed by fewer
// than <actual> records is incomplete — it adds nothing to the read events
// or to the durable prefix, and its evaluations are re-run on resume,
// which is safe because the tuner state that produced them is
// reconstructed exactly.
//
// Async dialect (`meta mode async` in the header) — one self-contained
// line per verb, in verb order:
//
//   ask <requested> <first_token> <actual> <cfg-bits ...>
//   aobs <token> <status> <y-bits>
//   acancel <token>
//
// `ask` lines carry the suggested configurations (actual * num_params
// 16-hex-digit values, configuration-major) and assign the consecutive
// tokens first_token .. first_token+actual-1; `aobs`/`acancel` resolve one
// token in completion order. Commit rule: every valid line commits on its
// own; only the final line can tear. The ask line is durable *before* its
// tokens are returned to any client, so a replayed journal's
// outstanding-token set always covers every token a client could have
// seen; completions arrive in any order and replay re-applies them in the
// exact journaled order, which is what makes an async resume
// bitwise-deterministic.
//
// Both dialects read into one event model (JournalEvent: ask / observe /
// cancel) and replay through one function.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tuner.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Session parameters stored in the journal header — everything needed to
/// reconstruct the run besides the dataset itself. `dataset` and
/// `num_params` guard against resuming over the wrong data.
struct JournalHeader {
  std::string method;
  std::string dataset;
  /// Warm-start CSV replayed into the tuner before the session, if any.
  std::string warm_start;
  /// JSON-lines trace file the session wrote, if any. A resumed session
  /// re-opens this file in append mode and continues its span ids, so the
  /// stitched trace reads as one uninterrupted session.
  std::string trace_path;
  std::uint64_t seed = 0;
  std::size_t batch_size = 1;
  std::size_t num_params = 0;
  std::size_t max_evaluations = 0;
  std::size_t stagnation_patience = 0;
  double target_value = -std::numeric_limits<double>::infinity();
  double fail_rate = 0.0;
  double crash_rate = 0.0;
  double hang_rate = 0.0;
  /// Asynchronous session: the journal body is ask/aobs/acancel event
  /// lines instead of round/obs blocks. Absent in older journals (= sync).
  bool async = false;
};

/// One journaled verb, in journal order. Both dialects read into this one
/// model: a sync `round` marker and its `obs` lines become an ask followed
/// by one observe per member (tokens numbered from 1 in issue order, as the
/// session numbers them), an `abandon` line becomes a cancel of every token
/// of its round, and the async `ask`/`aobs`/`acancel` lines map one to one.
struct JournalEvent {
  enum class Kind { kAsk, kObserve, kCancel };
  Kind kind = Kind::kAsk;
  /// kAsk: the requested batch size and the `actual` consecutive tokens
  /// issued from `first_token`. `configs` holds the issued configurations
  /// when the journal names them (async asks, observed sync rounds); it is
  /// empty for an abandoned sync round, whose members were never written.
  std::size_t requested = 0;
  std::uint64_t first_token = 0;
  std::size_t actual = 0;
  std::vector<space::Configuration> configs;
  /// kObserve / kCancel: the token resolved by this event. For kObserve,
  /// `observation` carries the token's configuration and the journaled
  /// value/status.
  std::uint64_t token = 0;
  Observation observation;
};

/// A validated journal: header, every committed event, and whether the
/// session finished. `valid_bytes` is the length of the durable prefix
/// (excluding any torn tail and the end marker); appending resumes there.
struct JournalContents {
  JournalHeader header;
  std::vector<JournalEvent> events;
  bool finalized = false;
  std::string finish_reason;
  std::uint64_t valid_bytes = 0;

  /// Events of one kind: kAsk counts sync rounds (or async asks), kObserve
  /// the journaled observations.
  [[nodiscard]] std::size_t count(JournalEvent::Kind kind) const noexcept {
    std::size_t n = 0;
    for (const JournalEvent& e : events) {
      n += e.kind == kind ? 1 : 0;
    }
    return n;
  }
};

/// Appending writer. Every line is written with a single write(2) followed
/// by fsync, so a crash can only tear the final line — never reorder or
/// interleave records.
class JournalWriter {
 public:
  /// Start a fresh journal at `path` (truncating any existing file) and
  /// durably write the header.
  static JournalWriter create(const std::string& path,
                              const JournalHeader& header);

  /// Continue an interrupted session: truncate `path` to the validated
  /// prefix (dropping a torn tail, an incomplete round, and the end
  /// marker) and position round numbering after the last complete round.
  /// `contents` must be the result of read_journal(path).
  static JournalWriter append(const std::string& path,
                              const JournalContents& contents);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Durably record a suggest *before* its results can exist: the tuner
  /// returned `batch` for `requested` and the session issued the tokens
  /// first_token .. first_token+batch.size()-1. Sync dialect: the round
  /// marker (members follow as obs lines once observed). Async dialect: the
  /// ask line with the configurations inline, written before any token is
  /// returned to a client (replay verifies the re-suggested batch against
  /// them bitwise).
  void begin(std::size_t requested, std::uint64_t first_token,
             std::span<const space::Configuration> batch);

  /// Durably record one evaluated observation of token `token`. Sync
  /// dialect: an obs line (members of a round in suggestion order); async
  /// dialect: an aobs line (any order).
  void record(std::uint64_t token, const Observation& o);

  /// Durably record the release of `tokens` without observing them. Sync
  /// dialect: one `abandon` line for the whole open round, before any of
  /// its members was recorded — replay re-suggests the round and abandons
  /// every member. Async dialect: one acancel line per token.
  void cancel(std::span<const std::uint64_t> tokens);

  /// Durably mark the session complete (e.g. "budget_exhausted"). Not
  /// called on interruption — an unfinalized journal is what resume
  /// expects.
  void finalize(std::string_view reason);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  JournalWriter(std::string path, int fd, bool async, std::size_t next_round);

  void write_line(std::string_view line);

  std::string path_;
  int fd_ = -1;
  /// Dialect fixed by the header: ask/aobs/acancel lines instead of
  /// round/obs/abandon.
  bool async_ = false;
  std::size_t next_round_ = 0;
};

/// Read and validate a journal, stopping at the first torn or malformed
/// line: everything after the last complete round is ignored (and reported
/// via valid_bytes for truncation on append). Throws only when the file is
/// unreadable or the header itself is invalid.
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// What a replay reconstructs: the journaled observations in journal order
/// (for the session's best-so-far / stopping bookkeeping), the tokens still
/// outstanding in issue order — async asks whose completion or
/// cancellation never hit the journal; always empty for a sync journal,
/// whose torn round the reader drops — the next unissued token, and the
/// session's round count: one per ask event, which is an async ask or a
/// sync round that was observed or cancelled (the reader keeps no other).
/// A resumed session re-exposes the outstanding tokens, so a client (or an
/// operator issuing `cancel`) can always resolve them.
struct ReplayResult {
  std::vector<Observation> observations;
  std::vector<std::pair<std::uint64_t, space::Configuration>> outstanding;
  std::uint64_t next_token = 1;
  std::size_t rounds = 0;
};

/// Deterministic resume: drive a fresh tuner through the journal's events
/// in journal order without touching the objective — suggest_batch per ask
/// (verified against the journaled configurations), observe_batch per
/// observed group, abandon per cancel. A group is a whole sync round (one
/// observe_batch, exactly as the live session delivered it) or a single
/// async completion. Throws if the tuner's suggestions diverge from the
/// journal (wrong method, seed, or dataset).
[[nodiscard]] ReplayResult replay_journal(Tuner& tuner,
                                          const space::ParameterSpace& space,
                                          const JournalContents& contents);

}  // namespace hpb::core
