// SessionManager: thousands of named, concurrent ask/tell tuning sessions
// behind one object — the core of the tuning service.
//
// Clients create a session by name, then suggest / observe / status / close
// it; between verbs the client may disappear entirely. The registry is one
// mutex over one name → entry map and one LRU list of resident entries,
// held only to look up, pin and record residency: building a tuner,
// reading, replaying and appending to a journal, and destroying an evicted
// session all run outside it. A per-entry op mutex serializes verbs on one
// session (it is taken before, never after, the registry mutex), so verbs
// on different sessions proceed in parallel.
//
// Cold eviction: beyond `max_resident` resident sessions, the least
// recently used idle ones are dropped from memory. Nothing is lost — every
// hosted session is backed by the write-ahead journal (one fsync'd record
// per observation), so the on-disk state already *is* the session. A
// create or resume evicts first, so the cap holds while it builds and the
// new session reuses the evicted one's memory. The entry keeps the spec and
// the rid window (see run()), and the next verb on the name resumes it,
// once, under the op mutex: the factory rebuilds the tuner, replay_journal
// re-drives it through the journaled events (bitwise-identical suggest
// sequence, proven by tests/test_session.cpp), and the journal re-opens in
// append mode. A session with an unobserved round in flight is pinned hot
// — evicting it would orphan its suggestions.
//
// Observability: the manager emits `session.*` spans (create / resume /
// evict / close) and `manager.*` counters into its own recorder; hosted
// sessions share its trace sink and clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "obs/recorder.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Identity of one hosted session — everything needed to build (or
/// rebuild) its tuner. Persisted in the journal header, so an evicted or
/// crashed session resumes from its name alone.
struct SessionSpec {
  /// Registry key and journal file stem. Restricted to
  /// [A-Za-z0-9._-]{1,128} (it names a file under the journal directory).
  std::string name;
  std::string method = "hiperbot";
  std::string dataset;
  std::uint64_t seed = 42;
  std::size_t batch_size = 1;
  /// Stopping conditions applied per observation (budget / patience /
  /// target recorded in the journal header; the session reports `stopped`
  /// through status, clients decide when to stop asking).
  StopConfig stop;
  /// Round-structured (default) or token-structured asynchronous session.
  /// Recorded in the journal header (`meta mode async`), so a resumed
  /// session keeps its mode.
  SessionMode mode = SessionMode::kSync;
};

/// What the factory must provide for a spec: the tuner and the parameter
/// space it suggests over (needed for journal replay and validation).
struct SessionBackend {
  std::unique_ptr<Tuner> tuner;
  space::SpacePtr space;
};

/// Builds the backend for a spec. Called outside the registry lock (under
/// the session's op mutex), so it must be thread-safe across concurrent
/// calls for different sessions. Throws hpb::Error on unknown methods /
/// datasets; the error propagates to the creating verb.
using SessionFactory = std::function<SessionBackend(const SessionSpec&)>;

struct SessionManagerConfig {
  /// Directory for per-session write-ahead journals
  /// (`<journal_dir>/<name>.hpbj`). Created (mkdir -p) by the constructor,
  /// which also adopts every resumable journal already there as a cold
  /// session and quarantines unreadable ones (see recovery()).
  /// Empty disables journaling — sessions then live only in memory and are
  /// never evicted (there would be nothing to resume from).
  std::string journal_dir;
  /// Cap on resident (in-memory) sessions: beyond it the least-recently
  /// used idle sessions are evicted. Sessions in use, mid-round, degraded
  /// or journal-less cannot be evicted and may hold residency above it.
  /// 0 = unlimited (no eviction).
  std::size_t max_resident = 0;
  /// Per-session cap on outstanding async tokens (forwarded to
  /// SessionConfig::max_pending). A suggest that would exceed it is shed
  /// with hpb::OverloadError. 0 = unlimited.
  std::size_t max_pending_per_session = 0;
  /// Manager-level observability: `session.*` spans and `manager.*`
  /// counters. Hosted sessions trace into the same sink with the same
  /// clock; they get no metrics registry.
  obs::Recorder recorder;
};

/// What the cold-start scan of the journal directory found. A restarted
/// daemon forgets nothing: every unfinalized journal is a session a client
/// can touch (suggest/status/observe) and get the exact continuation the
/// crashed process would have produced.
struct RecoveryReport {
  /// Resumable sessions adopted cold: the next verb naming one replays its
  /// journal and continues bitwise-identically.
  std::vector<std::string> adopted;
  /// Finalized journals (finished or closed runs) left on disk; their
  /// names stay reserved.
  std::vector<std::string> finished;
  /// Unreadable journals moved aside to `<name>.hpbj.corrupt` so the name
  /// is usable again and the evidence survives for inspection.
  std::vector<std::string> quarantined;
};

/// Snapshot of the manager's survivability counters, served by the wire
/// `health` verb.
struct ManagerHealth {
  std::size_t resident = 0;
  std::size_t degraded = 0;
  std::uint64_t created = 0;
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
  std::uint64_t closed = 0;
  std::uint64_t adopted = 0;      // cold sessions found at startup
  std::uint64_t quarantined = 0;  // lifetime, startup scan + resume-time
};

class SessionManager {
 public:
  SessionManager(SessionFactory factory, SessionManagerConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Create a fresh session. Throws if the name is invalid, already
  /// resident, or already has a journal on disk (finished or not).
  void create(const SessionSpec& spec);

  /// Successful responses remembered per session for rid replay. A client
  /// retrying over a fresh connection only ever retries its last in-flight
  /// request, so a small window per session suffices.
  static constexpr std::size_t kRidsPerSession = 32;

  /// A verb body: runs on the leased (resident) session and its spec,
  /// under the session's op mutex, and returns the verb's response.
  using Verb = std::function<std::string(Session&, const SessionSpec&)>;

  /// The idempotency key of a retryable request: the client's rid and the
  /// request line it names, byte for byte.
  struct RequestKey {
    std::string_view rid;
    std::string_view request;
  };

  /// Run `verb` on the named session, resuming it from its journal when
  /// it is cold. Throws for invalid, unknown or closed names and whatever
  /// the verb throws. With a key, the run is exactly-once: when the
  /// session's window remembers the rid, nothing runs (and no cold session
  /// is resumed) — the recorded response is returned for the identical
  /// request line, and nullopt for a different request reusing the rid.
  /// Otherwise a successful response is recorded; errors are not, so a
  /// failed request may be retried with the same rid.
  std::optional<std::string> run(const std::string& name, const Verb& verb,
                                 std::optional<RequestKey> key = {});

  /// Finalize the session's journal ("closed") and drop its entry, rid
  /// window included. Throws when the name is unknown, the session already
  /// closed, or a round is in flight. A closed name cannot be re-created
  /// while its finalized journal remains on disk.
  void close(const std::string& name);

  /// Force-evict one session (test hook; production eviction is LRU).
  /// Returns false when the session is not resident or not evictable (see
  /// evictable()).
  bool evict(const std::string& name);

  /// The cold-start scan's findings (empty when journaling is disabled).
  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }

  /// Survivability counters for the `health` verb (resident and degraded
  /// sessions right now, lifetime created / evicted / resumed / closed).
  [[nodiscard]] ManagerHealth health() const;

  /// Journal path for a (valid) session name; empty when journaling is
  /// disabled.
  [[nodiscard]] std::string journal_path(const std::string& name) const;

 private:
  /// One session name's registry entry. It exists while the name is
  /// resident, evicted, or being created or resumed, and outlives
  /// residency: eviction drops only `session`.
  struct Entry {
    struct Rid {
      std::string rid;
      std::string request;  // the request line, byte for byte
      std::string response;
    };
    explicit Entry(const std::string& name) { spec.name = name; }

    std::mutex op;  // serializes verbs on this session
    // Guarded by `op`.
    SessionSpec spec;
    std::unique_ptr<Session> session;  // null while cold
    std::deque<Rid> rids;              // newest last
    bool dead = false;  // dropped from the registry (closed, failed resume)
    // Guarded by the registry mutex.
    std::size_t in_use = 0;  // leases held or waited for
    bool resident = false;   // `session` is built and on the LRU list
    std::list<Entry*>::iterator lru;
  };
  /// RAII pin + op lock on a live entry; releases the entry (and runs LRU
  /// eviction) on scope exit even when the verb throws.
  class Lease;

  /// Pin the entry for `name`, making a cold one when the name has no
  /// entry but a journal on disk. Throws for invalid and unknown names.
  [[nodiscard]] std::shared_ptr<Entry> pin(const std::string& name);

  /// The leased entry's session, resumed from its journal when cold. A
  /// failed resume drops the entry and rethrows.
  Session& resume_if_cold(Lease& lease);

  /// Take a resident entry's session out of memory (returned for
  /// destruction after the registry lock is released). Caller holds the
  /// registry mutex.
  [[nodiscard]] std::unique_ptr<Session> unload(Entry& entry);

  /// Drop a live entry, and its session, from the registry (close, failed
  /// create or resume). Caller holds the entry's op mutex.
  void drop(Entry& entry);

  /// Unpin the entry, mark it most recently used, and evict beyond
  /// max_resident.
  void release(Entry& entry);

  /// Evict least recently used idle sessions until `incoming` more fit
  /// under max_resident. Caller holds the registry mutex and passes the
  /// evicted sessions to discard() after releasing it.
  [[nodiscard]] std::vector<std::unique_ptr<Session>> evict_lru(
      std::size_t incoming);
  void discard(std::vector<std::unique_ptr<Session>> evicted);

  /// Whether dropping the entry's session from memory loses nothing.
  /// Caller holds the registry mutex.
  [[nodiscard]] static bool evictable(const Entry& entry);

  [[nodiscard]] std::unique_ptr<Session> make_session(
      const SessionSpec& spec, SessionBackend backend,
      std::unique_ptr<JournalWriter> journal) const;

  void emit_span(std::string_view name, const std::string& session_name);
  void count(const char* counter);

  /// Startup scan of journal_dir: adopt / record / quarantine every
  /// `*.hpbj` entry (see RecoveryReport).
  void recover();

  /// Move an unreadable journal to `<path>.corrupt` and record it. Returns
  /// the quarantine path.
  std::string quarantine_journal(const std::string& name,
                                 const std::string& path);

  SessionFactory factory_;
  SessionManagerConfig config_;
  mutable std::mutex mu_;  // the registry mutex
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<Entry*> lru_;  // resident entries, least recently used first
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> resumed_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::size_t> evictions_since_trim_{0};
  RecoveryReport recovery_;  // written once, in the constructor
};

/// Validate a session name ([A-Za-z0-9._-]{1,128}, not "." or "..") —
/// throws hpb::Error otherwise. Exposed for the wire layer's validation.
void validate_session_name(const std::string& name);

}  // namespace hpb::core
