#include "core/session_manager.hpp"

#include <dirent.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace hpb::core {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

SessionSpec spec_from_header(const std::string& name,
                             const JournalHeader& header) {
  SessionSpec spec;
  spec.name = name;
  spec.method = header.method;
  spec.dataset = header.dataset;
  spec.seed = header.seed;
  spec.batch_size = header.batch_size;
  spec.stop.max_evaluations = header.max_evaluations;
  spec.stop.stagnation_patience = header.stagnation_patience;
  spec.stop.target_value = header.target_value;
  spec.mode = header.async ? SessionMode::kAsync : SessionMode::kSync;
  return spec;
}

JournalHeader header_from_spec(const SessionSpec& spec,
                               std::size_t num_params) {
  JournalHeader header;
  header.method = spec.method;
  header.dataset = spec.dataset;
  header.seed = spec.seed;
  header.batch_size = spec.batch_size;
  header.num_params = num_params;
  header.max_evaluations = spec.stop.max_evaluations;
  header.stagnation_patience = spec.stop.stagnation_patience;
  header.target_value = spec.stop.target_value;
  header.async = spec.mode == SessionMode::kAsync;
  return header;
}

}  // namespace

void validate_session_name(const std::string& name) {
  HPB_REQUIRE(!name.empty() && name.size() <= 128,
              "session name must be 1..128 characters");
  HPB_REQUIRE(name != "." && name != "..",
              "session name must not be '.' or '..'");
  for (char c : name) {
    HPB_REQUIRE(name_char_ok(c),
                "session name '" + name +
                    "' contains invalid characters (allowed: letters, "
                    "digits, '.', '_', '-')");
  }
}

/// Pins a live entry and holds its op mutex for the duration of one verb,
/// and releases it — marking it most recently used and running capacity
/// eviction — on every exit path, including a throwing verb.
class SessionManager::Lease {
 public:
  /// Pin and lock the live entry for `name`. An entry dropped (closed, or
  /// failed to resume) while this lease waited for its op mutex is dead:
  /// look the name up again.
  Lease(SessionManager& manager, const std::string& name) : manager_(manager) {
    for (;;) {
      entry_ = manager_.pin(name);
      lock_ = std::unique_lock<std::mutex>(entry_->op);
      if (!entry_->dead) {
        return;
      }
      lock_.unlock();
      manager_.release(*entry_);
    }
  }
  /// Take over an entry the caller made, pinned and locked.
  Lease(SessionManager& manager, std::shared_ptr<Entry> entry,
        std::unique_lock<std::mutex> lock)
      : manager_(manager), entry_(std::move(entry)), lock_(std::move(lock)) {}
  ~Lease() {
    lock_.unlock();
    manager_.release(*entry_);
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  [[nodiscard]] Entry& entry() noexcept { return *entry_; }

 private:
  SessionManager& manager_;
  std::shared_ptr<Entry> entry_;
  std::unique_lock<std::mutex> lock_;
};

SessionManager::SessionManager(SessionFactory factory,
                               SessionManagerConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  HPB_REQUIRE(factory_ != nullptr,
              "SessionManager: a session factory is required");
  if (!config_.journal_dir.empty()) {
    fs::ensure_dir(config_.journal_dir);
    recover();
  }
}

// Cold-start recovery: a restarted daemon's registry is empty, but the
// journals on disk *are* the sessions. Scanning up front (instead of
// waiting for a client to touch each name) quarantines corrupt journals
// before they can fail a verb, and lets `health` report how much state
// survived the restart.
void SessionManager::recover() {
  DIR* dir = ::opendir(config_.journal_dir.c_str());
  HPB_REQUIRE(dir != nullptr, "SessionManager: cannot scan journal dir '" +
                                  config_.journal_dir +
                                  "': " + std::strerror(errno));
  std::vector<std::string> names;
  for (const dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    constexpr std::string_view kSuffix = ".hpbj";
    if (file.size() <= kSuffix.size() ||
        file.compare(file.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;  // quarantined (.corrupt), tmp, or foreign files
    }
    names.push_back(file.substr(0, file.size() - kSuffix.size()));
  }
  ::closedir(dir);
  // Deterministic report order regardless of directory iteration order.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = journal_path(name);
    try {
      validate_session_name(name);
      const JournalContents contents = read_journal(path);
      if (contents.finalized) {
        recovery_.finished.push_back(name);
      } else {
        // Adoption is lazy: the journal stays the durable session and the
        // first verb naming it resumes it (resume_if_cold), exactly like an
        // LRU-evicted session. Nothing to build here.
        recovery_.adopted.push_back(name);
        emit_span("session.adopt", name);
      }
    } catch (const Error&) {
      quarantine_journal(name, path);
      recovery_.quarantined.push_back(name);
    }
  }
  if (config_.recorder.metrics != nullptr) {
    config_.recorder.metrics->counter("manager.recovered_adopted")
        .add(recovery_.adopted.size());
    config_.recorder.metrics->counter("manager.recovered_quarantined")
        .add(recovery_.quarantined.size());
  }
}

std::string SessionManager::quarantine_journal(const std::string& name,
                                               const std::string& path) {
  const std::string quarantine = path + ".corrupt";
  // rename(2) replaces an older quarantine of the same name — the newest
  // corpse is the one worth inspecting, and the session name must become
  // usable again either way.
  if (::rename(path.c_str(), quarantine.c_str()) != 0) {
    throw IoError("quarantine rename '" + path + "' -> '" + quarantine +
                      "': " + std::strerror(errno),
                  errno);
  }
  ++quarantined_;
  count("manager.quarantined");
  emit_span("session.quarantine", name);
  return quarantine;
}

// Resident sessions are dropped without finalizing their journals —
// exactly the crash contract: an unfinalized journal is what the next
// process's resume expects to find.
SessionManager::~SessionManager() = default;

std::string SessionManager::journal_path(const std::string& name) const {
  if (config_.journal_dir.empty()) {
    return {};
  }
  return config_.journal_dir + "/" + name + ".hpbj";
}

std::unique_ptr<Session> SessionManager::make_session(
    const SessionSpec& spec, SessionBackend backend,
    std::unique_ptr<JournalWriter> journal) const {
  // Hosted sessions trace into the manager's sink on its clock. Nothing
  // reads per-session metrics, so they get no registry (and their tuners
  // export no fit gauges).
  auto session = std::make_unique<Session>(
      std::move(backend.tuner),
      SessionConfig{.recorder = {.trace = config_.recorder.trace,
                                 .clock = config_.recorder.clock},
                    .stop = spec.stop,
                    .mode = spec.mode,
                    .max_pending = config_.max_pending_per_session},
      std::move(journal));
  session->reserve(spec.stop.max_evaluations);
  return session;
}

void SessionManager::emit_span(std::string_view span_name,
                               const std::string& session_name) {
  const obs::Recorder& rec = config_.recorder;
  if (!rec.tracing()) {
    return;
  }
  const std::uint64_t ts = rec.now_ns();
  const obs::TraceAttr attrs[] = {
      obs::TraceAttr::str("session", session_name)};
  rec.trace->emit({.name = span_name,
                   .id = rec.trace->next_id(),
                   .parent = 0,
                   .start_ns = ts,
                   .end_ns = ts,
                   .attrs = attrs});
}

void SessionManager::count(const char* counter) {
  if (config_.recorder.metrics != nullptr) {
    config_.recorder.metrics->counter(counter).add(1);
  }
}

void SessionManager::create(const SessionSpec& spec) {
  validate_session_name(spec.name);
  HPB_REQUIRE(spec.batch_size > 0,
              "SessionManager::create: batch_size must be positive");
  HPB_REQUIRE(spec.stop.max_evaluations > 0,
              "SessionManager::create: max_evaluations must be positive");
  const std::string path = journal_path(spec.name);
  const bool on_disk = !path.empty() && file_exists(path);
  // The entry is locked before it is published, so a verb racing the
  // create waits for the built session instead of resuming a half-written
  // journal.
  auto entry = std::make_shared<Entry>(spec.name);
  std::unique_lock<std::mutex> op(entry->op);
  std::vector<std::unique_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(spec.name);
    const bool resident = it != entries_.end() && it->second->resident;
    // Create-vs-adopt: a name whose journal survives on disk is an existing
    // (cold) session, not a free name — adopt it by touching it with
    // suggest/observe/status, or pick a new name. create() never silently
    // truncates a journal a crashed daemon left behind.
    HPB_REQUIRE(resident || !on_disk,
                "session '" + spec.name +
                    "' already exists on disk (cold); touch it with "
                    "suggest/observe/status to adopt and resume it, or "
                    "choose another name (journal: " + path + ")");
    HPB_REQUIRE(it == entries_.end(),
                "session '" + spec.name + "' already exists");
    entry->in_use = 1;
    entries_.emplace(spec.name, entry);
    evicted = evict_lru(1);
  }
  discard(std::move(evicted));
  Lease lease(*this, entry, std::move(op));
  try {
    SessionBackend backend = factory_(spec);
    HPB_REQUIRE(backend.tuner != nullptr && backend.space != nullptr,
                "SessionManager: factory returned an incomplete backend");
    std::unique_ptr<JournalWriter> journal;
    if (!path.empty()) {
      journal = std::make_unique<JournalWriter>(JournalWriter::create(
          path, header_from_spec(spec, backend.space->num_params())));
    }
    entry->spec = spec;
    entry->session = make_session(spec, std::move(backend), std::move(journal));
  } catch (...) {
    drop(*entry);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->resident = true;
    entry->lru = lru_.insert(lru_.end(), entry.get());
  }
  ++created_;
  count("manager.created");
  emit_span("session.create", spec.name);
}

std::shared_ptr<SessionManager::Entry> SessionManager::pin(
    const std::string& name) {
  validate_session_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    // No entry: only a journal on disk (e.g. an adopted session) makes the
    // name a session; its resume decides whether the session is live.
    const std::string path = journal_path(name);
    HPB_REQUIRE(!path.empty() && file_exists(path),
                "unknown session '" + name + "'");
    it = entries_.emplace(name, std::make_shared<Entry>(name)).first;
  }
  ++it->second->in_use;
  return it->second;
}

Session& SessionManager::resume_if_cold(Lease& lease) {
  Entry& entry = lease.entry();
  if (entry.session != nullptr) {
    return *entry.session;
  }
  const std::string name = entry.spec.name;
  // Make room first, so the rebuild can reuse the evicted session's memory.
  std::vector<std::unique_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    evicted = evict_lru(1);
  }
  discard(std::move(evicted));
  try {
    const std::string path = journal_path(name);
    HPB_REQUIRE(!path.empty() && file_exists(path),
                "unknown session '" + name + "'");
    JournalContents contents;
    try {
      contents = read_journal(path);
    } catch (const Error& e) {
      // The journal is unreadable (corrupt header / I/O error): move it
      // aside so the name recovers, keep the evidence, fail this one verb
      // with a structured story instead of crashing the daemon.
      const std::string quarantine = quarantine_journal(name, path);
      throw Error("session '" + name + "' had a corrupt journal (" +
                  e.what() + "); it was quarantined to " + quarantine +
                  " and the session no longer exists");
    }
    HPB_REQUIRE(!contents.finalized, "session '" + name + "' is closed (" +
                                         contents.finish_reason + ")");
    const SessionSpec spec = spec_from_header(name, contents.header);
    SessionBackend backend = factory_(spec);
    HPB_REQUIRE(backend.tuner != nullptr && backend.space != nullptr,
                "SessionManager: factory returned an incomplete backend");
    // Deterministic tuners rebuild their exact state from their journaled
    // suggest/observe sequence; the resumed session's next suggestion is
    // bitwise-identical to the one the evicted instance would have made.
    const ReplayResult replayed =
        replay_journal(*backend.tuner, *backend.space, contents);
    auto journal =
        std::make_unique<JournalWriter>(JournalWriter::append(path, contents));
    entry.session = make_session(spec, std::move(backend), std::move(journal));
    entry.session->replay(replayed.observations, replayed.outstanding,
                          replayed.next_token, replayed.rounds);
    entry.spec = spec;
  } catch (...) {
    // A failed resume drops the entry (and its rid window): a corrupt
    // journal was quarantined, a finalized one is closed.
    drop(entry);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry.resident = true;
    entry.lru = lru_.insert(lru_.end(), &entry);
  }
  ++resumed_;
  count("manager.resumed");
  emit_span("session.resume", name);
  return *entry.session;
}

std::unique_ptr<Session> SessionManager::unload(Entry& entry) {
  lru_.erase(entry.lru);
  entry.resident = false;
  ++evicted_;
  count("manager.evicted");
  emit_span("session.evict", entry.spec.name);
  return std::move(entry.session);
}

void SessionManager::drop(Entry& entry) {
  // The caller holds the op mutex of a live entry, so the name still maps
  // to it; waiters see `dead` and look the name up again.
  entry.dead = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(entry.spec.name);
    if (entry.resident) {
      lru_.erase(entry.lru);
      entry.resident = false;
    }
  }
  entry.session.reset();
}

void SessionManager::release(Entry& entry) {
  std::vector<std::unique_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --entry.in_use;
    if (entry.resident) {
      lru_.splice(lru_.end(), lru_, entry.lru);
    }
    evicted = evict_lru(0);
  }
  discard(std::move(evicted));
}

std::vector<std::unique_ptr<Session>> SessionManager::evict_lru(
    std::size_t incoming) {
  std::vector<std::unique_ptr<Session>> evicted;
  // Oldest first; busy, journal-less, mid-round and degraded sessions are
  // skipped and stay hot even above the cap.
  for (auto it = lru_.begin();
       config_.max_resident > 0 &&
       lru_.size() + incoming > config_.max_resident && it != lru_.end();) {
    Entry& victim = **it++;
    if (evictable(victim)) {
      evicted.push_back(unload(victim));
    }
  }
  return evicted;
}

void SessionManager::discard(std::vector<std::unique_ptr<Session>> evicted) {
  const std::size_t n = evicted.size();
  evicted.clear();
#ifdef __GLIBC__
  // An evicted session's memory stays in the allocator arena of the thread
  // that built it, and an exact LRU frees sessions oldest first, so freed
  // pages pile up across arenas instead of being reused. Once per
  // max_resident evictions (a turnover of the resident set) they go back
  // to the OS, which keeps resident memory in step with max_resident.
  if (n > 0 && (evictions_since_trim_ += n) >= config_.max_resident) {
    evictions_since_trim_ = 0;
    malloc_trim(0);
  }
#endif
}

bool SessionManager::evictable(const Entry& e) {
  // Idle entries are safe to inspect under the registry mutex: every verb
  // pins (in_use) under this mutex before taking the op mutex and unpins
  // under it after releasing the op mutex, so in_use == 0 here
  // happens-after any prior verb completed. A sync round in flight pins
  // the session: its suggestions would be orphaned (the journal holds only
  // the round marker, which resume discards). A degraded session is pinned
  // too: evicting it would let the next verb "resume" from its journal and
  // mask the disk fault behind a half-replayed session. It stays resident,
  // read-only, and visible in health until an operator restarts with a
  // healthy disk.
  return e.resident && e.in_use == 0 && e.session->journaled() &&
         !e.session->round_in_flight() && !e.session->degraded();
}

std::optional<std::string> SessionManager::run(const std::string& name,
                                               const Verb& verb,
                                               std::optional<RequestKey> key) {
  Lease lease(*this, name);
  Entry& entry = lease.entry();
  if (key) {
    for (const Entry::Rid& seen : entry.rids) {
      if (seen.rid != key->rid) {
        continue;
      }
      // A retry is the same request line; a different request reusing the
      // rid is a client bug, and replaying the other request's response
      // would silently drop this one.
      if (seen.request != key->request) {
        return std::nullopt;
      }
      return seen.response;  // byte-identical replay, no re-execution
    }
  }
  Session& session = resume_if_cold(lease);
  std::string response = verb(session, entry.spec);
  if (key) {
    // Only successful responses are recorded: an error means the verb did
    // not take effect (or left the session in a state that will report the
    // same error again), so a retry may re-execute — e.g. an `overloaded`
    // shed retried after capacity frees up must not replay the shed.
    entry.rids.push_back(
        {std::string(key->rid), std::string(key->request), response});
    if (entry.rids.size() > kRidsPerSession) {
      entry.rids.pop_front();
    }
  }
  return response;
}

void SessionManager::close(const std::string& name) {
  {
    Lease lease(*this, name);
    resume_if_cold(lease).close();  // throws with a round in flight
    drop(lease.entry());
  }
  ++closed_;
  count("manager.closed");
  emit_span("session.close", name);
}

bool SessionManager::evict(const std::string& name) {
  validate_session_name(name);
  std::vector<std::unique_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end() || !evictable(*it->second)) {
      return false;
    }
    evicted.push_back(unload(*it->second));
  }
  discard(std::move(evicted));
  return true;
}

ManagerHealth SessionManager::health() const {
  ManagerHealth h;
  std::lock_guard<std::mutex> lock(mu_);
  h.resident = lru_.size();
  for (const Entry* entry : lru_) {
    if (entry->session->degraded()) {
      ++h.degraded;
    }
  }
  h.created = created_.load(std::memory_order_relaxed);
  h.evicted = evicted_.load(std::memory_order_relaxed);
  h.resumed = resumed_.load(std::memory_order_relaxed);
  h.closed = closed_.load(std::memory_order_relaxed);
  h.adopted = recovery_.adopted.size();
  h.quarantined = quarantined_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace hpb::core
