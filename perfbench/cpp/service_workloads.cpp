// svc_evict and svc_async: the tuning daemon in-process, driven over its
// Unix socket by two closed-loop clients.
//
// Topology: SessionManager (journals fsync'd under the work dir) behind a
// WireService behind a LineServer; two client threads, each with its own
// connection (so two server connection threads) and a window of sessions
// it round-robins. A *storm* runs every session of both windows from
// create to its budget and close; a run repeats storms, all with the same
// session seeds, until its time is up.
//
// Untraced storms run with nothing wrapped and give the end-to-end
// metrics. Traced storms (--trace 1) run on a second daemon built with the
// benchmark's probes: a handler wrapper timing WireService::handle_line,
// the probed factory, and the ProbedTuner decorator. Client 0's sessions
// also get their journal operations counted through the fault seam with a
// plan that never fires, plus two shadow measurements taken between its
// verbs (a write+fsync of a journal-sized line next to the journals, and a
// read_journal of the session it just resumed).
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "apps/registry.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "core/session_manager.hpp"
#include "layers.hpp"
#include "obs/json_util.hpp"
#include "probes.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "tabular/tabular_objective.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using hpb::service::JsonValue;

constexpr const char* kDataset = "kripke_energy";
// A fresh daemon's first second or so of storms runs up to twice as slow
// as the rest on a shared VM, so each daemon warms up this long first.
constexpr double kWarmupS = 2.0;
// Daemon set-ups timed before the first storm; one more follows every
// storm, so set-up time is sampled across the whole run.
constexpr std::size_t kSetups = 5;

struct Shape {
  bool async = false;
  std::size_t clients = 2;
  std::size_t window = 0;  // sessions each client round-robins
  std::size_t evals = 60;  // per-session budget
  std::size_t batch = 4;   // sync: round size; async: tokens outstanding
  std::size_t max_resident = 0;
};

Shape shape_for(bool async) {
  // svc_evict: 64 live sessions against 16 resident slots (16 stripes, one
  // slot each): four live sessions share each slot, so nearly every
  // suggest finds its session evicted and the resume share stays fixed.
  // svc_async: 8 live sessions, no cap, nothing is ever evicted.
  return async ? Shape{true, 2, 4, 80, 4, 0} : Shape{false, 2, 32, 60, 4, 16};
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Blocking line client over the daemon's Unix socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("client socket: " + path);
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect '" + path +
                               "': " + std::strerror(errno));
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string rpc(const std::string& request) {
    const std::string out = request + "\n";
    std::string_view data = out;
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0) {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("daemon closed the connection");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// What the handler wrapper saw for one verb, handed to the client that
/// sent it. Keyed by session: a session has one verb in flight at a time.
struct ServerRecord {
  std::uint64_t handle_ns = 0;
  CallLog log;
};

class Tap {
 public:
  void put(std::string session, ServerRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[std::move(session)] = std::move(record);
  }
  ServerRecord take(const std::string& session) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(session);
    if (it == records_.end()) {
      return {};
    }
    ServerRecord r = std::move(it->second);
    records_.erase(it);
    return r;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, ServerRecord> records_;
};

std::string session_of(std::string_view line) {
  constexpr std::string_view key = "\"session\":\"";
  std::size_t p = line.find(key);
  if (p == std::string_view::npos) {
    return {};
  }
  p += key.size();
  return std::string(line.substr(p, line.find('"', p) - p));
}

/// The daemon: manager, wire service and socket server. Construction is
/// the measured set-up.
class Daemon {
 public:
  Daemon(const std::string& dir, const Shape& shape, Tap* tap)
      : journal_dir_(dir + "/journals") {
    const auto t0 = Clock::now();
    hpb::core::SessionFactory factory = hpb::service::dataset_session_factory();
    if (tap != nullptr) {
      factory = probed_factory(std::move(factory));
    }
    hpb::core::SessionManagerConfig config;
    config.journal_dir = journal_dir_;
    config.max_resident = shape.max_resident;
    manager_ = std::make_unique<hpb::core::SessionManager>(factory, config);
    wire_ = std::make_unique<hpb::service::WireService>(*manager_);
    hpb::service::LineServer::Handler handler;
    if (tap == nullptr) {
      handler = [wire = wire_.get()](std::string_view line) {
        return wire->handle_line(line);
      };
    } else {
      handler = [wire = wire_.get(), tap](std::string_view line) {
        ServerRecord record;
        std::string response;
        {
          ScopedCallLog scope(record.log);
          const std::uint64_t start = now_ns();
          response = wire->handle_line(line);
          record.handle_ns = now_ns() - start;
        }
        tap->put(session_of(line), std::move(record));
        return response;
      };
    }
    hpb::service::ServerConfig server_config;
    server_config.unix_path = dir + "/d.sock";
    server_ = std::make_unique<hpb::service::LineServer>(std::move(handler),
                                                         server_config);
    server_->start();
    // Fill the factory's dataset cache (shared by every copy of it), which
    // the first create would otherwise pay.
    hpb::core::SessionSpec spec;
    spec.name = "cache-fill";
    spec.dataset = kDataset;
    (void)factory(spec);
    setup_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
  }

  ~Daemon() { server_->stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  [[nodiscard]] const std::string& socket_path() const {
    return server_->unix_path();
  }
  [[nodiscard]] const std::string& journal_dir() const { return journal_dir_; }
  [[nodiscard]] hpb::core::SessionManager& manager() { return *manager_; }
  [[nodiscard]] hpb::service::WireService& wire() { return *wire_; }

 private:
  std::string journal_dir_;
  std::unique_ptr<hpb::core::SessionManager> manager_;
  std::unique_ptr<hpb::service::WireService> wire_;
  std::unique_ptr<hpb::service::LineServer> server_;
  double setup_s_ = 0.0;
};

enum class Verb { kCreate, kSuggest, kObserve, kClose };

struct VerbSample {
  Verb verb = Verb::kCreate;
  double rtt_ms = 0.0;
  std::size_t bytes = 0;
  // Traced storms only.
  double handle_ms = 0.0;
  double build_ms = 0.0;
  bool resumed = false;
  double replay_ms = 0.0;
  double live_ms = 0.0;
  double teardown_ms = 0.0;  // tuners destroyed by evictions in this verb
  // Client 0 of traced storms only (negative: not measured).
  double syncs = -1.0;
  double sync_probe_ms = -1.0;
  double status_ms = -1.0;
  double read_ms = -1.0;
  double reopen_ms = -1.0;

  /// Journal syncs of appended lines (a resume's reopen adds one more).
  [[nodiscard]] double line_syncs() const { return syncs - (resumed ? 1 : 0); }
};

struct ClientStats {
  std::vector<VerbSample> verbs;
  std::vector<TunerCall> calls;
  std::vector<double> factory_ms;
  std::vector<double> teardown_ms;
  std::uint64_t replay_suggests = 0;
  std::uint64_t live_suggests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t evals = 0;
  double wall_s = 0.0;  // this client's time in the storm
  std::vector<std::uint64_t> hashes;  // per slot
  std::vector<double> best;           // per slot
  std::vector<bool> complete;         // per slot: budget reached, finite best
  std::string error;
};

struct StormSetup {
  const Shape& shape;
  const Options& opt;
  Daemon& daemon;
  Tap* tap;
  std::size_t storm;
  std::string shadow_dir;  // shadow measurement files (traced storms)
};

std::string config_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + hpb::obs::json_double(values[i]);
  }
  return out + "]";
}

/// Write+fsync one journal-sized line to `fd`; milliseconds.
double probe_sync(int fd) {
  static const std::string line(96, 'x');
  const auto t0 = Clock::now();
  if (::write(fd, line.data(), line.size()) !=
          static_cast<ssize_t>(line.size()) ||
      ::fsync(fd) != 0) {
    throw std::runtime_error("sync probe failed");
  }
  return ms_between(t0, Clock::now());
}

/// One client's share of a storm, on the client's connection: create its
/// window of sessions, drive each to its budget round-robin, close them.
class ClientRun {
 public:
  ClientRun(const StormSetup& s, std::size_t client, Client& conn,
            hpb::tabular::TabularObjective& dataset, ClientStats& out)
      : s_(s), client_(client), dataset_(dataset), out_(out), conn_(conn) {
    counted_ = s.tap != nullptr && client == 0;
    if (counted_) {
      const std::string probe = s.shadow_dir + "/sync-probe";
      probe_fd_ = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (probe_fd_ < 0) {
        throw std::runtime_error("open " + probe);
      }
    }
  }
  ~ClientRun() {
    if (probe_fd_ >= 0) {
      ::close(probe_fd_);
    }
  }
  ClientRun(const ClientRun&) = delete;
  ClientRun& operator=(const ClientRun&) = delete;

  void run() {
    const Shape& shape = s_.shape;
    slots_.resize(shape.window);
    out_.hashes.assign(shape.window, 0);
    out_.best.assign(shape.window, 0.0);
    out_.complete.assign(shape.window, false);
    for (std::size_t i = 0; i < shape.window; ++i) {
      Slot& slot = slots_[i];
      slot.name = "c" + std::to_string(client_) + "-g" +
                  std::to_string(s_.storm) + "-s" + std::to_string(i);
      const std::uint64_t seed =
          hpb::splitmix64(s_.opt.seed * 0x100000001B3ULL + client_ * 1000 + i) >> 32;
      std::string create = "{\"verb\":\"create\",\"session\":\"" + slot.name +
                           "\",\"dataset\":\"" + kDataset +
                           "\",\"method\":\"hiperbot\",\"seed\":" +
                           std::to_string(seed) + ",\"batch_size\":" +
                           std::to_string(shape.batch) +
                           ",\"max_evaluations\":" +
                           std::to_string(shape.evals);
      create += shape.async ? ",\"mode\":\"async\"}" : "}";
      if (!call(Verb::kCreate, slot.name, create)) {
        return;
      }
      if (shape.async && !ask(i, shape.batch)) {
        return;
      }
    }
    std::size_t active = shape.window;
    while (active > 0) {
      for (std::size_t i = 0; i < shape.window; ++i) {
        if (slots_[i].done) {
          continue;
        }
        const bool ok = shape.async ? async_step(i) : sync_round(i);
        if (!ok) {
          return;
        }
        if (slots_[i].done) {
          --active;
        }
      }
    }
  }

 private:
  struct Slot {
    std::string name;
    std::size_t issued = 0;    // configurations suggested
    std::size_t observed = 0;  // results reported
    std::deque<std::pair<std::uint64_t, double>> outstanding;  // async
    SequenceHash hash;
    bool done = false;
  };

  /// Send one verb and record its sample; the parsed response when the
  /// daemon answered ok.
  std::optional<JsonValue> call(Verb verb, const std::string& session,
                                const std::string& request) {
    VerbSample v;
    v.verb = verb;
    const std::uint64_t ops_before =
        counted_ ? hpb::fs::fault_ops_matched() : 0;
    const auto t0 = Clock::now();
    const std::string response = conn_.rpc(request);
    v.rtt_ms = ms_between(t0, Clock::now());
    v.bytes = request.size() + response.size() + 2;
    ++out_.attempted;
    if (s_.tap != nullptr) {
      attribute(verb, session, s_.tap->take(session), ops_before, v);
    }
    out_.verbs.push_back(v);
    JsonValue parsed = hpb::service::parse_json(response);
    const JsonValue* ok = parsed.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      ++out_.failed;
      out_.error = session + ": " + response;
      return std::nullopt;
    }
    return parsed;
  }

  /// Split the server-side record of one traced verb into layers.
  void attribute(Verb verb, const std::string& session, ServerRecord record,
                 std::uint64_t ops_before, VerbSample& v) {
    v.handle_ms = static_cast<double>(record.handle_ns) * 1e-6;
    for (const std::uint64_t ns : record.log.factory_ns) {
      v.build_ms += static_cast<double>(ns) * 1e-6;
      out_.factory_ms.push_back(static_cast<double>(ns) * 1e-6);
    }
    for (const std::uint64_t ns : record.log.teardown_ns) {
      v.teardown_ms += static_cast<double>(ns) * 1e-6;
      out_.teardown_ms.push_back(static_cast<double>(ns) * 1e-6);
    }
    // A verb that ran the factory on a live session resumed it: every tuner
    // call but the last replayed the journal, the last is the verb's own.
    const std::vector<TunerCall>& calls = record.log.calls;
    v.resumed = !record.log.factory_ns.empty() && verb != Verb::kCreate;
    const std::size_t live_begin =
        v.resumed && !calls.empty() ? calls.size() - 1 : 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const bool live = i >= live_begin;
      (live ? v.live_ms : v.replay_ms) += calls[i].ms();
      if (calls[i].kind == CallKind::kSuggest) {
        ++(live ? out_.live_suggests : out_.replay_suggests);
      }
    }
    out_.calls.insert(out_.calls.end(), calls.begin(), calls.end());
    if (!counted_) {
      return;
    }
    // Every journal line is one write_all plus one sync_fd; a resume adds
    // one sync_fd (the truncate in JournalWriter::append) with no write.
    // A create also fsyncs the journals directory, whose path names no
    // session, so the plan cannot match it: it is added here.
    const std::uint64_t ops = hpb::fs::fault_ops_matched() - ops_before;
    v.syncs = static_cast<double>(ops + (v.resumed ? 1 : 0)) / 2.0 +
              (verb == Verb::kCreate ? 1.0 : 0.0);
    v.sync_probe_ms = probe_sync(probe_fd_);
    // The wire + manager work every verb pays (parse, lease, status,
    // serialize), as a status verb handled in-process. Only where it
    // cannot resume the session: sync sessions are pinned while a round is
    // in flight, async ones are never evicted here.
    if (s_.shape.async || verb == Verb::kSuggest) {
      const std::string status =
          "{\"verb\":\"status\",\"session\":\"" + session + "\"}";
      const auto t0 = Clock::now();
      (void)s_.daemon.wire().handle_line(status);
      v.status_ms = ms_between(t0, Clock::now());
    }
    if (v.resumed) {
      shadow_resume(session, v);
    }
  }

  /// What resuming cost the journal layer, replayed on a synced copy of
  /// the session's journal: read_journal, then JournalWriter::append (the
  /// truncate to the valid prefix and its fsync).
  void shadow_resume(const std::string& session, VerbSample& v) {
    const std::string copy = s_.shadow_dir + "/shadow.hpbj";
    std::filesystem::copy_file(
        s_.daemon.journal_dir() + "/" + session + ".hpbj", copy,
        std::filesystem::copy_options::overwrite_existing);
    const int fd = ::open(copy.c_str(), O_WRONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) {
      ::close(fd);
    }
    if (!synced) {
      throw std::runtime_error("shadow journal copy failed");
    }
    const auto t0 = Clock::now();
    const hpb::core::JournalContents contents = hpb::core::read_journal(copy);
    const auto t1 = Clock::now();
    { const auto writer = hpb::core::JournalWriter::append(copy, contents); }
    v.read_ms = ms_between(t0, t1);
    v.reopen_ms = ms_between(t1, Clock::now());
  }

  /// Evaluate one suggested configuration client-side and set `json` to
  /// its wire form.
  double evaluate(const JsonValue& config, Slot& slot, std::string& json) {
    std::vector<double> values;
    for (const JsonValue& x : config.as_array()) {
      values.push_back(x.as_number());
      slot.hash.add(x.as_number());
    }
    json = config_json(values);
    hpb::space::Configuration c;
    c.values() = std::move(values);
    return dataset_.evaluate_result(c).value;
  }

  /// Sync: one suggest + observe round.
  bool sync_round(std::size_t i) {
    Slot& slot = slots_[i];
    const std::optional<JsonValue> suggest =
        call(Verb::kSuggest, slot.name,
             "{\"verb\":\"suggest\",\"session\":\"" + slot.name + "\"}");
    if (!suggest) {
      return false;
    }
    const auto& configs = suggest->find("configs")->as_array();
    std::string results = "[";
    for (std::size_t j = 0; j < configs.size(); ++j) {
      std::string config;
      const double y = evaluate(configs[j], slot, config);
      results += (j > 0 ? ",{\"config\":" : "{\"config\":") + config +
                 ",\"y\":" + hpb::obs::json_double(y) + "}";
    }
    slot.issued += configs.size();
    const std::optional<JsonValue> observe =
        call(Verb::kObserve, slot.name,
             "{\"verb\":\"observe\",\"session\":\"" + slot.name +
                 "\",\"results\":" + results + "]}");
    if (!observe) {
      return false;
    }
    slot.observed += configs.size();
    out_.evals += configs.size();
    return slot.observed < s_.shape.evals || finish(i, *observe);
  }

  /// Async: ask for `count` more tokens; evaluates them on arrival.
  bool ask(std::size_t i, std::size_t count) {
    Slot& slot = slots_[i];
    const std::optional<JsonValue> suggest =
        call(Verb::kSuggest, slot.name,
             "{\"verb\":\"suggest\",\"session\":\"" + slot.name +
                 "\",\"count\":" + std::to_string(count) + "}");
    if (!suggest) {
      return false;
    }
    const auto& configs = suggest->find("configs")->as_array();
    const auto& tokens = suggest->find("tokens")->as_array();
    for (std::size_t j = 0; j < configs.size(); ++j) {
      std::string unused;
      const double y = evaluate(configs[j], slot, unused);
      const auto token = static_cast<std::uint64_t>(tokens[j].as_number());
      slot.hash.add(token);
      slot.outstanding.emplace_back(token, y);
    }
    slot.issued += configs.size();
    return true;
  }

  /// Async: report the oldest outstanding token, refill with count 1.
  bool async_step(std::size_t i) {
    Slot& slot = slots_[i];
    const auto [token, y] = slot.outstanding.front();
    slot.outstanding.pop_front();
    const std::optional<JsonValue> observe =
        call(Verb::kObserve, slot.name,
             "{\"verb\":\"observe\",\"session\":\"" + slot.name +
                 "\",\"results\":[{\"token\":" + std::to_string(token) +
                 ",\"y\":" + hpb::obs::json_double(y) + "}]}");
    if (!observe) {
      return false;
    }
    ++slot.observed;
    ++out_.evals;
    if (slot.issued < s_.shape.evals && !ask(i, 1)) {
      return false;
    }
    return slot.observed < s_.shape.evals || finish(i, *observe);
  }

  /// Budget reached: check the final status (every evaluation counted, a
  /// finite best), record the best, close.
  bool finish(std::size_t i, const JsonValue& observe) {
    Slot& slot = slots_[i];
    const JsonValue& status = *observe.find("status");
    const JsonValue* best = status.find("best_value");
    out_.complete[i] =
        static_cast<std::size_t>(status.find("evaluations")->as_number()) ==
            s_.shape.evals &&
        best != nullptr && best->is_number();
    out_.best[i] = best != nullptr && best->is_number() ? best->as_number()
                                                        : 0.0;
    out_.hashes[i] = slot.hash.value();
    slot.done = true;
    return call(Verb::kClose, slot.name,
                "{\"verb\":\"close\",\"session\":\"" + slot.name + "\"}")
        .has_value();
  }

  const StormSetup& s_;
  std::size_t client_;
  hpb::tabular::TabularObjective& dataset_;
  ClientStats& out_;
  Client& conn_;
  bool counted_ = false;
  int probe_fd_ = -1;
  std::vector<Slot> slots_;
};

struct StormResult {
  std::vector<ClientStats> clients;
  double wall_s = 0.0;
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
  double journal_bytes = 0.0;
};

/// One storm over the clients' connections (one per client, kept open for
/// the daemon's lifetime like a long-lived client's).
StormResult run_storm(const StormSetup& s,
                      std::vector<std::unique_ptr<Client>>& conns,
                      std::vector<hpb::tabular::TabularObjective>& datasets) {
  StormResult r;
  r.clients.resize(s.shape.clients);
  const hpb::core::ManagerHealth before = s.daemon.manager().health();
  if (s.tap != nullptr) {
    // Never fires: it only counts client 0's journal writes and syncs.
    hpb::fs::set_fault_plan({.path_substring = s.daemon.journal_dir() + "/c0-",
                             .error_number = EIO,
                             .skip = std::numeric_limits<std::uint64_t>::max()});
  }
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < s.shape.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const auto start = Clock::now();
        ClientRun run(s, c, *conns[c], datasets[c], r.clients[c]);
        run.run();
        r.clients[c].wall_s =
            std::chrono::duration<double>(Clock::now() - start).count();
      } catch (const std::exception& e) {
        r.clients[c].error = e.what();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (s.tap != nullptr) {
    hpb::fs::clear_fault_plan();
  }
  const hpb::core::ManagerHealth after = s.daemon.manager().health();
  r.evicted = after.evicted - before.evicted;
  r.resumed = after.resumed - before.resumed;
  const std::string tag = "-g" + std::to_string(s.storm) + "-";
  for (const auto& entry :
       std::filesystem::directory_iterator(s.daemon.journal_dir())) {
    if (entry.path().filename().string().find(tag) != std::string::npos) {
      r.journal_bytes += static_cast<double>(entry.file_size());
    }
  }
  return r;
}

/// Every storm of a run uses the same session seeds, so every storm must
/// reproduce the first one's suggestion sequences and bests bit for bit.
struct Reference {
  bool set = false;
  std::vector<std::vector<std::uint64_t>> hashes;
  double best_y = 0.0;
};

void check_storm(const StormResult& r, const char* phase, Reference& ref,
                 Result& checks) {
  double best_sum = 0.0;
  std::size_t sessions = 0;
  std::vector<std::vector<std::uint64_t>> hashes;
  for (std::size_t c = 0; c < r.clients.size(); ++c) {
    const ClientStats& cs = r.clients[c];
    if (!cs.error.empty()) {
      checks.fail_check(std::string(phase) + " client " + std::to_string(c) +
                        ": " + cs.error);
      return;
    }
    for (std::size_t i = 0; i < cs.complete.size(); ++i) {
      if (!cs.complete[i]) {
        checks.fail_check(std::string(phase) + " session c" +
                          std::to_string(c) + "-s" + std::to_string(i) +
                          " did not reach its budget");
      }
      best_sum += cs.best[i];
      ++sessions;
    }
    hashes.push_back(cs.hashes);
  }
  const double best_y = best_sum / static_cast<double>(sessions);
  if (!ref.set) {
    ref = {true, hashes, best_y};
    return;
  }
  if (hashes != ref.hashes) {
    checks.fail_check(std::string(phase) +
                      " storm: a session's suggestion sequence differs from "
                      "the run's first storm");
  }
  if (best_y != ref.best_y) {
    checks.fail_check(std::string(phase) + " storm: best_y " +
                      fmt(best_y, 17) + " != " + fmt(ref.best_y, 17));
  }
}

/// Storms of one daemon, merged.
struct Phase {
  std::vector<VerbSample> verbs;
  std::vector<TunerCall> calls;
  std::vector<double> factory_ms;
  std::vector<double> teardown_ms;
  std::uint64_t replay_suggests = 0;
  std::uint64_t live_suggests = 0;
  std::size_t evals = 0;
  double wall_s = 0.0;
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
  double journal_bytes = 0.0;
  Blocks blocks;

  /// Untraced phases keep only block summaries and totals; traced ones
  /// also keep every verb sample and tuner call for the layer analysis.
  void add(const StormResult& r, bool keep_samples) {
    // Throughput is summed over clients, each over its own time: the storm
    // ends when the slower client does, and the faster one's idle wait is
    // a property of the storm barrier, not of the daemon.
    std::vector<double> suggest, observe;
    double rate = 0.0;
    for (const ClientStats& c : r.clients) {
      for (const VerbSample& v : c.verbs) {
        if (v.verb == Verb::kSuggest) {
          suggest.push_back(v.rtt_ms);
        } else if (v.verb == Verb::kObserve) {
          observe.push_back(v.rtt_ms);
        }
      }
      rate += c.wall_s > 0 ? static_cast<double>(c.evals) / c.wall_s : 0.0;
    }
    blocks.add(suggest, observe, rate);
    for (const ClientStats& c : r.clients) {
      if (keep_samples) {
        verbs.insert(verbs.end(), c.verbs.begin(), c.verbs.end());
        calls.insert(calls.end(), c.calls.begin(), c.calls.end());
        factory_ms.insert(factory_ms.end(), c.factory_ms.begin(),
                          c.factory_ms.end());
        teardown_ms.insert(teardown_ms.end(), c.teardown_ms.begin(),
                           c.teardown_ms.end());
      }
      replay_suggests += c.replay_suggests;
      live_suggests += c.live_suggests;
      evals += c.evals;
    }
    wall_s += r.wall_s;
    evicted += r.evicted;
    resumed += r.resumed;
    journal_bytes += r.journal_bytes;
  }

  /// Values of `field` over the verbs of one type that pass `keep`.
  template <typename Field, typename Keep>
  [[nodiscard]] std::vector<double> collect(Verb verb, Field field,
                                            Keep keep) const {
    std::vector<double> out;
    for (const VerbSample& v : verbs) {
      if (v.verb == verb && keep(v)) {
        out.push_back(field(v));
      }
    }
    return out;
  }
};

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Layer sum along the blocking path of one verb type, over client 0's
/// verbs (the only ones with counted syncs and shadow measurements). Each
/// verb's layers are summed first; the result is client p50 minus the p50
/// of those sums. Prints the per-layer p50s as the breakdown.
double layer_sum(const Phase& p, Verb verb, const char* label,
                 double sync_ms, double status_ms) {
  struct Part {
    const char* name;
    std::function<double(const VerbSample&)> f;
  };
  const auto opt = [](double x) { return x > 0.0 ? x : 0.0; };
  const Part parts[] = {
      {"service.transport",
       [](const VerbSample& v) { return v.rtt_ms - v.handle_ms; }},
      {"service.status_verb(shadow)",
       [&](const VerbSample&) { return status_ms; }},
      {"manager.build", [](const VerbSample& v) { return v.build_ms; }},
      {"manager.teardown", [](const VerbSample& v) { return v.teardown_ms; }},
      {"journal.read(shadow)",
       [&](const VerbSample& v) { return opt(v.read_ms); }},
      {"journal.reopen(shadow)",
       [&](const VerbSample& v) { return opt(v.reopen_ms); }},
      {"tuner.replay", [](const VerbSample& v) { return v.replay_ms; }},
      {"tuner.live", [](const VerbSample& v) { return v.live_ms; }},
      {"journal.sync(lines x shadow p50)",
       [&](const VerbSample& v) { return v.line_syncs() * sync_ms; }},
  };
  std::vector<double> client, sums;
  std::string line = std::string("layer sum, ") + label + " (client 0, p50 ms):";
  for (const Part& part : parts) {
    line += std::string(" ") + part.name + "=" +
            fmt(median(p.collect(verb, part.f, [](const VerbSample& v) {
              return v.syncs >= 0.0;
            })));
  }
  for (const VerbSample& v : p.verbs) {
    if (v.verb != verb || v.syncs < 0.0) {
      continue;
    }
    double sum = 0.0;
    for (const Part& part : parts) {
      sum += part.f(v);
    }
    client.push_back(v.rtt_ms);
    sums.push_back(sum);
  }
  const double c = median(client);
  const double residual = c - median(sums);
  note(line);
  note(std::string("layer sum, ") + label + ": client p50=" + fmt(c) +
       " layers p50=" + fmt(median(sums)) + " unattributed=" + fmt(residual) +
       " (" + fmt(c > 0 ? 100.0 * residual / c : 0.0, 3) + "%, " +
       (c > 0 && std::abs(residual) <= 0.1 * c ? "within" : "OUTSIDE") +
       " 10%) over n=" + std::to_string(client.size()));
  return residual;
}

void service_layers(const Phase& p, double untraced_suggest_p50,
                    std::size_t num_params, Layers& L) {
  const auto all = [](const VerbSample&) { return true; };
  const auto c0 = [](const VerbSample& v) { return v.syncs >= 0.0; };
  const auto handle = [](const VerbSample& v) { return v.handle_ms; };
  const auto transport = [](const VerbSample& v) {
    return v.rtt_ms - v.handle_ms;
  };
  const auto syncs = [](const VerbSample& v) { return v.syncs; };
  L.handle_suggest_ms = median(p.collect(Verb::kSuggest, handle, all));
  L.handle_observe_ms = median(p.collect(Verb::kObserve, handle, all));
  L.transport_suggest_ms = median(p.collect(Verb::kSuggest, transport, all));
  L.transport_observe_ms = median(p.collect(Verb::kObserve, transport, all));
  double bytes = 0.0;
  std::vector<double> resumed_handle, hot_handle, sync_probe, status_ms,
      read_ms, reopen_ms, replay;
  for (const VerbSample& v : p.verbs) {
    bytes += static_cast<double>(v.bytes);
    if (v.resumed) {
      resumed_handle.push_back(v.handle_ms);
      replay.push_back(v.replay_ms);
    } else if (v.verb == Verb::kSuggest || v.verb == Verb::kObserve) {
      hot_handle.push_back(v.handle_ms);
    }
    if (v.sync_probe_ms >= 0.0) {
      sync_probe.push_back(v.sync_probe_ms);
    }
    if (v.status_ms >= 0.0) {
      status_ms.push_back(v.status_ms);
    }
    if (v.read_ms >= 0.0) {
      read_ms.push_back(v.read_ms);
      reopen_ms.push_back(v.reopen_ms);
    }
  }
  const auto verbs = static_cast<double>(p.verbs.size());
  L.bytes_per_verb = bytes / verbs;
  L.resumes_per_verb = static_cast<double>(p.resumed) / verbs;
  L.evictions_per_verb = static_cast<double>(p.evicted) / verbs;
  L.build_ms = median(p.factory_ms);
  L.teardown_ms = median(p.teardown_ms);
  L.resume_verb_ms = median(resumed_handle);
  L.hot_verb_ms = median(hot_handle);
  L.syncs_create = mean_of(p.collect(Verb::kCreate, syncs, c0));
  L.syncs_suggest = mean_of(p.collect(Verb::kSuggest, syncs, c0));
  L.syncs_observe = mean_of(p.collect(Verb::kObserve, syncs, c0));
  L.syncs_close = mean_of(p.collect(Verb::kClose, syncs, c0));
  L.journal_bytes_per_eval = p.journal_bytes / static_cast<double>(p.evals);
  L.journal_sync_ms = median(sync_probe);
  L.journal_read_ms = median(read_ms);
  L.journal_reopen_ms = median(reopen_ms);
  L.status_verb_ms = median(status_ms);
  L.tuner_suggest_ms = median(p.collect(
      Verb::kSuggest, [](const VerbSample& v) { return v.live_ms; }, all));
  L.tuner_observe_ms = median(p.collect(
      Verb::kObserve, [](const VerbSample& v) { return v.live_ms; }, all));
  L.tuner_replay_ms = median(replay);
  L.replay_ratio = p.live_suggests > 0
                       ? static_cast<double>(p.replay_suggests) /
                             static_cast<double>(p.live_suggests)
                       : 0.0;
  fill_tuner_layers(p.calls, num_params, L);
  L.unattributed_suggest_ms = layer_sum(p, Verb::kSuggest, "suggest",
                                        L.journal_sync_ms, L.status_verb_ms);
  L.unattributed_observe_ms = layer_sum(p, Verb::kObserve, "observe",
                                        L.journal_sync_ms, L.status_verb_ms);
  const double traced = p.blocks.summarize().suggest_p50_ms;
  L.overhead_frac = untraced_suggest_p50 > 0.0
                        ? (traced - untraced_suggest_p50) / untraced_suggest_p50
                        : 0.0;
  note("traced: " + std::to_string(p.verbs.size()) + " verbs, " +
       std::to_string(p.factory_ms.size()) + " factory calls, " +
       std::to_string(p.replay_suggests) + " replayed / " +
       std::to_string(p.live_suggests) + " live suggest_batch calls, " +
       std::to_string(sync_probe.size()) + " shadow syncs");
}

}  // namespace

Outcome run_service(const Options& opt, bool async, Result& checks) {
  const Shape shape = shape_for(async);
  Outcome out;
  // Client-side evaluation oracles, one per client thread.
  std::vector<hpb::tabular::TabularObjective> datasets;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    datasets.push_back(hpb::apps::dataset_by_name(kDataset).make());
  }
  const std::size_t num_params = datasets.front().space().num_params();
  const auto dir_for = [&](const std::string& tag) {
    const std::string dir = opt.work_dir + "/" + tag;
    std::filesystem::create_directories(dir);
    return dir;
  };

  Reference ref;
  std::size_t storm = 0;
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> setups;
  const auto time_setup = [&] {
    const Daemon daemon(dir_for("setup" + std::to_string(setups.size())),
                        shape, nullptr);
    setups.push_back(daemon.setup_s());
  };
  const auto measure = [&](Daemon& daemon, Tap* tap, const std::string& dir,
                           Phase& phase, const char* label) {
    StormSetup s{shape, opt, daemon, tap, 0, dir};
    std::vector<std::unique_ptr<Client>> conns;
    for (std::size_t c = 0; c < shape.clients; ++c) {
      conns.push_back(std::make_unique<Client>(daemon.socket_path()));
    }
    // Warm-up storms (checked, not measured) for kWarmupS, then measured
    // storms until time is up.
    auto t0 = Clock::now();
    do {
      s.storm = storm++;
      const StormResult warm = run_storm(s, conns, datasets);
      check_storm(warm, label, ref, checks);
      for (const ClientStats& c : warm.clients) {
        out.attempted += c.attempted;
        out.failed += c.failed;
      }
    } while (std::chrono::duration<double>(Clock::now() - t0).count() <
                 kWarmupS &&
             checks.correct);
    t0 = Clock::now();
    do {
      s.storm = storm++;
      const StormResult r = run_storm(s, conns, datasets);
      check_storm(r, label, ref, checks);
      for (const ClientStats& c : r.clients) {
        out.attempted += c.attempted;
        out.failed += c.failed;
      }
      phase.add(r, tap != nullptr);
      if (tap == nullptr && !opt.trace) {
        time_setup();
      }
    } while (std::chrono::duration<double>(Clock::now() - t0).count() <
                 measure_s &&
             checks.correct);
  };

  Phase untraced;
  {
    // The end-to-end run times set-ups; the traced one needs only its
    // daemons.
    for (std::size_t i = 0; i < (opt.trace ? 0 : kSetups); ++i) {
      time_setup();
    }
    const std::string dir = dir_for("untraced");
    Daemon daemon(dir, shape, nullptr);
    measure(daemon, nullptr, dir, untraced, "untraced");
  }
  EndToEnd& e = out.e2e;
  e.setup_s = median(setups);
  e.timing = untraced.blocks.summarize();
  e.best_y = ref.best_y;
  note(std::string(async ? "svc_async" : "svc_evict") + ": " +
       std::to_string(storm) + " storms of " +
       std::to_string(shape.clients * shape.window) + " sessions x " +
       std::to_string(shape.evals) + " evals (batch " +
       std::to_string(shape.batch) + ", max_resident " +
       std::to_string(shape.max_resident) + "), untraced wall " +
       fmt(untraced.wall_s) + " s; set-up p50 " + fmt(e.setup_s * 1e3) +
       " ms over " + std::to_string(setups.size()) + " set-ups");

  if (opt.trace) {
    Tap tap;
    Phase traced;
    const std::string dir = dir_for("traced");
    auto daemon = std::make_unique<Daemon>(dir, shape, &tap);
    measure(*daemon, &tap, dir, traced, "traced");
    daemon.reset();
    service_layers(traced, e.timing.suggest_p50_ms, num_params, out.layers);
    std::vector<double> enumerate_s;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      (void)datasets.front().space().enumerate();
      enumerate_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    out.layers.enumerate_s = median(enumerate_s);
  }
  e.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
