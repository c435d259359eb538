// Chaos harness for the tuning service: proves that a daemon SIGKILLed
// mid-storm comes back with every session intact.
//
// The daemon runs as a *separate process* (this binary re-exec'd with
// --serve-child), journaling every session and holding at most
// kMaxResident of them in memory, fewer than the storm's sessions, so
// sessions are evicted and resumed from their journals throughout. A client
// drives interleaved sync sessions round-robin (create, then suggest →
// evaluate client-side → observe until the budget, then close). Two passes
// run the same storm:
//   - the reference pass against an unharmed daemon records every
//     session's suggest sequence;
//   - the kill pass SIGKILLs the daemon once half the suggests are
//     answered, with a window of unobserved rounds in flight, restarts it
//     on the same session dir, resyncs every client from `status`, and
//     finishes the storm.
// The verdict: the kill pass's suggest sequences are bitwise-identical to
// the reference (rounds lost in the crash are re-suggested identically),
// at least one round was re-suggested, and in both passes the daemon's
// `health` verb reports sessions evicted and resumed. The kill→healthy
// recovery latency is measured through `health` as well.
//
// All run artifacts (socket, session journals) live in a private mkdtemp
// directory that is removed on every exit path — normal return, die(),
// SIGINT/SIGTERM — so an interrupted run never litters the repository
// with stray sockets or orphan daemons.
//
// Latency and throughput of the daemon are measured by perfbench
// (`python3 perfbench/run.py --workload svc_evict|svc_async`), not here.
//
// Usage: service_storm [--smoke] [--out PATH]
//   --smoke   8 sessions instead of 32 (CI wiring check, label `bench`)
//   --out     JSON output path (default BENCH_service.json)
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/session_manager.hpp"
#include "obs/json_util.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// The storm's sessions: `random` on kripke, two suggestions a round.
constexpr const char* kDataset = "kripke";
constexpr const char* kMethod = "random";
constexpr std::size_t kBatch = 2;
/// The daemon's residency cap, below every storm's session count, so both
/// passes run through eviction and journal resume.
constexpr std::size_t kMaxResident = 4;

// ---------------------------------------------------------------------------
// Run-artifact cleanup, robust against every exit path.
//
// The signal handler may only touch async-signal-safe calls: it kills the
// child daemon (so no orphan outlives the harness), unlinks the bound
// socket, and _exits. The full temp-dir removal runs on the normal and
// die() paths, where std::filesystem is allowed.

char g_temp_dir[512] = "";
char g_socket_path[512] = "";
std::atomic<int> g_child_pid{0};

void storm_signal_handler(int) {
  const int child = g_child_pid.load(std::memory_order_relaxed);
  if (child > 0) {
    ::kill(child, SIGKILL);
  }
  if (g_socket_path[0] != '\0') {
    ::unlink(g_socket_path);
  }
  ::_exit(130);
}

void remove_run_artifacts() {
  const int child = g_child_pid.exchange(0, std::memory_order_relaxed);
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  if (g_temp_dir[0] != '\0') {
    std::error_code ec;
    std::filesystem::remove_all(g_temp_dir, ec);
    g_temp_dir[0] = '\0';
  }
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "service_storm: %s\n", message.c_str());
  remove_run_artifacts();
  std::exit(1);
}

/// Copy `value` into a fixed buffer the signal handler can read.
void set_signal_path(char (&buffer)[512], const std::string& value) {
  if (value.size() < sizeof(buffer)) {
    std::memcpy(buffer, value.c_str(), value.size() + 1);
  }
}

std::string make_temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && base[0] != '\0' ? base
                                                                    : "/tmp") +
                     "/hpb_storm.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    die("mkdtemp '" + tmpl + "': " + std::strerror(errno));
  }
  const std::string dir(buf.data());
  set_signal_path(g_temp_dir, dir);
  return dir;
}

/// Blocking line-oriented client over a Unix socket. `fatal` clients die()
/// on any socket error; non-fatal ones report it through connected() /
/// empty rpc() results (the kill pass expects the daemon to vanish).
class LineClient {
 public:
  explicit LineClient(const std::string& path, bool fatal = true)
      : fatal_(fatal) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      fail("socket: " + std::string(std::strerror(errno)));
      return;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect '" + path + "': " + std::strerror(errno));
    }
  }
  ~LineClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// One request, one response line. Returns "" (never valid JSON) when a
  /// non-fatal client loses the server mid-call.
  std::string rpc(const std::string& request) {
    if (fd_ < 0) {
      return {};
    }
    std::string out = request + "\n";
    std::string_view data = out;
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        fail("send: " + std::string(std::strerror(errno)));
        return {};
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
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        fail("server closed the connection mid-response");
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void fail(const std::string& message) {
    if (fatal_) {
      die(message);
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
  bool fatal_ = true;
  std::string buffer_;
};

service::JsonValue expect_ok(const std::string& response) {
  service::JsonValue v = service::parse_json(response);
  const service::JsonValue* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    die("request failed: " + response);
  }
  return v;
}

/// Parse one suggest response's configs into value vectors.
std::vector<std::vector<double>> parse_configs(
    const service::JsonValue& response) {
  std::vector<std::vector<double>> out;
  const auto& configs = response.find("configs")->as_array();
  out.reserve(configs.size());
  for (const service::JsonValue& c : configs) {
    std::vector<double> values;
    values.reserve(c.as_array().size());
    for (const service::JsonValue& v : c.as_array()) {
      values.push_back(v.as_number());
    }
    out.push_back(std::move(values));
  }
  return out;
}

std::string config_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + obs::json_double(values[i]);
  }
  out += ']';
  return out;
}

double evaluate_values(tabular::TabularObjective& dataset,
                       const std::vector<double>& values) {
  space::Configuration config;
  config.values() = values;
  return dataset.evaluate_result(config).value;
}

struct Options {
  std::string out = "BENCH_service.json";
  bool smoke = false;
  /// This binary's own path (argv[0]); it is re-exec'd with --serve-child
  /// to host the daemon out of process.
  std::string self;
};

// ---------------------------------------------------------------------------
// The daemon: exactly what `hiperbot serve --max-resident kMaxResident`
// does, hosted by this binary so the harness needs no second executable.
// Runs until SIGTERM (clean shutdown) — or SIGKILL, which is the point.

std::atomic<bool> g_serve_child_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void serve_child_signal(int) {
  g_serve_child_stop.store(true, std::memory_order_relaxed);
}

int run_serve_child(const std::string& socket_path,
                    const std::string& session_dir) {
  std::signal(SIGTERM, serve_child_signal);
  std::signal(SIGINT, serve_child_signal);
  core::SessionManagerConfig mconfig;
  mconfig.journal_dir = session_dir;
  mconfig.max_resident = kMaxResident;
  core::SessionManager manager(service::dataset_session_factory(),
                               std::move(mconfig));
  service::WireService wire(manager);
  service::LineServer server(
      [&wire](std::string_view line) { return wire.handle_line(line); },
      {.unix_path = socket_path, .stop_flag = &g_serve_child_stop});
  server.serve();
  server.stop();
  return 0;
}

void spawn_daemon(const Options& opt, const std::string& socket_path,
                  const std::string& session_dir) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    die("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::execl(opt.self.c_str(), opt.self.c_str(), "--serve-child", "--socket",
            socket_path.c_str(), "--session-dir", session_dir.c_str(),
            static_cast<char*>(nullptr));
    // exec failed; nothing below the fork is safe except leaving.
    ::_exit(127);
  }
  g_child_pid.store(pid, std::memory_order_relaxed);
}

void kill_daemon(int signum) {
  const int pid = g_child_pid.exchange(0, std::memory_order_relaxed);
  ::kill(pid, signum);
  ::waitpid(pid, nullptr, 0);
}

/// The daemon's `health` object, polled until it answers: right after a
/// spawn, the wait is the daemon's startup (journal scan) latency.
service::JsonValue wait_healthy(const std::string& socket_path) {
  constexpr double kTimeoutMs = 30000.0;
  const auto t0 = Clock::now();
  while (true) {
    LineClient probe(socket_path, /*fatal=*/false);
    if (probe.connected()) {
      const std::string response = probe.rpc("{\"verb\":\"health\"}");
      if (!response.empty()) {
        return *expect_ok(response).find("health");
      }
    }
    if (elapsed_ms(t0) > kTimeoutMs) {
      die("daemon did not become healthy within 30000ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::uint64_t health_count(const service::JsonValue& health,
                           const char* key) {
  return static_cast<std::uint64_t>(health.find(key)->as_number());
}

struct ChaosStats {
  double recovery_ms = 0.0;
  std::uint64_t adopted_after_restart = 0;
  std::size_t resuggested_rounds = 0;
  std::size_t rounds = 0;
  /// The last daemon's `health` counters at the end of the pass.
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
};

/// Per-session suggest sequences: seq[name][round] is the canonical JSON
/// of that round's configs. Bitwise equality of these across the reference
/// and kill passes is the survivability verdict.
using SuggestSequences = std::map<std::string, std::vector<std::string>>;

/// Drive `sessions` interleaved sync sessions against an out-of-process
/// daemon. kill_after_suggests > 0 SIGKILLs the daemon once that many
/// suggests have been answered — with a window of unobserved rounds in
/// flight — restarts it on the same session dir, resyncs every session
/// from `status`, and finishes the workload.
SuggestSequences run_chaos_pass(const Options& opt,
                                const std::string& socket_path,
                                const std::string& session_dir,
                                tabular::TabularObjective& dataset,
                                std::size_t sessions, std::size_t evals,
                                std::size_t kill_after_suggests,
                                ChaosStats& stats) {
  spawn_daemon(opt, socket_path, session_dir);
  (void)wait_healthy(socket_path);
  auto client = std::make_unique<LineClient>(socket_path);

  struct ChaosSlot {
    std::string name;
    std::size_t seed = 0;
    std::size_t evals_done = 0;
    bool created = false;
    bool pending = false;  // a suggested round awaits its observe
    std::vector<std::vector<double>> round_configs;
    bool finished = false;
  };
  std::vector<ChaosSlot> slots(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    slots[i].name = "c" + std::to_string(i);
    slots[i].seed = 1000 + i;
  }
  SuggestSequences seq;
  std::size_t suggests_done = 0;
  bool killed = kill_after_suggests == 0;
  std::size_t unfinished = sessions;

  const std::string create_suffix =
      std::string("\",\"dataset\":\"") + kDataset + "\",\"method\":\"" +
      kMethod + "\",\"batch_size\":" + std::to_string(kBatch) +
      ",\"max_evaluations\":" + std::to_string(evals) + ",\"seed\":";

  const auto record_round = [&](ChaosSlot& s,
                                const std::vector<std::vector<double>>& cfgs) {
    std::string rendered;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      rendered += (i > 0 ? ";" : "") + config_json(cfgs[i]);
    }
    const std::size_t round = s.evals_done / kBatch;
    std::vector<std::string>& rounds = seq[s.name];
    if (round < rounds.size()) {
      // This round was already suggested before the kill; the resumed
      // daemon replayed the journal and must re-mint it bit for bit.
      if (rounds[round] != rendered) {
        die("resumed suggest for " + s.name + " round " +
            std::to_string(round) + " diverged:\n  before: " + rounds[round] +
            "\n  after:  " + rendered);
      }
      ++stats.resuggested_rounds;
    } else {
      rounds.push_back(rendered);
    }
  };

  const auto chaos_restart = [&]() {
    // SIGKILL: no destructors, no finalize records, fsync'd journals only
    // — the crash the journal exists for.
    kill_daemon(SIGKILL);
    const auto t0 = Clock::now();
    spawn_daemon(opt, socket_path, session_dir);
    stats.adopted_after_restart =
        health_count(wait_healthy(socket_path), "adopted");
    stats.recovery_ms = elapsed_ms(t0);
    client = std::make_unique<LineClient>(socket_path);
    // Resync every session from the restarted daemon's durable state: the
    // journal knows how many observations survived; unobserved rounds
    // were dropped and will be re-suggested (and checked against the
    // client-side record in record_round).
    for (ChaosSlot& s : slots) {
      if (s.finished) {
        continue;
      }
      s.pending = false;
      s.round_configs.clear();
      const std::string response =
          client->rpc("{\"verb\":\"status\",\"session\":\"" + s.name + "\"}");
      const service::JsonValue v = service::parse_json(response);
      const service::JsonValue* ok = v.find("ok");
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
        s.created = true;
        s.evals_done = static_cast<std::size_t>(
            v.find("status")->find("evaluations")->as_number());
      } else {
        // Never created (the kill beat its create verb): start over.
        s.created = false;
        s.evals_done = 0;
      }
    }
  };

  std::size_t cursor = 0;
  while (unfinished > 0) {
    ChaosSlot& s = slots[cursor % sessions];
    ++cursor;
    if (s.finished) {
      continue;
    }
    if (!s.created) {
      const std::string response =
          client->rpc("{\"verb\":\"create\",\"session\":\"" + s.name +
                      create_suffix + std::to_string(s.seed) + "}");
      const service::JsonValue v = service::parse_json(response);
      const service::JsonValue* ok = v.find("ok");
      if (ok == nullptr || !ok->is_bool() ||
          (!ok->as_bool() &&
           response.find("already exists") == std::string::npos)) {
        die("create failed: " + response);
      }
      // "already exists on disk (cold)" after a restart is adoption, not
      // failure: the journal survived the kill and the next verb resumes
      // it.
      s.created = true;
      continue;
    }
    if (!s.pending) {
      const service::JsonValue suggest = expect_ok(client->rpc(
          "{\"verb\":\"suggest\",\"session\":\"" + s.name + "\"}"));
      s.round_configs = parse_configs(suggest);
      record_round(s, s.round_configs);
      s.pending = true;
      ++suggests_done;
      if (!killed && suggests_done >= kill_after_suggests) {
        killed = true;
        chaos_restart();
      }
      continue;
    }
    std::string results = "[";
    for (std::size_t i = 0; i < s.round_configs.size(); ++i) {
      if (i > 0) {
        results += ',';
      }
      results += "{\"config\":" + config_json(s.round_configs[i]) +
                 ",\"y\":" +
                 obs::json_double(
                     evaluate_values(dataset, s.round_configs[i])) +
                 "}";
    }
    results += ']';
    const service::JsonValue observed = expect_ok(
        client->rpc("{\"verb\":\"observe\",\"session\":\"" + s.name +
                    "\",\"results\":" + results + "}"));
    s.evals_done = static_cast<std::size_t>(
        observed.find("status")->find("evaluations")->as_number());
    s.pending = false;
    if (s.evals_done >= evals) {
      expect_ok(client->rpc("{\"verb\":\"close\",\"session\":\"" + s.name +
                            "\"}"));
      s.finished = true;
      --unfinished;
    }
  }
  for (const auto& [name, rounds] : seq) {
    stats.rounds += rounds.size();
  }
  const service::JsonValue health =
      *expect_ok(client->rpc("{\"verb\":\"health\"}")).find("health");
  stats.evicted = health_count(health, "evicted");
  stats.resumed = health_count(health, "resumed");
  client.reset();
  kill_daemon(SIGTERM);
  return seq;
}

int run(const Options& opt) {
  std::signal(SIGINT, storm_signal_handler);
  std::signal(SIGTERM, storm_signal_handler);
  // Every run artifact lives under one private temp dir: no stray sockets
  // or journal trees in the working directory, one remove_all to clean up.
  const std::string temp_dir = make_temp_dir();
  const std::string socket_path = temp_dir + "/chaos.sock";
  set_signal_path(g_socket_path, socket_path);

  // The client-side copy of the dataset (the daemon's factory builds its
  // own; values are identical by construction).
  tabular::TabularObjective dataset = apps::dataset_by_name(kDataset).make();

  const std::size_t sessions = opt.smoke ? 8 : 32;
  const std::size_t evals = opt.smoke ? 4 : 6;
  const std::size_t total_suggests = sessions * (evals / kBatch);
  // Kill mid-stream: past the create wave, well short of done, with a
  // full window of unobserved rounds in flight.
  const std::size_t kill_after = std::max<std::size_t>(1, total_suggests / 2);
  std::printf(
      "service_storm: %zu %s sessions on %s x %zu evals (batch %zu), "
      "max_resident %zu, SIGKILL after %zu/%zu suggests\n",
      sessions, kMethod, kDataset, evals, kBatch, kMaxResident, kill_after,
      total_suggests);

  ChaosStats reference_stats;
  const SuggestSequences reference = run_chaos_pass(
      opt, socket_path, temp_dir + "/chaos_ref.sessions", dataset, sessions,
      evals, /*kill_after_suggests=*/0, reference_stats);
  ChaosStats stats;
  const SuggestSequences survived = run_chaos_pass(
      opt, socket_path, temp_dir + "/chaos_kill.sessions", dataset, sessions,
      evals, kill_after, stats);

  if (survived != reference) {
    die("kill pass diverged from the reference suggest sequences");
  }
  if (stats.resuggested_rounds == 0) {
    die("SIGKILL landed with no unobserved rounds in flight; the resume "
        "path was not exercised");
  }
  for (const auto& [pass, s] :
       {std::pair{"reference", &reference_stats}, std::pair{"kill", &stats}}) {
    if (s->evicted == 0 || s->resumed == 0) {
      die(std::string(pass) + " pass did not exercise eviction and resume "
          "(evicted=" + std::to_string(s->evicted) + ", resumed=" +
          std::to_string(s->resumed) + ")");
    }
  }
  std::printf(
      "  survived       recovery %.1fms, %llu sessions adopted, %zu/%zu "
      "rounds re-suggested bitwise-equal\n",
      stats.recovery_ms,
      static_cast<unsigned long long>(stats.adopted_after_restart),
      stats.resuggested_rounds, stats.rounds);
  std::printf(
      "  residency      reference pass %llu evicted / %llu resumed, after "
      "restart %llu evicted / %llu resumed\n",
      static_cast<unsigned long long>(reference_stats.evicted),
      static_cast<unsigned long long>(reference_stats.resumed),
      static_cast<unsigned long long>(stats.evicted),
      static_cast<unsigned long long>(stats.resumed));

  const std::string json =
      std::string("{\n  \"bench\": \"service_storm\",\n") +
      "  \"chaos\": {\"sessions\": " + std::to_string(sessions) +
      ", \"evals_per_session\": " + std::to_string(evals) +
      ", \"batch_size\": " + std::to_string(kBatch) +
      ", \"max_resident\": " + std::to_string(kMaxResident) +
      ", \"method\": \"" + kMethod + "\", \"dataset\": \"" + kDataset +
      "\",\n    \"kill_after_suggests\": " + std::to_string(kill_after) +
      ", \"recovery_ms\": " + obs::json_double(stats.recovery_ms) +
      ", \"adopted_after_restart\": " +
      std::to_string(stats.adopted_after_restart) +
      ", \"resuggested_rounds\": " + std::to_string(stats.resuggested_rounds) +
      ", \"rounds\": " + std::to_string(stats.rounds) +
      ",\n    \"reference_evicted\": " +
      std::to_string(reference_stats.evicted) +
      ", \"reference_resumed\": " + std::to_string(reference_stats.resumed) +
      ", \"evicted_after_restart\": " + std::to_string(stats.evicted) +
      ", \"resumed_after_restart\": " + std::to_string(stats.resumed) +
      ", \"bitwise_equal\": true}\n}\n";
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    die("cannot write " + opt.out);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", opt.out.c_str());

  // The journals are run artifacts, not results: a clean exit leaves only
  // the JSON report behind.
  remove_run_artifacts();
  return 0;
}

}  // namespace
}  // namespace hpb

int main(int argc, char** argv) {
  hpb::Options opt;
  opt.self = argc > 0 ? argv[0] : "service_storm";
  bool serve_child = false;
  std::string child_socket;
  std::string child_session_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "service_storm: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--serve-child") {
      serve_child = true;
    } else if (arg == "--socket") {
      child_socket = next();
    } else if (arg == "--session-dir") {
      child_session_dir = next();
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      std::fprintf(stderr, "usage: service_storm [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  if (serve_child) {
    if (child_socket.empty() || child_session_dir.empty()) {
      std::fprintf(stderr,
                   "service_storm: --serve-child needs --socket and "
                   "--session-dir\n");
      return 2;
    }
    return hpb::run_serve_child(child_socket, child_session_dir);
  }
  return hpb::run(opt);
}
