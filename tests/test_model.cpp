// Model-based differential stress test of the tuning service.
//
// Four client threads drive seeded random verb schedules through one
// WireService over a journaled SessionManager whose residency cap sits far
// below the session count, so verbs keep evicting and resuming sessions.
// Every session is owned by one thread and shadowed by an oracle: a
// journal-less in-process core::Session fed the same verb sequence. The
// service additionally sees forced evictions, manager restarts (destroy and
// reconstruct on the same directory, as after a crash) and byte-identical
// rid retries; those never reach the oracle because they must be
// invisible. Every reply must match the oracle: the suggested
// configurations and tokens, the status, and whether the verb failed
// (including max_pending sheds).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/json_util.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::Session;
using core::SessionMode;
using core::Suggestion;
using service::JsonValue;
using tabular::EvalStatus;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kSessionsPerThread = 3;
constexpr std::size_t kPhases = 4;  // a manager restart between phases
constexpr std::size_t kStepsPerPhase = 120;
constexpr std::size_t kMaxPending = 5;
// The separable pool holds 60 configurations; stay clear of running a
// finite tuner dry.
constexpr std::size_t kIssueCap = 40;

const std::shared_ptr<tabular::TabularObjective>& dataset() {
  static const auto ds = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return ds;
}

core::SessionFactory test_factory() {
  return [](const core::SessionSpec& spec) {
    core::SessionBackend backend;
    backend.tuner = eval::make_named_tuner(spec.method, *dataset(), spec.seed);
    backend.space = dataset()->space_ptr();
    return backend;
  };
}

/// The service under test; rebuilt on the same directory to model a crash.
struct Service {
  std::unique_ptr<core::SessionManager> manager;
  std::unique_ptr<service::WireService> wire;

  void start(const std::string& dir) {
    wire.reset();
    manager.reset();
    manager = std::make_unique<core::SessionManager>(
        test_factory(), core::SessionManagerConfig{
                            .journal_dir = dir,
                            .max_resident = 4,
                            .max_pending_per_session = kMaxPending});
    wire = std::make_unique<service::WireService>(*manager);
  }
};

/// One session as its owning client thread sees it, plus its oracle.
struct Model {
  std::string name;
  std::string method;
  std::uint64_t seed = 0;
  std::size_t batch = 1;
  SessionMode mode = SessionMode::kSync;
  std::unique_ptr<core::Tuner> tuner;
  std::unique_ptr<Session> oracle;
  // The sync round in flight, or the async tokens outstanding.
  std::vector<Suggestion> outstanding;
  std::size_t issued = 0;
  std::size_t rids = 0;

  [[nodiscard]] bool async() const { return mode == SessionMode::kAsync; }
};

std::string number(double v) { return obs::json_double(v); }

std::string config_json(const space::Configuration& c) {
  std::string out = "[";
  for (std::size_t i = 0; i < c.size(); ++i) {
    out += (i > 0 ? "," : "") + number(c[i]);
  }
  return out + "]";
}

/// Differences between a wire status object and the oracle's status.
std::string status_diff(const JsonValue& s, const core::SessionStatus& o) {
  std::string diff;
  const auto field = [&](const char* key, double expected) {
    const JsonValue* v = s.find(key);
    if (v == nullptr || !v->is_number() || v->as_number() != expected) {
      diff += std::string(" ") + key + " (oracle " + number(expected) + ")";
    }
  };
  field("evaluations", static_cast<double>(o.evaluations));
  field("failed", static_cast<double>(o.num_failed));
  field("pending", static_cast<double>(o.pending));
  field("rounds", static_cast<double>(o.rounds));
  const JsonValue* best = s.find("best_value");
  if (std::isfinite(o.best_value)
          ? !best->is_number() || std::bit_cast<std::uint64_t>(
                                      best->as_number()) !=
                                      std::bit_cast<std::uint64_t>(o.best_value)
          : !best->is_null()) {
    diff += " best_value";
  }
  const auto& config = s.find("best_config")->as_array();
  bool same_config = config.size() == o.best_config.size();
  for (std::size_t i = 0; same_config && i < config.size(); ++i) {
    same_config = config[i].as_number() == o.best_config[i];
  }
  if (!same_config) {
    diff += " best_config";
  }
  if (s.find("stopped")->as_bool() != o.stopped) {
    diff += " stopped";
  }
  const JsonValue* tokens = s.find("pending_tokens");
  if ((tokens != nullptr) != o.async) {
    diff += " mode";
  } else if (tokens != nullptr) {
    bool same = tokens->as_array().size() == o.pending_tokens.size();
    for (std::size_t i = 0; same && i < o.pending_tokens.size(); ++i) {
      same = tokens->as_array()[i].as_number() ==
             static_cast<double>(o.pending_tokens[i]);
    }
    if (!same) {
      diff += " pending_tokens";
    }
  }
  return diff;
}

/// One client thread: owns `models`, drives them through the shared
/// service, and records the first divergence from the oracles.
class Client {
 public:
  Client(std::size_t id, Service& service)
      : id_(id), service_(service), rng_(0x5e55 + 7919 * id) {
    for (std::size_t i = 0; i < kSessionsPerThread; ++i) {
      Model m;
      m.name = "t" + std::to_string(id) + "s" + std::to_string(i);
      m.mode = (id + i) % 2 == 0 ? SessionMode::kSync : SessionMode::kAsync;
      m.method = i == 2 ? "hiperbot" : "random";
      m.seed = 100 + 10 * id + i;
      m.batch = 1 + (id + i) % 3;
      models_.push_back(std::move(m));
    }
  }

  /// Create every session (service and oracle).
  void create_all() {
    for (Model& m : models_) {
      const std::string line =
          "{\"verb\":\"create\",\"session\":\"" + m.name +
          "\",\"dataset\":\"separable\",\"method\":\"" + m.method +
          "\",\"seed\":" + std::to_string(m.seed) +
          ",\"batch_size\":" + std::to_string(m.batch) +
          ",\"max_evaluations\":200" +
          (m.async() ? ",\"mode\":\"async\"}" : "}");
      m.tuner = eval::make_named_tuner(m.method, *dataset(), m.seed);
      m.oracle = std::make_unique<Session>(
          *m.tuner, core::SessionConfig{.stop = {.max_evaluations = 200},
                                        .mode = m.mode,
                                        .max_pending = kMaxPending});
      expect_ok(m, send(line), true);
    }
  }

  /// Random verbs; ends with no sync round open, so a restart that
  /// follows is invisible.
  void run_phase() {
    for (std::size_t step = 0; step < kStepsPerPhase && ok(); ++step) {
      Model& m = models_[rng_.index(models_.size())];
      if (m.async()) {
        async_step(m);
      } else {
        sync_step(m);
      }
    }
    for (Model& m : models_) {
      if (ok() && !m.async() && !m.outstanding.empty()) {
        observe_round(m, Delivery::kInOrder);
      }
      if (ok()) {
        status(m);
      }
    }
  }

  /// Release everything and close every session.
  void close_all() {
    for (Model& m : models_) {
      if (ok() && m.async()) {
        cancel(m, /*all=*/true);
      }
      if (!ok()) {
        return;
      }
      bool oracle_ok = true;
      try {
        m.oracle->close();
      } catch (const Error&) {
        oracle_ok = false;
      }
      expect_ok(m, send("{\"verb\":\"close\",\"session\":\"" + m.name + "\"}"),
                oracle_ok);
    }
  }

  [[nodiscard]] bool ok() const { return problem_.empty(); }
  [[nodiscard]] const std::string& problem() const { return problem_; }
  [[nodiscard]] std::size_t verbs() const { return verbs_; }

 private:
  void sync_step(Model& m) {
    const std::size_t action = rng_.index(10);
    if (!m.outstanding.empty()) {
      if (action < 5) {
        observe_round(m, Delivery::kInOrder);
      } else if (action == 5) {
        cancel(m, /*all=*/true);
      } else if (action == 6) {
        // Out of order or with a foreign member: both refuse.
        observe_round(m, m.outstanding.size() > 1 && rng_.index(2) == 0
                             ? Delivery::kSwapped
                             : Delivery::kForeignLast);
      } else if (action == 7) {
        suggest(m, 1);  // a second round while one is out: both refuse
      } else if (action == 8) {
        status(m);
      } else {
        evict(m);  // refused while the round is out
      }
    } else if (action < 6 && m.issued + m.batch <= kIssueCap) {
      suggest(m, 1 + rng_.index(m.batch));
    } else if (action == 6) {
      cancel(m, /*all=*/true);  // nothing in flight: both refuse
    } else if (action < 8) {
      status(m);
    } else {
      evict(m);
    }
  }

  void async_step(Model& m) {
    const std::size_t action = rng_.index(10);
    const std::size_t k = 1 + rng_.index(3);
    if (action < 4 && m.issued + k <= kIssueCap) {
      suggest(m, k);  // sheds past max_pending
    } else if (action < 7 && !m.outstanding.empty()) {
      observe_tokens(m);
    } else if (action == 7) {
      cancel(m, /*all=*/rng_.index(3) == 0);
    } else if (action == 8) {
      evict(m);
    } else {
      // A token never issued: both refuse.
      const std::string line =
          "{\"verb\":\"observe\",\"session\":\"" + m.name +
          "\",\"results\":[{\"token\":999999,\"y\":1}]}";
      const core::TokenResult foreign[] = {{999999, EvalStatus::kOk, 1.0}};
      bool oracle_ok = true;
      try {
        m.oracle->observe(foreign);
      } catch (const Error&) {
        oracle_ok = false;
      }
      expect_ok(m, send(line), oracle_ok);
    }
  }

  void suggest(Model& m, std::size_t k) {
    std::vector<Suggestion> expected;
    bool oracle_ok = true;
    try {
      expected = m.oracle->suggest(k);
    } catch (const Error&) {
      oracle_ok = false;
    }
    const std::string reply = mutate(
        m, "{\"verb\":\"suggest\",\"session\":\"" + m.name +
               "\",\"count\":" + std::to_string(k));
    if (!expect_ok(m, reply, oracle_ok) || !oracle_ok) {
      return;
    }
    const JsonValue v = service::parse_json(reply);
    const auto& configs = v.find("configs")->as_array();
    const JsonValue* tokens = v.find("tokens");
    bool same = configs.size() == expected.size() &&
                (tokens != nullptr) == m.async();
    for (std::size_t i = 0; same && i < expected.size(); ++i) {
      same = expected[i].config.values() == to_values(configs[i]) &&
             (tokens == nullptr || tokens->as_array()[i].as_number() ==
                                       static_cast<double>(expected[i].token));
    }
    if (!same) {
      fail(m, "suggest diverged from the oracle: " + reply);
      return;
    }
    m.issued += expected.size();
    m.outstanding.insert(m.outstanding.end(), expected.begin(),
                         expected.end());
  }

  enum class Delivery { kInOrder, kSwapped, kForeignLast };

  /// Deliver the sync round by configuration, one member in five failed.
  void observe_round(Model& m, Delivery delivery) {
    std::vector<core::Observation> round;
    std::string results;
    for (const Suggestion& s : m.outstanding) {
      const bool failed = rng_.index(5) == 0;
      const double y = testutil::separable_value(s.config);
      round.push_back({s.config, failed ? std::nan("") : y,
                       failed ? EvalStatus::kCrashed : EvalStatus::kOk});
    }
    if (delivery == Delivery::kSwapped) {
      std::swap(round.front(), round.back());
    } else if (delivery == Delivery::kForeignLast) {
      // Any configuration the round does not hold.
      for (const space::Configuration& c : dataset()->configs()) {
        bool foreign = true;
        for (const Suggestion& s : m.outstanding) {
          foreign = foreign && s.config.values() != c.values();
        }
        if (foreign) {
          round.back().config = c;
          break;
        }
      }
    }
    for (const core::Observation& o : round) {
      results += std::string(results.empty() ? "" : ",") + "{\"config\":" +
                 config_json(o.config) +
                 (o.ok() ? ",\"y\":" + number(o.y)
                         : ",\"status\":\"crashed\"") +
                 "}";
    }
    bool oracle_ok = true;
    try {
      m.oracle->observe(round);
    } catch (const Error&) {
      oracle_ok = false;
    }
    const std::string reply =
        mutate(m, "{\"verb\":\"observe\",\"session\":\"" + m.name +
                      "\",\"results\":[" + results + "]");
    if (expect_ok(m, reply, oracle_ok) && oracle_ok) {
      m.outstanding.clear();
      expect_status(m, service::parse_json(reply));
    }
  }

  /// Deliver a random subset of the async tokens in random order.
  void observe_tokens(Model& m) {
    std::vector<Suggestion> pool = m.outstanding;
    const std::size_t n = 1 + rng_.index(pool.size());
    std::vector<core::TokenResult> delivered;
    std::string results;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pick = rng_.index(pool.size());
      const Suggestion s = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool failed = rng_.index(5) == 0;
      core::TokenResult r{s.token, EvalStatus::kOk,
                          testutil::separable_value(s.config)};
      if (failed) {
        r = {s.token, EvalStatus::kTimeout};
      }
      delivered.push_back(r);
      results += std::string(results.empty() ? "" : ",") +
                 "{\"token\":" + std::to_string(s.token) +
                 (failed ? ",\"status\":\"timeout\""
                         : ",\"y\":" + number(r.y)) +
                 "}";
    }
    bool oracle_ok = true;
    try {
      m.oracle->observe(delivered);
    } catch (const Error&) {
      oracle_ok = false;
    }
    const std::string reply =
        mutate(m, "{\"verb\":\"observe\",\"session\":\"" + m.name +
                      "\",\"results\":[" + results + "]");
    if (expect_ok(m, reply, oracle_ok) && oracle_ok) {
      m.outstanding = pool;
      expect_status(m, service::parse_json(reply));
    }
  }

  /// Sync: release the round. Async: every token (`all`, sent as no
  /// token list) or a random non-empty subset.
  void cancel(Model& m, bool all) {
    std::vector<std::uint64_t> tokens;
    std::vector<Suggestion> kept;
    std::string list;
    if (m.async() && !all) {
      for (const Suggestion& s : m.outstanding) {
        if (rng_.index(2) == 0) {
          tokens.push_back(s.token);
          list += (list.empty() ? "" : ",") + std::to_string(s.token);
        } else {
          kept.push_back(s);
        }
      }
      if (tokens.empty()) {
        return;  // drew no subset
      }
    }
    std::size_t released = 0;
    bool oracle_ok = true;
    try {
      released = m.oracle->cancel(tokens);
    } catch (const Error&) {
      oracle_ok = false;
    }
    const std::string reply = mutate(
        m, "{\"verb\":\"cancel\",\"session\":\"" + m.name + "\"" +
               (tokens.empty() ? "" : ",\"tokens\":[" + list + "]"));
    if (!expect_ok(m, reply, oracle_ok) || !oracle_ok) {
      return;
    }
    if (service::parse_json(reply).find("cancelled")->as_number() !=
        static_cast<double>(released)) {
      fail(m, "cancel released a different count: " + reply);
      return;
    }
    m.outstanding = kept;
  }

  void status(Model& m) {
    const std::string reply =
        send("{\"verb\":\"status\",\"session\":\"" + m.name + "\"}");
    if (expect_ok(m, reply, true)) {
      expect_status(m, service::parse_json(reply));
    }
  }

  void evict(Model& m) { (void)service_.manager->evict(m.name); }

  /// Send a mutating verb, one time in three with a rid — and then, half
  /// of those times, retry the byte-identical line, which must replay the
  /// recorded reply without executing again.
  std::string mutate(Model& m, const std::string& unterminated) {
    if (rng_.index(3) != 0) {
      return send(unterminated + "}");
    }
    const std::string line = unterminated + ",\"rid\":\"" + m.name + "-" +
                             std::to_string(++m.rids) + "\"}";
    const std::string reply = send(line);
    if (rng_.index(2) == 0 && reply != send(line)) {
      fail(m, "rid retry was not replayed byte for byte: " + line);
    }
    return reply;
  }

  std::string send(const std::string& line) {
    ++verbs_;
    return service_.wire->handle_line(line);
  }

  bool expect_ok(Model& m, const std::string& reply, bool oracle_ok) {
    const bool service_ok = service::parse_json(reply).find("ok")->as_bool();
    if (service_ok != oracle_ok) {
      fail(m, std::string("the service ") +
                  (service_ok ? "accepted" : "refused") +
                  " a verb the oracle " +
                  (oracle_ok ? "accepted" : "refused") + ": " + reply);
    }
    return service_ok;
  }

  void expect_status(Model& m, const JsonValue& reply) {
    const std::string diff =
        status_diff(*reply.find("status"), m.oracle->status());
    if (!diff.empty()) {
      fail(m, "status diverged from the oracle:" + diff);
    }
  }

  void fail(const Model& m, const std::string& what) {
    if (problem_.empty()) {
      problem_ = "client " + std::to_string(id_) + " session " + m.name +
                 " after " + std::to_string(verbs_) + " verbs: " + what;
    }
  }

  static std::vector<double> to_values(const JsonValue& config) {
    std::vector<double> values;
    for (const JsonValue& v : config.as_array()) {
      values.push_back(v.as_number());
    }
    return values;
  }

  std::size_t id_;
  Service& service_;
  Rng rng_;
  std::vector<Model> models_;
  std::string problem_;
  std::size_t verbs_ = 0;
};

template <typename F>
void on_every_client(std::vector<std::unique_ptr<Client>>& clients, F f) {
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&f, &client] { f(*client); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

TEST(SessionModel, RandomSchedulesMatchTheInProcessOracle) {
  const std::string dir = ::testing::TempDir() + "session_model";
  std::filesystem::remove_all(dir);
  Service service;
  service.start(dir);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t id = 0; id < kThreads; ++id) {
    clients.push_back(std::make_unique<Client>(id, service));
  }
  on_every_client(clients, [](Client& c) { c.create_all(); });
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    on_every_client(clients, [](Client& c) { c.run_phase(); });
    evicted += service.manager->health().evicted;
    resumed += service.manager->health().resumed;
    // Crash: every client is quiescent; drop the manager unclosed and
    // bring a new one up over the same journals.
    service.start(dir);
  }
  on_every_client(clients, [](Client& c) { c.close_all(); });
  std::size_t verbs = 0;
  for (const auto& client : clients) {
    EXPECT_TRUE(client->ok()) << client->problem();
    verbs += client->verbs();
  }
  // Evictions and subset draws that pick nothing send no verb.
  EXPECT_GT(verbs, kThreads * kPhases * kStepsPerPhase / 2);
  // The schedules must actually have exercised eviction and resume.
  EXPECT_GT(evicted, kPhases);
  EXPECT_GT(resumed, kPhases);
  EXPECT_EQ(service.manager->health().quarantined, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpb
