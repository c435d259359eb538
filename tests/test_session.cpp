// Session / SessionManager coverage:
//   - the engine→session split is exact: a hand-driven Session produces
//     bitwise-identical results, journal bytes, and trace bytes to
//     TuningEngine::run over the same seed and FakeClock;
//   - Session verb misuse (double suggest, observe without a round,
//     count/order/foreign-config mismatches, close with a round in
//     flight, verbs after finish) throws without corrupting the session;
//   - per-observation stopping bookkeeping (target, stagnation) surfaces
//     through status();
//   - SessionManager lifecycle: create / duplicate / invalid names,
//     unknown sessions, close semantics, journal-on-disk collisions,
//     LRU eviction with resume-on-touch;
//   - the session registry: max_resident is an exact cap whatever the
//     names hash to, a resume blocks no other session and no health
//     snapshot, and concurrent touches of one cold session resume it once;
//   - eviction/resume equivalence: a session force-evicted (and therefore
//     journal-replayed) at several points suggests the exact same
//     configuration sequence as one kept hot, for hiperbot / geist /
//     random;
//   - journal parent-directory errors are clear, and fs::ensure_dir
//     builds nested directories.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/engine.hpp"
#include "core/journal.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "core/stopping.hpp"
#include "eval/methods.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "manager_util.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::EvalMeter;
using core::Observation;
using core::Session;
using core::SessionConfig;
using core::SessionManager;
using core::SessionManagerConfig;
using core::SessionSpec;
using core::SessionStatus;
using core::StopReason;
using core::TuneResult;
using core::TuningEngine;
using tabular::EvalStatus;

constexpr std::uint64_t kSeed = 0x5e5510;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "session_" + name;
}

/// Fresh (empty) directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// NaN-safe bitwise comparison of two tuning results.
void expect_identical(const TuneResult& a, const TuneResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].config.values(), b.history[i].config.values())
        << "history diverges at evaluation " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.history[i].y),
              std::bit_cast<std::uint64_t>(b.history[i].y))
        << "objective diverges at evaluation " << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status);
  }
  ASSERT_EQ(a.best_so_far.size(), b.best_so_far.size());
  for (std::size_t i = 0; i < a.best_so_far.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_so_far[i]),
              std::bit_cast<std::uint64_t>(b.best_so_far[i]));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_value),
            std::bit_cast<std::uint64_t>(b.best_value));
  EXPECT_EQ(a.best_config.values(), b.best_config.values());
}

core::JournalHeader make_header(const tabular::TabularObjective& ds,
                                const std::string& method, std::size_t batch,
                                std::size_t budget) {
  core::JournalHeader h;
  h.method = method;
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = budget;
  return h;
}

/// SessionManager factory over the canned separable dataset (the spec's
/// dataset name is accepted verbatim — these tests exercise the manager,
/// not the dataset registry).
core::SessionFactory test_factory() {
  auto dataset = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return [dataset](const SessionSpec& spec) {
    core::SessionBackend backend;
    backend.tuner = eval::make_named_tuner(spec.method, *dataset, spec.seed);
    backend.space = dataset->space_ptr();
    return backend;
  };
}

// ------------------------------------------------- engine/session identity

// The documented contract of the split: TuningEngine::run is nothing but a
// loop over Session::suggest / Session::observe plus objective evaluation.
// Reproduce that loop by hand against the public Session API and require
// the result, the journal bytes, and the trace bytes to match bit for bit.
TEST(SessionSplit, ManualSessionLoopMatchesEngineRunBitwise) {
  auto ds = testutil::separable_dataset();
  constexpr std::size_t kBudget = 26;  // deliberately not a batch multiple
  constexpr std::size_t kBatch = 4;

  const std::string engine_journal = temp_path("split_engine.hpbj");
  const std::string engine_trace = temp_path("split_engine.jsonl");
  TuneResult from_engine;
  {
    core::JournalWriter journal = core::JournalWriter::create(
        engine_journal, make_header(ds, "hiperbot", kBatch, kBudget));
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(engine_trace);
    const TuningEngine engine({.batch_size = kBatch,
                               .journal = &journal,
                               .recorder = {.trace = &sink, .clock = &clock}});
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    from_engine = engine.run(*tuner, ds, kBudget);
    sink.flush();
  }

  const std::string manual_journal = temp_path("split_manual.hpbj");
  const std::string manual_trace = temp_path("split_manual.jsonl");
  TuneResult from_session;
  {
    core::JournalWriter journal = core::JournalWriter::create(
        manual_journal, make_header(ds, "hiperbot", kBatch, kBudget));
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(manual_trace);
    const obs::Recorder recorder{.trace = &sink, .clock = &clock};
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    tuner->set_recorder(&recorder);
    Session session(*tuner,
                    {.recorder = recorder, .stop = {.max_evaluations = kBudget}},
                    &journal);
    session.reserve(kBudget);
    while (session.evaluations() < kBudget) {
      const std::size_t k = std::min(kBatch, kBudget - session.evaluations());
      std::vector<core::Suggestion> batch = session.suggest(k);
      std::vector<EvalMeter> meters(batch.size());
      std::vector<Observation> observations;
      observations.reserve(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        meters[i].start_ns = recorder.now_ns();
        const tabular::EvalResult r = ds.evaluate_result(batch[i].config);
        meters[i].end_ns = recorder.now_ns();
        observations.push_back({std::move(batch[i].config), r.value, r.status});
      }
      session.observe(std::move(observations), meters);
    }
    session.finish(StopReason::kBudgetExhausted);
    from_session = session.take_result();
    sink.flush();
  }

  expect_identical(from_engine, from_session);
  EXPECT_EQ(slurp(engine_journal), slurp(manual_journal));
  const std::string trace = slurp(engine_trace);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace, slurp(manual_trace));
  for (const std::string& path :
       {engine_journal, engine_trace, manual_journal, manual_trace}) {
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------ session verb misuse

Session make_plain_session(std::unique_ptr<core::Tuner>& keep) {
  static auto ds = testutil::separable_dataset();
  keep = eval::make_named_tuner("random", ds, kSeed);
  return Session(*keep, {.stop = {.max_evaluations = 40}});
}

std::vector<Observation> evaluate_all(
    const std::vector<core::Suggestion>& batch) {
  std::vector<Observation> out;
  out.reserve(batch.size());
  for (const auto& s : batch) {
    out.push_back(
        {s.config, testutil::separable_value(s.config), EvalStatus::kOk});
  }
  return out;
}

TEST(SessionErrors, SuggestWithRoundInFlightThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(session.round_in_flight());
  EXPECT_THROW((void)session.suggest(2), hpb::Error);
  // The pending round survives the failed verb.
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(SessionErrors, ObserveWithoutRoundThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto ds = testutil::separable_dataset();
  EXPECT_THROW(
      session.observe({{ds.configs()[0], 1.0, EvalStatus::kOk}}),
      hpb::Error);
}

TEST(SessionErrors, ObserveCountMismatchThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Observation> short_round = evaluate_all(batch);
  short_round.pop_back();
  EXPECT_THROW(session.observe(std::move(short_round)), hpb::Error);
  // Recoverable: deliver the full round after the client error.
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.status().pending, 0u);
}

TEST(SessionErrors, ObserveOutOfOrderThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Observation> swapped = evaluate_all(batch);
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(session.observe(std::move(swapped)), hpb::Error);
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(SessionErrors, ObserveForeignConfigurationThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto ds = testutil::separable_dataset();
  auto batch = session.suggest(1);
  ASSERT_EQ(batch.size(), 1u);
  // Any configuration other than the suggested one is foreign.
  const auto& foreign =
      ds.configs()[batch[0].config.values() == ds.configs()[0].values() ? 1
                                                                       : 0];
  EXPECT_THROW(
      session.observe({{foreign, 1.0, EvalStatus::kOk}}), hpb::Error);
}

// The barrier checks every member, not just the first: a round whose
// later member is foreign is refused whole, and nothing is applied.
TEST(SessionErrors, ForeignLaterMemberThrowsWithoutMutation) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto ds = testutil::separable_dataset();
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Observation> round = evaluate_all(batch);
  for (const auto& c : ds.configs()) {
    if (c.values() != batch[0].config.values() &&
        c.values() != batch[1].config.values()) {
      round[1].config = c;
      break;
    }
  }
  EXPECT_THROW(session.observe(round), hpb::Error);
  EXPECT_EQ(session.evaluations(), 0u);
  EXPECT_EQ(session.status().pending, 2u);
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(SessionErrors, CloseWithRoundInFlightThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  EXPECT_THROW(session.close(), hpb::Error);
  session.observe(evaluate_all(batch));
  session.close();
  EXPECT_TRUE(session.finished());
}

TEST(SessionErrors, VerbsAfterFinishThrow) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  session.observe(evaluate_all(session.suggest(2)));
  session.finish(StopReason::kBudgetExhausted);
  EXPECT_TRUE(session.status().finished);
  EXPECT_THROW((void)session.suggest(1), hpb::Error);
  EXPECT_THROW(session.observe(std::vector<Observation>{}), hpb::Error);
  EXPECT_THROW(session.close(), hpb::Error);
}

// ---------------------------------------------------- stopping bookkeeping

TEST(SessionStopping, TargetReachedSurfacesThroughStatus) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.stop = {.max_evaluations = 200,
                                    .target_value = 1.0}});
  while (!session.stopped()) {
    ASSERT_LT(session.evaluations(), 200u);
    session.observe(evaluate_all(session.suggest(4)));
  }
  const SessionStatus st = session.status();
  EXPECT_TRUE(st.stopped);
  EXPECT_EQ(st.reason, StopReason::kTargetReached);
  EXPECT_DOUBLE_EQ(st.best_value, 1.0);
}

TEST(SessionStopping, StagnationPatienceSurfacesThroughStatus) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.stop = {.max_evaluations = 1000,
                                    .stagnation_patience = 5}});
  while (!session.stopped() && session.evaluations() < 1000) {
    session.observe(evaluate_all(session.suggest(1)));
  }
  EXPECT_TRUE(session.stopped());
  EXPECT_EQ(session.stop_reason(), StopReason::kStagnation);
}

// ------------------------------------------------- manager lifecycle

SessionSpec spec_named(const std::string& name, const std::string& method,
                       std::size_t batch = 2) {
  SessionSpec spec;
  spec.name = name;
  spec.method = method;
  spec.dataset = "separable";
  spec.seed = kSeed;
  spec.batch_size = batch;
  spec.stop.max_evaluations = 64;
  return spec;
}

TEST(SessionManagerLifecycle, CreateSuggestObserveStatusClose) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_lifecycle")});
  manager.create(spec_named("run1", "random"));
  EXPECT_EQ(manager.health().resident, 1u);
  EXPECT_EQ(manager.health().created, 1u);

  auto batch = testutil::suggest(manager, "run1", 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(testutil::status(manager, "run1").pending, 2u);

  const SessionStatus st =
      testutil::observe(manager, "run1", evaluate_all(batch));
  EXPECT_EQ(st.evaluations, 2u);
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_FALSE(st.best_config.empty());

  manager.close("run1");
  EXPECT_EQ(manager.health().resident, 0u);
  EXPECT_EQ(manager.health().closed, 1u);
  // The finalized journal still names the session: verbs and re-creation
  // both report it closed / taken.
  EXPECT_THROW((void)testutil::status(manager, "run1"), hpb::Error);
  EXPECT_THROW(manager.close("run1"), hpb::Error);
  EXPECT_THROW(manager.create(spec_named("run1", "random")), hpb::Error);
}

TEST(SessionManagerLifecycle, InvalidNamesAndDuplicatesRejected) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_names")});
  const std::vector<std::string> bad_names = {
      "", ".", "..", "a/b", "a b", "ses*sion", std::string(129, 'x')};
  for (const std::string& bad : bad_names) {
    EXPECT_THROW(core::validate_session_name(bad), hpb::Error) << bad;
    EXPECT_THROW(manager.create(spec_named(bad, "random")), hpb::Error) << bad;
  }
  core::validate_session_name("ok-1.2_3");
  manager.create(spec_named("dup", "random"));
  EXPECT_THROW(manager.create(spec_named("dup", "random")), hpb::Error);
  EXPECT_THROW((void)testutil::suggest(manager, "never-created", 1),
               hpb::Error);
}

TEST(SessionManagerLifecycle, EvictRefusesInFlightRounds) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_inflight")});
  manager.create(spec_named("busy", "random"));
  auto batch = testutil::suggest(manager, "busy", 2);
  // An unobserved round pins the session hot: evicting would orphan it.
  EXPECT_FALSE(manager.evict("busy"));
  (void)testutil::observe(manager, "busy", evaluate_all(batch));
  EXPECT_TRUE(manager.evict("busy"));
  EXPECT_EQ(manager.health().resident, 0u);
  // Resume-on-touch brings it back with its history intact.
  EXPECT_EQ(testutil::status(manager, "busy").evaluations, 2u);
  EXPECT_EQ(manager.health().resumed, 1u);
}

TEST(SessionManagerLifecycle, JournallessManagerNeverEvicts) {
  SessionManager manager(test_factory(), {});
  manager.create(spec_named("mem", "random"));
  EXPECT_TRUE(manager.journal_path("mem").empty());
  (void)testutil::observe(manager, "mem",
                          evaluate_all(testutil::suggest(manager, "mem", 2)));
  EXPECT_FALSE(manager.evict("mem"));  // nothing on disk to resume from
  manager.close("mem");
  // Without a journal, a closed name is forgotten and can be re-created.
  manager.create(spec_named("mem", "random"));
}

TEST(SessionManagerLifecycle, LruEvictionKeepsResidencyBounded) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_lru"),
                          .max_resident = 2});
  for (int i = 0; i < 5; ++i) {
    const std::string name = "lru" + std::to_string(i);
    manager.create(spec_named(name, "random"));
    (void)testutil::observe(
        manager, name, evaluate_all(testutil::suggest(manager, name, 1)));
  }
  EXPECT_LE(manager.health().resident, 2u);
  EXPECT_GE(manager.health().evicted, 3u);
  // Touching the oldest (coldest) session resumes it transparently.
  EXPECT_EQ(testutil::status(manager, "lru0").evaluations, 1u);
  EXPECT_GE(manager.health().resumed, 1u);
  EXPECT_LE(manager.health().resident, 2u);
}

// ------------------------------------------------------ session registry

/// The 16-way split of names by std::hash that a striped registry would
/// use; the registry tests pick names that collide (or not) under it.
std::size_t hash_slot(const std::string& name) {
  return std::hash<std::string>{}(name) % 16;
}

/// `count` names "<prefix><i>" whose hash slots are pairwise distinct.
std::vector<std::string> names_in_distinct_slots(const std::string& prefix,
                                                 std::size_t count) {
  std::vector<std::string> names;
  std::set<std::size_t> used;
  for (int i = 0; names.size() < count; ++i) {
    const std::string name = prefix + std::to_string(i);
    if (used.insert(hash_slot(name)).second) {
      names.push_back(name);
    }
  }
  return names;
}

/// A name other than `name` in the same hash slot.
std::string slot_mate(const std::string& name) {
  for (int i = 0;; ++i) {
    const std::string mate = "mate" + std::to_string(i);
    if (hash_slot(mate) == hash_slot(name)) {
      return mate;
    }
  }
}

void run_manager_round(SessionManager& manager, const std::string& name) {
  (void)testutil::observe(manager, name,
                          evaluate_all(testutil::suggest(manager, name, 0)));
}

TEST(SessionManagerRegistry, ResidencyCapIsExact) {
  {
    // Two live sessions, sixteen slots: neither is ever evicted, whatever
    // their names hash to.
    SessionManager manager(test_factory(),
                           {.journal_dir = fresh_dir("reg_cap_pair"),
                            .max_resident = 16});
    const std::string a = "a0";
    const std::string b = slot_mate(a);
    manager.create(spec_named(a, "random"));
    manager.create(spec_named(b, "random"));
    for (int trip = 0; trip < 4; ++trip) {
      run_manager_round(manager, a);
      run_manager_round(manager, b);
    }
    EXPECT_EQ(manager.health().evicted, 0u);
    EXPECT_EQ(manager.health().resumed, 0u);
    EXPECT_EQ(manager.health().resident, 2u);
  }
  {
    // Sixteen idle sessions against eight slots: at most eight stay
    // resident, whatever their names hash to.
    SessionManager manager(test_factory(),
                           {.journal_dir = fresh_dir("reg_cap_spread"),
                            .max_resident = 8});
    for (const std::string& name : names_in_distinct_slots("s", 16)) {
      manager.create(spec_named(name, "random"));
      run_manager_round(manager, name);
    }
    EXPECT_LE(manager.health().resident, 8u);
    EXPECT_EQ(manager.health().evicted, 8u);
  }
}

/// Wraps test_factory(): while armed, a build for `name` blocks until
/// released, so a test can hold a resume mid-flight.
struct BlockingFactory {
  std::mutex m;
  std::condition_variable cv;
  std::string name;
  bool armed = false;
  bool entered = false;
  bool released = false;
  std::atomic<int> builds{0};

  core::SessionFactory factory() {
    return [this, inner = test_factory()](const SessionSpec& spec) {
      {
        std::unique_lock<std::mutex> lock(m);
        if (armed && spec.name == name) {
          ++builds;
          entered = true;
          cv.notify_all();
          cv.wait(lock, [this] { return released; });
        }
      }
      return inner(spec);
    };
  }
  void arm(const std::string& blocked) {
    std::lock_guard<std::mutex> lock(m);
    name = blocked;
    armed = true;
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  }
};

constexpr auto kVerbTimeout = std::chrono::seconds(5);

TEST(SessionManagerRegistry, ResumeDoesNotBlockOtherSessions) {
  BlockingFactory blocking;
  SessionManager manager(blocking.factory(),
                         {.journal_dir = fresh_dir("reg_resume_block")});
  const std::string cold = "cold0";
  const std::string hot = slot_mate(cold);
  manager.create(spec_named(cold, "random"));
  manager.create(spec_named(hot, "random"));
  run_manager_round(manager, cold);
  ASSERT_TRUE(manager.evict(cold));
  blocking.arm(cold);
  std::future<SessionStatus> resuming = std::async(
      std::launch::async, [&] { return testutil::status(manager, cold); });
  blocking.wait_entered();
  // The factory is now rebuilding `cold`; a verb on a session that shares
  // its hash slot must not wait for it.
  std::future<SessionStatus> other = std::async(std::launch::async, [&] {
    run_manager_round(manager, hot);
    return testutil::status(manager, hot);
  });
  const bool finished =
      other.wait_for(kVerbTimeout) == std::future_status::ready;
  blocking.release();
  EXPECT_TRUE(finished) << "a verb on another session waited on a resume";
  EXPECT_EQ(other.get().evaluations, 2u);
  EXPECT_EQ(resuming.get().evaluations, 2u);
}

TEST(SessionManagerRegistry, ConcurrentTouchResumesOnce) {
  BlockingFactory blocking;
  SessionManager manager(blocking.factory(),
                         {.journal_dir = fresh_dir("reg_resume_once")});
  manager.create(spec_named("once", "random"));
  run_manager_round(manager, "once");
  ASSERT_TRUE(manager.evict("once"));
  blocking.arm("once");
  const auto touch = [&] { return testutil::status(manager, "once"); };
  std::future<SessionStatus> first = std::async(std::launch::async, touch);
  blocking.wait_entered();
  std::future<SessionStatus> second = std::async(std::launch::async, touch);
  // While the resume is mid-build, health answers without waiting for it
  // and does not count the half-built session as resident.
  std::future<core::ManagerHealth> during = std::async(
      std::launch::async, [&] { return manager.health(); });
  const bool answered =
      during.wait_for(kVerbTimeout) == std::future_status::ready;
  blocking.release();
  EXPECT_TRUE(answered) << "health waited on a resume";
  const core::ManagerHealth mid = during.get();
  EXPECT_EQ(mid.resident, 0u);
  EXPECT_EQ(mid.resumed, 0u);
  EXPECT_EQ(first.get().evaluations, 2u);
  EXPECT_EQ(second.get().evaluations, 2u);
  EXPECT_EQ(manager.health().resumed, 1u);
  EXPECT_EQ(blocking.builds.load(), 1);
}

// ------------------------------------------- eviction/resume equivalence

/// Drive one managed session for `rounds` rounds of `batch`, force-evicting
/// it after each round listed in `evict_after` (journal replay rebuilds it
/// on the next verb). Returns every suggested configuration, flattened, and
/// the final best value.
struct DrivenRun {
  std::vector<std::vector<double>> suggested;
  double best = 0.0;
};

DrivenRun drive_managed(const std::string& method,
                        const std::set<std::size_t>& evict_after,
                        const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kBatch = 2;
  SessionSpec spec = spec_named("equiv", method, kBatch);
  spec.stop.max_evaluations = kRounds * kBatch;
  manager.create(spec);
  DrivenRun run;
  for (std::size_t round = 0; round < kRounds; ++round) {
    auto batch = testutil::suggest(manager, "equiv", kBatch);
    std::vector<Observation> observations;
    for (auto& [token, c] : batch) {
      run.suggested.push_back(c.values());
      // A sprinkling of client-side failures exercises the NaN replay path.
      if (run.suggested.size() % 5 == 0) {
        observations.push_back({std::move(c), std::nan(""),
                                EvalStatus::kInvalid});
      } else {
        const double y = testutil::separable_value(c);
        observations.push_back({std::move(c), y, EvalStatus::kOk});
      }
    }
    const SessionStatus st =
        testutil::observe(manager, "equiv", std::move(observations));
    run.best = st.best_value;
    if (evict_after.count(round) != 0) {
      EXPECT_TRUE(manager.evict("equiv")) << method << " round " << round;
    }
  }
  EXPECT_EQ(manager.health().evicted, evict_after.size());
  EXPECT_EQ(manager.health().resumed, evict_after.size());
  return run;
}

void expect_same_run(const DrivenRun& a, const DrivenRun& b,
                     const std::string& label) {
  ASSERT_EQ(a.suggested.size(), b.suggested.size()) << label;
  for (std::size_t i = 0; i < a.suggested.size(); ++i) {
    ASSERT_EQ(a.suggested[i].size(), b.suggested[i].size()) << label;
    for (std::size_t j = 0; j < a.suggested[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.suggested[i][j]),
                std::bit_cast<std::uint64_t>(b.suggested[i][j]))
          << label << ": suggestion " << i << " diverges at value " << j;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best),
            std::bit_cast<std::uint64_t>(b.best))
      << label;
}

TEST(EvictionResumeEquivalence, ColdResumedSessionsSuggestIdenticalRuns) {
  for (const std::string method : {"hiperbot", "geist", "random"}) {
    const DrivenRun hot = drive_managed(method, {}, "equiv_" + method + "_hot");
    const DrivenRun early =
        drive_managed(method, {0}, "equiv_" + method + "_early");
    const DrivenRun mid =
        drive_managed(method, {3}, "equiv_" + method + "_mid");
    const DrivenRun thrash = drive_managed(
        method, {0, 1, 2, 3, 4, 5, 6}, "equiv_" + method + "_thrash");
    expect_same_run(hot, early, method + " evicted after round 0");
    expect_same_run(hot, mid, method + " evicted after round 3");
    expect_same_run(hot, thrash, method + " evicted after every round");
  }
}

// -------------------------------------------------- filesystem satellites

TEST(JournalPaths, MissingParentDirectoryIsACleanError) {
  const std::string dir = fresh_dir("no_such_parent");
  auto ds = testutil::separable_dataset();
  try {
    (void)core::JournalWriter::create(dir + "/sub/run.hpbj",
                                      make_header(ds, "random", 1, 4));
    FAIL() << "expected hpb::Error";
  } catch (const hpb::Error& e) {
    EXPECT_NE(std::string(e.what()).find("parent directory does not exist"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalPaths, EnsureDirBuildsNestedDirectories) {
  const std::string root = fresh_dir("ensure");
  const std::string nested = root + "/a/b/c";
  EXPECT_FALSE(fs::dir_exists(nested));
  fs::ensure_dir(nested);
  EXPECT_TRUE(fs::dir_exists(nested));
  fs::ensure_dir(nested);  // idempotent
  // A journal can be created under the new directory right away.
  auto ds = testutil::separable_dataset();
  (void)core::JournalWriter::create(nested + "/run.hpbj",
                                    make_header(ds, "random", 1, 4));
  // A path component that is a regular file is an error, not a silent
  // success.
  std::ofstream(root + "/file").put('x');
  EXPECT_THROW(fs::ensure_dir(root + "/file/sub"), hpb::Error);
}

}  // namespace
}  // namespace hpb
