// Asynchronous session coverage:
//   - determinism: the same fixed completion schedule (FakeClock, scripted
//     out-of-order completions) produces bitwise-identical suggestion
//     sequences and journal bytes across fresh runs;
//   - token discipline: out-of-order and partial observes succeed;
//     duplicate, already-resolved, and foreign tokens throw without
//     mutating the session (validate-all-before-mutate); an ok result with
//     a non-finite value is rejected;
//   - cancel semantics: cancel releases specific tokens or (empty list)
//     everything outstanding; close refuses while tokens are outstanding;
//     sync sessions un-wedge a stuck round with cancel and both paths
//     journal the abandonment for replay;
//   - mode policies over the one token state machine: round-shaped
//     deliveries on an async session, and token deliveries, token cancels,
//     or a second suggest on a sync session with a round out, are clear
//     errors that leave the session untouched;
//   - randomized fuzz: interleaved issue/complete/cancel with injected
//     duplicate and foreign tokens keeps the session consistent with a
//     shadow model (run under ASan/TSan by tools/check.sh);
//   - eviction/resume equivalence: an async session force-evicted with
//     tokens outstanding (journal-replayed, outstanding set restored)
//     suggests the exact same configurations as one kept hot; same for a
//     sync session evicted after a cancelled round;
//   - straggler throughput: under a fixed 90%/10% schedule of short and
//     straggler evaluation times, async token refill finishes the same
//     budget sooner than sync rounds, on a virtual clock (exact makespans,
//     no sleeps, no clock reads).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/clock.hpp"
#include "obs/json_util.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "manager_util.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::TokenResult;
using core::Suggestion;
using core::Observation;
using core::Session;
using core::SessionManager;
using core::SessionMode;
using core::SessionSpec;
using core::SessionStatus;
using tabular::EvalStatus;

constexpr std::uint64_t kSeed = 0xa51c;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "async_" + name;
}

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

core::JournalHeader async_header(const tabular::TabularObjective& ds,
                                 std::size_t batch) {
  core::JournalHeader h;
  h.method = "hiperbot";
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = 64;
  h.async = true;
  return h;
}

TokenResult complete(const Suggestion& s) {
  return {s.token, EvalStatus::kOk, testutil::separable_value(s.config)};
}

/// Fresh async session over the separable dataset; `keep` owns the tuner.
Session make_async_session(std::unique_ptr<core::Tuner>& keep,
                           core::JournalWriter* journal = nullptr) {
  static auto ds = testutil::separable_dataset();
  keep = eval::make_named_tuner("hiperbot", ds, kSeed);
  return Session(*keep,
                 {.stop = {.max_evaluations = 64},
                  .mode = SessionMode::kAsync},
                 journal);
}

// ------------------------------------------------------------- determinism

/// One scripted run: issue/complete under a fixed out-of-order schedule
/// (newest-first completions, one straggler cancelled), with a FakeClock
/// recorder and a journal. Returns every suggested value sequence plus the
/// journal bytes.
struct ScriptedRun {
  std::vector<std::vector<double>> suggested;
  std::vector<std::uint64_t> tokens;
  std::string journal_bytes;
};

ScriptedRun run_fixed_schedule(const std::string& tag) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path(tag + ".hpbj");
  std::remove(path.c_str());
  ScriptedRun run;
  {
    core::JournalWriter journal =
        core::JournalWriter::create(path, async_header(ds, 2));
    obs::FakeClock clock(1000, 10);
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    Session session(*tuner,
                    {.recorder = {.clock = &clock},
                     .stop = {.max_evaluations = 64},
                     .mode = SessionMode::kAsync},
                    &journal);
    std::deque<Suggestion> outstanding;
    const auto issue = [&](std::size_t k) {
      for (Suggestion& s : session.suggest(k)) {
        run.suggested.push_back(s.config.values());
        run.tokens.push_back(s.token);
        outstanding.push_back(std::move(s));
      }
    };
    // Scripted schedule: grow to 4 outstanding, then complete newest-first
    // (maximally out of order), refill, cancel the oldest straggler, drain.
    issue(4);
    for (int i = 0; i < 3; ++i) {
      const Suggestion s = outstanding.back();
      outstanding.pop_back();
      const TokenResult r[] = {complete(s)};
      session.observe(r);
      issue(1);
    }
    const std::uint64_t straggler[] = {outstanding.front().token};
    outstanding.pop_front();
    EXPECT_EQ(session.cancel(straggler), 1u);
    while (!outstanding.empty()) {
      const Suggestion s = outstanding.back();
      outstanding.pop_back();
      const TokenResult r[] = {complete(s)};
      session.observe(r);
    }
    EXPECT_EQ(session.status().pending, 0u);
    session.close();
  }
  run.journal_bytes = slurp(path);
  std::remove(path.c_str());
  return run;
}

TEST(AsyncDeterminism, FixedScheduleIsBitwiseReproducible) {
  const ScriptedRun a = run_fixed_schedule("det_a");
  const ScriptedRun b = run_fixed_schedule("det_b");
  ASSERT_EQ(a.suggested.size(), b.suggested.size());
  for (std::size_t i = 0; i < a.suggested.size(); ++i) {
    ASSERT_EQ(a.suggested[i].size(), b.suggested[i].size());
    for (std::size_t j = 0; j < a.suggested[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.suggested[i][j]),
                std::bit_cast<std::uint64_t>(b.suggested[i][j]))
          << "suggestion " << i << " diverges at value " << j;
    }
  }
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_FALSE(a.journal_bytes.empty());
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);
}

TEST(AsyncDeterminism, TokensAreDenseAndIssueOrdered) {
  const ScriptedRun run = run_fixed_schedule("det_tokens");
  for (std::size_t i = 0; i < run.tokens.size(); ++i) {
    EXPECT_EQ(run.tokens[i], i + 1) << "tokens must be dense from 1";
  }
}

// -------------------------------------------------------- token discipline

TEST(AsyncSession, OutOfOrderAndPartialObserveSucceeds) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(3);
  ASSERT_EQ(batch.size(), 3u);
  // Newest first, then a partial delivery of the remaining two.
  const TokenResult last[] = {complete(batch[2])};
  session.observe(last);
  EXPECT_EQ(session.evaluations(), 1u);
  EXPECT_EQ(session.status().pending, 2u);
  const TokenResult rest[] = {complete(batch[1]), complete(batch[0])};
  session.observe(rest);
  EXPECT_EQ(session.evaluations(), 3u);
  EXPECT_EQ(session.status().pending, 0u);
}

TEST(AsyncSession, SuggestNeverWaitsOnOutstandingTokens) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto first = session.suggest(2);
  const auto second = session.suggest(2);  // no observe in between
  EXPECT_EQ(session.status().pending, 4u);
  for (const auto& s : second) {
    EXPECT_GT(s.token, first.back().token);
  }
}

TEST(AsyncSession, DuplicateTokenInOneCallThrowsWithoutMutation) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(2);
  const TokenResult dup[] = {complete(batch[0]), complete(batch[0])};
  EXPECT_THROW(session.observe(dup), hpb::Error);
  EXPECT_EQ(session.evaluations(), 0u);
  EXPECT_EQ(session.status().pending, 2u);
  // The batch is still deliverable after the failed call.
  const TokenResult ok[] = {complete(batch[0]), complete(batch[1])};
  session.observe(ok);
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(AsyncSession, ResolvedAndForeignTokensThrowWithoutMutation) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(2);
  const TokenResult first[] = {complete(batch[0])};
  session.observe(first);
  // Already resolved: the token is gone.
  EXPECT_THROW(session.observe(first), hpb::Error);
  // Foreign: never issued.
  const TokenResult foreign[] = {{9999, EvalStatus::kOk, 1.0}};
  EXPECT_THROW(session.observe(foreign), hpb::Error);
  // A mixed call (one valid + one foreign) must not consume the valid one.
  const TokenResult mixed[] = {complete(batch[1]),
                               {9999, EvalStatus::kOk, 1.0}};
  EXPECT_THROW(session.observe(mixed), hpb::Error);
  EXPECT_EQ(session.evaluations(), 1u);
  EXPECT_EQ(session.status().pending, 1u);
  const TokenResult second[] = {complete(batch[1])};
  session.observe(second);
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(AsyncSession, NonFiniteOkValueIsRejected) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(1);
  const TokenResult nan_ok[] = {{batch[0].token, EvalStatus::kOk,
                                 std::nan("")}};
  EXPECT_THROW(session.observe(nan_ok), hpb::Error);
  // The same token delivered as a failure (no finite value needed) is fine.
  const TokenResult failed[] = {{batch[0].token, EvalStatus::kCrashed,
                                 std::nan("")}};
  session.observe(failed);
  EXPECT_EQ(session.status().num_failed, 1u);
}

TEST(AsyncSession, StatusReportsOutstandingTokensInIssueOrder) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(3);
  const TokenResult mid[] = {complete(batch[1])};
  session.observe(mid);
  const SessionStatus st = session.status();
  EXPECT_TRUE(st.async);
  ASSERT_EQ(st.pending_tokens.size(), 2u);
  EXPECT_EQ(st.pending_tokens[0], batch[0].token);
  EXPECT_EQ(st.pending_tokens[1], batch[2].token);
}

// ------------------------------------------------------------------ cancel

TEST(AsyncSession, CancelSpecificTokensThenAll) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(4);
  EXPECT_THROW(session.close(), hpb::Error);  // outstanding tokens pin it
  const std::uint64_t one[] = {batch[1].token};
  EXPECT_EQ(session.cancel(one), 1u);
  EXPECT_EQ(session.status().pending, 3u);
  // Cancelling an already-cancelled (or foreign) token is an error.
  EXPECT_THROW((void)session.cancel(one), hpb::Error);
  // Empty list = cancel everything outstanding: the un-wedge path.
  EXPECT_EQ(session.cancel({}), 3u);
  EXPECT_EQ(session.status().pending, 0u);
  session.close();
  EXPECT_TRUE(session.finished());
}

TEST(SyncSession, CancelRoundReleasesAStuckRound) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  Session session(*tuner,
                  {.stop = {.max_evaluations = 64}});
  auto batch = session.suggest(2);
  EXPECT_TRUE(session.round_in_flight());
  EXPECT_THROW(session.close(), hpb::Error);  // wedged: client died here
  EXPECT_EQ(session.cancel(), 2u);
  EXPECT_FALSE(session.round_in_flight());
  // The session keeps working: a new round can be suggested and observed.
  batch = session.suggest(2);
  std::vector<Observation> obs;
  for (auto& [token, c] : batch) {
    obs.push_back({c, testutil::separable_value(c), EvalStatus::kOk});
  }
  session.observe(std::move(obs));
  EXPECT_EQ(session.evaluations(), 2u);
  // Nothing to cancel is an error, not a silent zero.
  EXPECT_THROW((void)session.cancel(), hpb::Error);
  session.close();
}

// ------------------------------------------------------- cross-mode misuse

// Both modes share one token state machine; the mode is a validation
// policy. An async session refuses round-shaped deliveries (by
// configuration): its results come back by token.
TEST(CrossMode, SyncVerbsOnAsyncSessionThrow) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_THROW(session.observe(std::vector<Observation>{{
                   batch[0].config, 1.0, EvalStatus::kOk}}),
               hpb::Error);
  // The refused delivery did not disturb the token: it still resolves.
  const TokenResult r[] = {complete(batch[0])};
  session.observe(r);
  EXPECT_EQ(session.evaluations(), 1u);
  EXPECT_EQ(session.status().pending, 0u);
}

// The sync policy is the round barrier: tokens stay internal (deliveries by
// token and cancels naming tokens are refused), suggest refuses while the
// round is out, and the refused verbs leave the round deliverable.
TEST(CrossMode, AsyncVerbsOnSyncSessionThrow) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.stop = {.max_evaluations = 8}});
  const auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_THROW((void)session.suggest(1), hpb::Error);
  const TokenResult by_token[] = {complete(batch[0]), complete(batch[1])};
  EXPECT_THROW(session.observe(by_token), hpb::Error);
  const std::uint64_t one[] = {batch[0].token};
  EXPECT_THROW((void)session.cancel(one), hpb::Error);
  EXPECT_EQ(session.status().pending, 2u);
  EXPECT_TRUE(session.status().pending_tokens.empty());
  std::vector<Observation> round;
  for (const auto& [token, c] : batch) {
    round.push_back({c, testutil::separable_value(c), EvalStatus::kOk});
  }
  session.observe(round);
  EXPECT_EQ(session.evaluations(), 2u);
  EXPECT_EQ(session.status().rounds, 1u);
}

// ---------------------------------------------------------------- fuzzing

// Interleaved issue/complete/cancel under a seeded Rng, with duplicate and
// foreign tokens injected; a shadow set of outstanding tokens must agree
// with the session at every step. tools/check.sh runs this under both
// ASan and TSan.
TEST(AsyncFuzz, RandomizedCompletionOrderKeepsStateConsistent) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  Rng rng(0xf0220);
  std::vector<Suggestion> outstanding;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  // The separable pool holds only 60 configurations; cap issuance so the
  // finite tuner never runs dry mid-fuzz.
  constexpr std::size_t kMaxIssued = 48;
  std::size_t issued = 0;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t action = rng.index(10);
    const bool can_issue = issued < kMaxIssued;
    if ((action < 4 || outstanding.empty()) && can_issue) {
      const std::size_t k =
          std::min<std::size_t>(1 + rng.index(3), kMaxIssued - issued);
      for (Suggestion& s : session.suggest(k)) {
        outstanding.push_back(std::move(s));
        ++issued;
      }
    } else if (outstanding.empty()) {
      break;  // pool cap reached and nothing left to complete
    } else if (action < 8) {
      // Complete a uniformly random outstanding token; one in five fails.
      const std::size_t pick = rng.index(outstanding.size());
      const Suggestion s = outstanding[pick];
      outstanding.erase(outstanding.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      if (rng.index(5) == 0) {
        const TokenResult r[] = {{s.token, EvalStatus::kTimeout,
                                  std::nan("")}};
        session.observe(r);
        ++failed;
      } else {
        const TokenResult r[] = {complete(s)};
        session.observe(r);
      }
      ++completed;
    } else if (action == 8) {
      const std::size_t pick = rng.index(outstanding.size());
      const std::uint64_t t[] = {outstanding[pick].token};
      outstanding.erase(outstanding.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(session.cancel(t), 1u);
      ++cancelled;
    } else {
      // Hostile input: a foreign token, and (when possible) a duplicate
      // pair in one call. Both must throw and leave the state untouched.
      const TokenResult foreign[] = {{1u << 20, EvalStatus::kOk, 1.0}};
      EXPECT_THROW(session.observe(foreign), hpb::Error);
      if (!outstanding.empty()) {
        const TokenResult dup[] = {complete(outstanding[0]),
                                   complete(outstanding[0])};
        EXPECT_THROW(session.observe(dup), hpb::Error);
      }
    }
    const SessionStatus st = session.status();
    ASSERT_EQ(st.pending, outstanding.size()) << "step " << step;
    ASSERT_EQ(st.evaluations, completed) << "step " << step;
  }
  EXPECT_EQ(session.cancel({}), outstanding.size());
  EXPECT_EQ(session.status().num_failed, failed);
  EXPECT_GT(cancelled, 0u);
  session.close();
}

// ------------------------------------------- eviction/resume equivalence

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

SessionSpec async_spec(const std::string& name) {
  SessionSpec spec;
  spec.name = name;
  spec.method = "hiperbot";
  spec.dataset = "separable";
  spec.seed = kSeed;
  spec.batch_size = 2;
  spec.stop.max_evaluations = 64;
  spec.mode = SessionMode::kAsync;
  return spec;
}

struct AsyncDriven {
  std::vector<std::vector<double>> suggested;
  double best = 0.0;
};

/// Fixed async schedule against a managed session: each step issues two
/// tokens and completes only the newest outstanding one (so the backlog —
/// and the pending-liar mass — grows), with one mid-run cancel and a
/// sprinkling of failures; evictions happen with tokens outstanding, so
/// resume must restore the outstanding set from the journal.
AsyncDriven drive_async_managed(const std::set<std::size_t>& evict_after,
                                const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  manager.create(async_spec("aequiv"));
  AsyncDriven run;
  std::deque<Suggestion> outstanding;
  std::size_t deliveries = 0;
  for (std::size_t step = 0; step < 6; ++step) {
    for (Suggestion& s : testutil::suggest(manager, "aequiv", 2)) {
      run.suggested.push_back(s.config.values());
      outstanding.push_back(std::move(s));
    }
    const Suggestion s = outstanding.back();
    outstanding.pop_back();
    ++deliveries;
    const TokenResult r[] = {
        deliveries % 4 == 0
            ? TokenResult{s.token, EvalStatus::kCrashed, std::nan("")}
            : complete(s)};
    (void)testutil::observe(manager, "aequiv", r);
    if (step == 3) {
      const std::uint64_t t[] = {outstanding.front().token};
      outstanding.pop_front();
      EXPECT_EQ(testutil::cancel(manager, "aequiv", t), 1u);
    }
    if (evict_after.count(step) != 0) {
      EXPECT_TRUE(manager.evict("aequiv")) << "step " << step;
    }
  }
  while (!outstanding.empty()) {
    const Suggestion s = outstanding.back();
    outstanding.pop_back();
    const TokenResult r[] = {complete(s)};
    run.best = testutil::observe(manager, "aequiv", r).best_value;
  }
  EXPECT_EQ(manager.health().evicted, evict_after.size());
  EXPECT_EQ(manager.health().resumed, evict_after.size());
  return run;
}

void expect_same_async_run(const AsyncDriven& a, const AsyncDriven& b,
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

TEST(AsyncEvictionResume, EvictedWithOutstandingTokensMatchesHotBitwise) {
  const AsyncDriven hot = drive_async_managed({}, "aequiv_hot");
  const AsyncDriven early = drive_async_managed({0}, "aequiv_early");
  const AsyncDriven after_cancel = drive_async_managed({3}, "aequiv_mid");
  const AsyncDriven thrash =
      drive_async_managed({0, 1, 2, 3, 4}, "aequiv_thrash");
  expect_same_async_run(hot, early, "evicted after step 0");
  expect_same_async_run(hot, after_cancel, "evicted after the cancel step");
  expect_same_async_run(hot, thrash, "evicted after every step");
}

/// Sync equivalence across an abandoned round: round 1 observed, round 2
/// suggested then cancelled (the journal records the abandonment), rounds
/// 3-4 observed; the journal replay after an eviction must walk the same
/// path.
std::vector<std::vector<double>> drive_sync_with_cancel(
    bool evict_after_cancel, const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  SessionSpec spec = async_spec("sequiv");
  spec.mode = SessionMode::kSync;
  manager.create(spec);
  std::vector<std::vector<double>> suggested;
  const auto observe_round = [&] {
    auto batch = testutil::suggest(manager, "sequiv", 2);
    std::vector<Observation> obs;
    for (auto& [token, c] : batch) {
      suggested.push_back(c.values());
      const double y = testutil::separable_value(c);
      obs.push_back({std::move(c), y, EvalStatus::kOk});
    }
    (void)testutil::observe(manager, "sequiv", std::move(obs));
  };
  observe_round();
  for (const auto& [token, c] : testutil::suggest(manager, "sequiv", 2)) {
    suggested.push_back(c.values());
  }
  // Un-wedge the stuck round.
  EXPECT_EQ(testutil::cancel(manager, "sequiv"), 2u);
  if (evict_after_cancel) {
    EXPECT_TRUE(manager.evict("sequiv"));
  }
  observe_round();
  observe_round();
  return suggested;
}

TEST(SyncCancelResume, AbandonedRoundReplaysBitwise) {
  const auto hot = drive_sync_with_cancel(false, "sequiv_hot");
  const auto resumed = drive_sync_with_cancel(true, "sequiv_resumed");
  ASSERT_EQ(hot.size(), resumed.size());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    ASSERT_EQ(hot[i].size(), resumed[i].size());
    for (std::size_t j = 0; j < hot[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hot[i][j]),
                std::bit_cast<std::uint64_t>(resumed[i][j]))
          << "suggestion " << i << " diverges at value " << j;
    }
  }
}

// Closing an async managed session with tokens outstanding is refused;
// cancelling them (empty token list) un-wedges it for a clean close.
TEST(AsyncManaged, CloseRequiresDrainOrCancel) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("aclose")});
  manager.create(async_spec("stuck"));
  (void)testutil::suggest(manager, "stuck", 3);
  EXPECT_THROW(manager.close("stuck"), hpb::Error);
  EXPECT_EQ(testutil::cancel(manager, "stuck", {}), 3u);
  manager.close("stuck");
  EXPECT_EQ(manager.health().closed, 1u);
}

// ------------------------------------------------- straggler throughput
//
// Most evaluations are short and a few are stragglers forty times slower,
// the skew a shared HPC queue produces. A sync client holds each round
// open until its slowest member returns; an async client observes each
// completion as it lands and refills its slot with one suggestion, so a
// straggler occupies one slot instead of stalling the round. Both sessions
// run through the wire over a journaled manager; the evaluation times are
// a fixed function of the evaluation's issue index and advance a virtual
// clock, so the makespans are exact.

constexpr std::uint64_t kShortEvalUs = 200;
constexpr std::uint64_t kStragglerEvalUs = 8000;
constexpr std::size_t kThroughputEvals = 400;
constexpr std::size_t kThroughputWindow = 4;

/// 10% stragglers, chosen by splitmix64 of the evaluation index.
std::uint64_t eval_delay_us(std::uint64_t index) {
  return splitmix64(0x100000001B3ULL + index) % 10 == 0 ? kStragglerEvalUs
                                                        : kShortEvalUs;
}

service::JsonValue wire_ok(service::WireService& wire,
                           const std::string& request) {
  const std::string reply = wire.handle_line(request);
  service::JsonValue v = service::parse_json(reply);
  EXPECT_TRUE(v.find("ok")->as_bool()) << request << "\n-> " << reply;
  return v;
}

/// Each suggested configuration's wire rendering and its objective value.
std::vector<std::pair<std::string, double>> evaluate_configs(
    const service::JsonValue& reply, tabular::TabularObjective& dataset) {
  std::vector<std::pair<std::string, double>> out;
  for (const service::JsonValue& c : reply.find("configs")->as_array()) {
    space::Configuration config;
    std::string rendered = "[";
    for (const service::JsonValue& v : c.as_array()) {
      rendered += (config.size() > 0 ? "," : "") +
                  obs::json_double(v.as_number());
      config.values().push_back(v.as_number());
    }
    out.emplace_back(rendered + "]",
                     dataset.evaluate_result(config).value);
  }
  return out;
}

std::string create_request(const std::string& name, const char* mode) {
  return "{\"verb\":\"create\",\"session\":\"" + name +
         "\",\"dataset\":\"kripke\",\"method\":\"hiperbot\",\"mode\":\"" +
         mode + "\",\"batch_size\":" + std::to_string(kThroughputWindow) +
         ",\"max_evaluations\":" + std::to_string(kThroughputEvals) +
         ",\"seed\":1}";
}

double wire_evaluations(service::WireService& wire, const std::string& name) {
  return wire_ok(wire, "{\"verb\":\"status\",\"session\":\"" + name + "\"}")
      .find("status")
      ->find("evaluations")
      ->as_number();
}

/// Sync rounds: each round completes when its slowest member does.
std::uint64_t sync_makespan_us(service::WireService& wire,
                               tabular::TabularObjective& dataset) {
  wire_ok(wire, create_request("tp_sync", "sync"));
  std::uint64_t now_us = 0;
  std::uint64_t index = 0;
  for (std::size_t done = 0; done < kThroughputEvals;) {
    const auto round = evaluate_configs(
        wire_ok(wire, R"({"verb":"suggest","session":"tp_sync"})"), dataset);
    std::uint64_t round_us = 0;
    std::string results;
    for (const auto& [config, y] : round) {
      round_us = std::max(round_us, eval_delay_us(index++));
      results += std::string(results.empty() ? "" : ",") +
                 "{\"config\":" + config + ",\"y\":" + obs::json_double(y) +
                 "}";
    }
    now_us += round_us;
    wire_ok(wire, R"({"verb":"observe","session":"tp_sync","results":[)" +
                      results + "]}");
    done += round.size();
  }
  EXPECT_EQ(wire_evaluations(wire, "tp_sync"), kThroughputEvals);
  return now_us;
}

/// Async tokens: a window of evaluations in flight; each completion is
/// observed at its finish time and its slot refilled with one suggestion.
std::uint64_t async_makespan_us(service::WireService& wire,
                                tabular::TabularObjective& dataset) {
  wire_ok(wire, create_request("tp_async", "async"));
  struct InFlight {
    std::uint64_t ready_us;
    std::uint64_t token;
    double y;
    bool operator>(const InFlight& o) const {
      return std::pair(ready_us, token) > std::pair(o.ready_us, o.token);
    }
  };
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> heap;
  std::uint64_t now_us = 0;
  std::uint64_t index = 0;
  const auto issue = [&](std::size_t count) {
    const service::JsonValue reply = wire_ok(
        wire, R"({"verb":"suggest","session":"tp_async","count":)" +
                  std::to_string(count) + "}");
    const auto configs = evaluate_configs(reply, dataset);
    const auto& tokens = reply.find("tokens")->as_array();
    EXPECT_EQ(configs.size(), count);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      heap.push({now_us + eval_delay_us(index++),
                 static_cast<std::uint64_t>(tokens[i].as_number()),
                 configs[i].second});
    }
  };
  issue(kThroughputWindow);
  for (std::size_t done = 0; done < kThroughputEvals; ++done) {
    const InFlight f = heap.top();
    heap.pop();
    now_us = f.ready_us;
    wire_ok(wire, R"({"verb":"observe","session":"tp_async","results":[)"
                  "{\"token\":" + std::to_string(f.token) +
                      ",\"y\":" + obs::json_double(f.y) + "}]}");
    if (index < kThroughputEvals) {
      issue(1);
    }
  }
  EXPECT_EQ(wire_evaluations(wire, "tp_async"), kThroughputEvals);
  return now_us;
}

TEST(AsyncThroughput, StragglerMakespanBeatsSync) {
  SessionManager manager(service::dataset_session_factory(),
                         {.journal_dir = fresh_dir("throughput")});
  service::WireService wire(manager);
  tabular::TabularObjective dataset = apps::dataset_by_name("kripke").make();
  const std::uint64_t sync_us = sync_makespan_us(wire, dataset);
  const std::uint64_t async_us = async_makespan_us(wire, dataset);
  // 400 evaluations at window 4, 28 of them stragglers: sync pays 8 ms in
  // every round that holds one, async overlaps them across its window.
  EXPECT_EQ(sync_us, 222800u);
  EXPECT_EQ(async_us, 78000u);
  const double speedup =
      static_cast<double>(sync_us) / static_cast<double>(async_us);
  EXPECT_GT(speedup, 1.0) << "async token refill did not beat sync rounds";
}

}  // namespace
}  // namespace hpb
