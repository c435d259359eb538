// Golden parity pins for the session state machine and the journal.
//
// The exchanges and journals below were recorded from the implementation
// that ran sync rounds and async tokens as two separate state machines,
// each with its own journal reader and replay. One fixed schedule per mode
// covers every journal construct: a sync round with a failed member, a
// byte-identical rid retry, an abandoned round, and a round still open at
// the cut (a torn, incomplete round); an async ask answered out of order,
// a failed completion, an acancel, and a token still outstanding at the
// cut. The single token state machine must reproduce:
//   - every wire reply byte for byte;
//   - both journals byte for byte;
//   - the recorded continuation after a restart on the recorded journals
//     (the next suggestions, the restored outstanding tokens). Its status
//     lines were re-recorded once, when replay began restoring the round
//     count: before that, `rounds` restarted from 0 after a restart;
// and the reader must describe both dialects with one event model, where a
// round with fewer records than its marker announces commits nothing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "service/wire.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::JournalContents;
using core::JournalEvent;
using core::SessionManager;
using service::WireService;
using Kind = JournalEvent::Kind;

/// One request line and the reply recorded for it.
struct Exchange {
  const char* request;
  const char* reply;
};

const Exchange kSyncSchedule[] = {
    {R"golden({"verb":"create","session":"gs","dataset":"separable","method":"hiperbot","seed":7,"batch_size":2,"max_evaluations":64})golden",
     R"golden({"ok":true})golden"},
    {R"golden({"verb":"suggest","session":"gs","rid":"s1"})golden",
     R"golden({"ok":true,"configs":[[3,1,0],[2,2,0]]})golden"},
    {R"golden({"verb":"suggest","session":"gs","rid":"s1"})golden",
     R"golden({"ok":true,"configs":[[3,1,0],[2,2,0]]})golden"},
    {R"golden({"verb":"observe","session":"gs","results":[{"config":[3,1,0],"y":4.5},{"config":[2,2,0],"status":"crashed"}]})golden",
     R"golden({"ok":true,"status":{"evaluations":2,"failed":1,"rounds":1,"pending":0,"best_value":4.5,"best_config":[3,1,0],"stopped":false}})golden"},
    {R"golden({"verb":"suggest","session":"gs"})golden",
     R"golden({"ok":true,"configs":[[0,2,0],[3,0,4]]})golden"},
    {R"golden({"verb":"cancel","session":"gs"})golden",
     R"golden({"ok":true,"cancelled":2})golden"},
    {R"golden({"verb":"suggest","session":"gs"})golden",
     R"golden({"ok":true,"configs":[[0,2,2],[1,2,0]]})golden"},
    {R"golden({"verb":"observe","session":"gs","results":[{"config":[0,2,2],"y":2.25},{"config":[1,2,0],"y":3.0,"status":"ok"}]})golden",
     R"golden({"ok":true,"status":{"evaluations":4,"failed":1,"rounds":3,"pending":0,"best_value":2.25,"best_config":[0,2,2],"stopped":false}})golden"},
    {R"golden({"verb":"status","session":"gs"})golden",
     R"golden({"ok":true,"status":{"evaluations":4,"failed":1,"rounds":3,"pending":0,"best_value":2.25,"best_config":[0,2,2],"stopped":false}})golden"},
    {R"golden({"verb":"suggest","session":"gs"})golden",
     R"golden({"ok":true,"configs":[[3,0,4],[2,0,1]]})golden"},
};

const char kSyncJournal[] = R"golden(hpbj v1
meta method hiperbot
meta dataset separable
meta seed 7
meta batch 2
meta params 3
meta budget 64
meta patience 0
meta target fff0000000000000
meta fail_rate 0000000000000000
meta crash_rate 0000000000000000
meta hang_rate 0000000000000000
round 0 2 2
obs ok 4012000000000000 4008000000000000 3ff0000000000000 0000000000000000
obs crashed 7ff8000000000000 4000000000000000 4000000000000000 0000000000000000
round 1 2 2
abandon
round 2 2 2
obs ok 4002000000000000 0000000000000000 4000000000000000 4000000000000000
obs ok 4008000000000000 3ff0000000000000 4000000000000000 0000000000000000
round 3 2 2
)golden";

const Exchange kSyncResume[] = {
    {R"golden({"verb":"status","session":"gs"})golden",
     R"golden({"ok":true,"status":{"evaluations":4,"failed":1,"rounds":3,"pending":0,"best_value":2.25,"best_config":[0,2,2],"stopped":false}})golden"},
    {R"golden({"verb":"suggest","session":"gs"})golden",
     R"golden({"ok":true,"configs":[[3,0,4],[2,0,1]]})golden"},
};

const Exchange kAsyncSchedule[] = {
    {R"golden({"verb":"create","session":"ga","dataset":"separable","method":"hiperbot","seed":11,"batch_size":2,"max_evaluations":64,"mode":"async"})golden",
     R"golden({"ok":true})golden"},
    {R"golden({"verb":"suggest","session":"ga","count":3,"rid":"a1"})golden",
     R"golden({"ok":true,"configs":[[0,1,1],[0,2,4],[2,2,3]],"tokens":[1,2,3]})golden"},
    {R"golden({"verb":"observe","session":"ga","results":[{"token":3,"y":5.5}]})golden",
     R"golden({"ok":true,"status":{"evaluations":1,"failed":0,"rounds":1,"pending":2,"best_value":5.5,"best_config":[2,2,3],"stopped":false,"mode":"async","pending_tokens":[1,2]}})golden"},
    {R"golden({"verb":"observe","session":"ga","results":[{"token":1,"status":"timeout"}]})golden",
     R"golden({"ok":true,"status":{"evaluations":2,"failed":1,"rounds":1,"pending":1,"best_value":5.5,"best_config":[2,2,3],"stopped":false,"mode":"async","pending_tokens":[2]}})golden"},
    {R"golden({"verb":"suggest","session":"ga"})golden",
     R"golden({"ok":true,"configs":[[0,0,1],[3,2,0]],"tokens":[4,5]})golden"},
    {R"golden({"verb":"cancel","session":"ga","tokens":[2]})golden",
     R"golden({"ok":true,"cancelled":1})golden"},
    {R"golden({"verb":"observe","session":"ga","results":[{"token":5,"y":1.25}]})golden",
     R"golden({"ok":true,"status":{"evaluations":3,"failed":1,"rounds":2,"pending":1,"best_value":1.25,"best_config":[3,2,0],"stopped":false,"mode":"async","pending_tokens":[4]}})golden"},
    {R"golden({"verb":"status","session":"ga"})golden",
     R"golden({"ok":true,"status":{"evaluations":3,"failed":1,"rounds":2,"pending":1,"best_value":1.25,"best_config":[3,2,0],"stopped":false,"mode":"async","pending_tokens":[4]}})golden"},
};

const char kAsyncJournal[] = R"golden(hpbj v1
meta method hiperbot
meta dataset separable
meta mode async
meta seed 11
meta batch 2
meta params 3
meta budget 64
meta patience 0
meta target fff0000000000000
meta fail_rate 0000000000000000
meta crash_rate 0000000000000000
meta hang_rate 0000000000000000
ask 3 1 3 0000000000000000 3ff0000000000000 3ff0000000000000 0000000000000000 4000000000000000 4010000000000000 4000000000000000 4000000000000000 4008000000000000
aobs 3 ok 4016000000000000
aobs 1 timeout 7ff8000000000000
ask 2 4 2 0000000000000000 0000000000000000 3ff0000000000000 4008000000000000 4000000000000000 0000000000000000
acancel 2
aobs 5 ok 3ff4000000000000
)golden";

const Exchange kAsyncResume[] = {
    {R"golden({"verb":"status","session":"ga"})golden",
     R"golden({"ok":true,"status":{"evaluations":3,"failed":1,"rounds":2,"pending":1,"best_value":1.25,"best_config":[3,2,0],"stopped":false,"mode":"async","pending_tokens":[4]}})golden"},
    {R"golden({"verb":"suggest","session":"ga"})golden",
     R"golden({"ok":true,"configs":[[1,0,2],[3,1,1]],"tokens":[6,7]})golden"},
    {R"golden({"verb":"observe","session":"ga","results":[{"token":4,"y":0.5},{"token":7,"status":"invalid"}]})golden",
     R"golden({"ok":true,"status":{"evaluations":5,"failed":2,"rounds":3,"pending":1,"best_value":0.5,"best_config":[0,0,1],"stopped":false,"mode":"async","pending_tokens":[6]}})golden"},
    {R"golden({"verb":"status","session":"ga"})golden",
     R"golden({"ok":true,"status":{"evaluations":5,"failed":2,"rounds":3,"pending":1,"best_value":0.5,"best_config":[0,0,1],"stopped":false,"mode":"async","pending_tokens":[6]}})golden"},
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "golden_" + name;
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

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

core::SessionFactory test_factory() {
  auto dataset = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return [dataset](const core::SessionSpec& spec) {
    core::SessionBackend backend;
    backend.tuner = eval::make_named_tuner(spec.method, *dataset, spec.seed);
    backend.space = dataset->space_ptr();
    return backend;
  };
}

/// Replay `exchanges` against a manager over `dir` and require every reply
/// byte for byte. The manager is dropped unclosed, like a crashed daemon.
void expect_transcript(const std::string& dir,
                       std::span<const Exchange> exchanges) {
  SessionManager manager(test_factory(), {.journal_dir = dir});
  WireService wire(manager);
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    EXPECT_EQ(wire.handle_line(exchanges[i].request), exchanges[i].reply)
        << "exchange " << i << ": " << exchanges[i].request;
  }
}

struct EventShape {
  Kind kind;
  std::uint64_t token;  // kAsk: the first token issued
};

void expect_events(const JournalContents& contents,
                   const std::vector<EventShape>& expected) {
  ASSERT_EQ(contents.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const JournalEvent& e = contents.events[i];
    EXPECT_EQ(e.kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(e.kind == Kind::kAsk ? e.first_token : e.token,
              expected[i].token)
        << "event " << i;
  }
}

TEST(GoldenParity, SyncScheduleReproducesRepliesAndJournal) {
  const std::string dir = fresh_dir("sync");
  expect_transcript(dir, kSyncSchedule);
  EXPECT_EQ(slurp(dir + "/gs.hpbj"), kSyncJournal);
}

TEST(GoldenParity, AsyncScheduleReproducesRepliesAndJournal) {
  const std::string dir = fresh_dir("async");
  expect_transcript(dir, kAsyncSchedule);
  EXPECT_EQ(slurp(dir + "/ga.hpbj"), kAsyncJournal);
}

TEST(GoldenParity, ResumingRecordedJournalsContinuesAsRecorded) {
  const std::string sync_dir = fresh_dir("sync_resume");
  std::filesystem::create_directories(sync_dir);
  spill(sync_dir + "/gs.hpbj", kSyncJournal);
  expect_transcript(sync_dir, kSyncResume);

  const std::string async_dir = fresh_dir("async_resume");
  std::filesystem::create_directories(async_dir);
  spill(async_dir + "/ga.hpbj", kAsyncJournal);
  expect_transcript(async_dir, kAsyncResume);
}

TEST(GoldenParity, BothDialectsReadIntoOneEventModel) {
  const std::string dir = fresh_dir("events");
  std::filesystem::create_directories(dir);
  const std::string sync_journal = kSyncJournal;
  spill(dir + "/gs.hpbj", sync_journal);
  const JournalContents sync = core::read_journal(dir + "/gs.hpbj");
  // Round 0 observed, round 1 abandoned (a cancel per member), round 2
  // observed; the open round 3 commits nothing.
  expect_events(sync, {{Kind::kAsk, 1},
                       {Kind::kObserve, 1},
                       {Kind::kObserve, 2},
                       {Kind::kAsk, 3},
                       {Kind::kCancel, 3},
                       {Kind::kCancel, 4},
                       {Kind::kAsk, 5},
                       {Kind::kObserve, 5},
                       {Kind::kObserve, 6}});
  EXPECT_TRUE(sync.events[3].configs.empty())
      << "an abandoned round's members were never journaled";
  EXPECT_EQ(sync.valid_bytes, sync_journal.find("round 3"));

  spill(dir + "/ga.hpbj", kAsyncJournal);
  const JournalContents async = core::read_journal(dir + "/ga.hpbj");
  expect_events(async, {{Kind::kAsk, 1},
                        {Kind::kObserve, 3},
                        {Kind::kObserve, 1},
                        {Kind::kAsk, 4},
                        {Kind::kCancel, 2},
                        {Kind::kObserve, 5}});
  EXPECT_EQ(async.valid_bytes, std::string(kAsyncJournal).size());
}

TEST(GoldenParity, TornPartialRoundCommitsNothing) {
  // A crash between the two records of round 3: its first member
  // ([3,0,4], ok) is durable, the second is not.
  const std::string journal = std::string(kSyncJournal) +
                              "obs ok 3ff0000000000000 4008000000000000 "
                              "0000000000000000 4010000000000000\n";
  const std::string dir = fresh_dir("torn");
  std::filesystem::create_directories(dir);
  spill(dir + "/gs.hpbj", journal);
  const JournalContents contents = core::read_journal(dir + "/gs.hpbj");
  EXPECT_EQ(contents.count(Kind::kAsk), 3u);
  EXPECT_EQ(contents.count(Kind::kObserve), 4u);
  EXPECT_EQ(contents.valid_bytes, journal.find("round 3"));
  // The partial round is dropped and re-minted exactly as recorded.
  expect_transcript(dir, kSyncResume);
}

}  // namespace
}  // namespace hpb
