// Randomized concurrent-history suite (the snapshot-isolation proof of
// DESIGN.md §9): 100 seeded runs, each driving one writer thread committing
// random transactions while 2-4 reader threads continuously open snapshot
// sessions and read through them. The writer records the canonical image of
// every acknowledged commit prefix; after joining, every reader observation
// must equal exactly one of those prefix images — never a torn mid-apply
// state — with session versions monotone per reader, snapshots immutable
// under later commits, and derived answers equal to a from-scratch
// derivation of the observed base facts.
//
// Seeds split four ways: {Apply, UpdateProcessor} x {in-memory, persistent},
// so the pipelined commit path (log staged under the commit lock, fsync
// awaited outside it) and the processor's multi-store atomic region both run
// against concurrent readers. Run under TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "core/session.h"
#include "core/update_processor.h"
#include "util/rng.h"
#include "util/strings.h"

namespace deddb {
namespace {

constexpr const char* kConstants[] = {"c0", "c1", "c2", "c3", "c4", "c5"};
constexpr const char* kBasePreds[] = {"Q", "R"};

// Canonical image of a base-fact set given as (pred idx, const idx) pairs —
// the writer's mirror, rendered without touching the database.
std::string ImageOfMirror(const std::set<std::pair<size_t, size_t>>& mirror) {
  std::vector<std::string> facts;
  for (const auto& [p, c] : mirror) {
    facts.push_back(StrCat(kBasePreds[p], "(", kConstants[c], ")"));
  }
  std::sort(facts.begin(), facts.end());
  return Join(facts, ";");
}

// Canonical image of a session's pinned base facts, via the shared symbol
// table (same rendering as ImageOfMirror, so the two compare directly).
std::string ImageOfSession(const Session& session) {
  std::vector<std::string> facts;
  const SymbolTable& symbols = session.database().symbols();
  session.database().facts().ForEach([&](SymbolId pred, const Tuple& t) {
    std::string s = StrCat(symbols.NameOf(pred), "(");
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) s += ",";
      s += symbols.NameOf(t[i]);
    }
    facts.push_back(StrCat(s, ")"));
  });
  std::sort(facts.begin(), facts.end());
  return Join(facts, ";");
}

// What P(x) <- Q(x) & not R(x) derives from a canonical base image.
std::string DeriveP(const std::string& image) {
  std::vector<std::string> answers;
  for (const char* c : kConstants) {
    const bool q = image.find(StrCat("Q(", c, ")")) != std::string::npos;
    const bool r = image.find(StrCat("R(", c, ")")) != std::string::npos;
    if (q && !r) answers.push_back(c);
  }
  return Join(answers, ";");
}

void DeclareSchema(DeductiveDatabase* db, bool materialize) {
  ASSERT_TRUE(db->DeclareBase("Q", 1).ok());
  ASSERT_TRUE(db->DeclareBase("R", 1).ok());
  Result<SymbolId> p = db->DeclareView("P", 1);
  ASSERT_TRUE(p.ok());
  Term x = db->Variable("x");
  ASSERT_TRUE(
      db->AddRule(Rule(db->MakeAtom("P", {x}).value(),
                       {Literal::Positive(db->MakeAtom("Q", {x}).value()),
                        Literal::Negative(db->MakeAtom("R", {x}).value())}))
          .ok());
  if (materialize) {
    ASSERT_TRUE(db->MaterializeView(*p).ok());
    ASSERT_TRUE(db->InitializeMaterializedViews().ok());
  }
}

// Everything one reader thread saw, validated only after the join (gtest
// assertions are not thread-safe, so threads record and the test asserts).
struct ReaderLog {
  std::vector<uint64_t> versions;
  std::vector<std::string> images;
  // (observed base image, rendered P answers) for iterations that queried.
  std::vector<std::pair<std::string, std::string>> derived;
  std::vector<std::string> errors;
};

void ReaderLoop(DeductiveDatabase* db, const std::atomic<bool>* done,
                ReaderLog* log) {
  for (int iter = 0; !done->load(std::memory_order_acquire) || iter < 25;
       ++iter) {
    Result<std::unique_ptr<Session>> begun = db->BeginSession();
    if (!begun.ok()) {
      log->errors.push_back(begun.status().ToString());
      return;
    }
    Session& session = **begun;
    log->versions.push_back(session.version());
    std::string image = ImageOfSession(session);
    log->images.push_back(image);
    if (iter % 3 == 0) {
      // Derived query against the pinned state (materialized in processor
      // mode, derived on demand in direct mode — both must answer from the
      // snapshot, not the moving head).
      Result<Atom> pattern =
          session.MakeAtom("P", {session.Variable("x")});
      if (!pattern.ok()) {
        log->errors.push_back(pattern.status().ToString());
        return;
      }
      Result<std::vector<Tuple>> answers = session.Solve(*pattern);
      if (!answers.ok()) {
        log->errors.push_back(answers.status().ToString());
        return;
      }
      std::vector<std::string> names;
      for (const Tuple& t : *answers) {
        names.push_back(std::string(session.database().symbols().NameOf(t[0])));
      }
      std::sort(names.begin(), names.end());
      log->derived.emplace_back(image, Join(names, ";"));
    }
    if (iter % 4 == 0) {
      // Immutability: the same handle re-read after yielding to the writer
      // must produce byte-identical answers.
      std::this_thread::yield();
      std::string again = ImageOfSession(session);
      if (again != image) {
        log->errors.push_back(
            StrCat("snapshot mutated under a live session: '", image,
                   "' became '", again, "'"));
        return;
      }
    }
  }
}

// One run of the suite. Returns through gtest assertions only.
void RunSeed(uint64_t seed) {
  SCOPED_TRACE(StrCat("seed=", seed));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const bool via_processor = rng.NextChance(1, 2);
  const bool persistent = rng.NextChance(1, 2);

  std::string dir;
  std::unique_ptr<DeductiveDatabase> db;
  if (persistent) {
    std::string tmpl = StrCat(::testing::TempDir(), "sessXXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir = buf.data();
    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
  } else {
    db = std::make_unique<DeductiveDatabase>();
  }
  DeclareSchema(db.get(), via_processor);
  if (persistent) ASSERT_TRUE(db->Checkpoint().ok());

  std::set<std::pair<size_t, size_t>> mirror;
  std::set<std::string> prefix_images;
  prefix_images.insert(ImageOfMirror(mirror));

  const size_t num_readers = 2 + seed % 3;
  std::atomic<bool> done{false};
  std::vector<ReaderLog> logs(num_readers);
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back(ReaderLoop, db.get(), &done, &logs[r]);
  }

  // The writer: 24 random valid transactions (validity per eqs. 1-2 is
  // against the pre-state; a fact appears in at most one event), every one
  // of which must be acknowledged — there are no faults in this suite.
  for (int op = 0; op < 24; ++op) {
    std::set<std::pair<size_t, size_t>> cur = mirror;
    std::set<std::pair<size_t, size_t>> touched;
    const size_t num_events = 1 + rng.NextBelow(3);
    Transaction txn;
    for (size_t e = 0; e < num_events; ++e) {
      const size_t p = rng.NextBelow(2);
      const size_t c = rng.NextBelow(6);
      if (!touched.insert({p, c}).second) continue;
      Atom fact = db->GroundAtom(kBasePreds[p], {kConstants[c]}).value();
      if (mirror.count({p, c}) > 0) {
        ASSERT_TRUE(txn.AddDelete(fact).ok());
        cur.erase({p, c});
      } else {
        ASSERT_TRUE(txn.AddInsert(fact).ok());
        cur.insert({p, c});
      }
    }
    if (via_processor) {
      UpdateProcessor processor(db.get());
      auto report = processor.ProcessTransaction(txn);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report->accepted);
    } else {
      Status applied = db->Apply(txn);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
    mirror = std::move(cur);
    prefix_images.insert(ImageOfMirror(mirror));
    if (rng.NextChance(1, 4)) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  for (size_t r = 0; r < num_readers; ++r) {
    SCOPED_TRACE(StrCat("reader=", r));
    ASSERT_TRUE(logs[r].errors.empty()) << logs[r].errors.front();
    // Every observation is exactly some acknowledged commit prefix.
    for (const std::string& image : logs[r].images) {
      EXPECT_TRUE(prefix_images.count(image) > 0)
          << "torn or phantom state observed: '" << image << "'";
    }
    // Versions are monotone per reader: a later BeginSession never travels
    // backwards in commit order.
    for (size_t i = 1; i < logs[r].versions.size(); ++i) {
      EXPECT_LE(logs[r].versions[i - 1], logs[r].versions[i]);
    }
    // Derived answers agree with a from-scratch derivation of the observed
    // base image — base and view reads came from the same snapshot.
    for (const auto& [image, answers] : logs[r].derived) {
      EXPECT_EQ(answers, DeriveP(image)) << "against base image '" << image
                                         << "'";
    }
    EXPECT_FALSE(logs[r].images.empty());
  }
  ASSERT_EQ(db->active_sessions(), 0u);
  // Only the cached current snapshot (pinned by the facade, not a session)
  // may remain live.
  EXPECT_LE(db->live_session_versions(), 1u);

  if (persistent) {
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    std::string cmd = StrCat("rm -rf ", dir);
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
}

class SessionHistoryTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionHistoryTest, EveryReadIsAnAcknowledgedCommitPrefix) {
  // 10 seeds per shard x 10 shards = the 100-seed suite, sharded so ctest
  // runs shards in parallel and a failure names its seed via SCOPED_TRACE.
  const int shard = GetParam();
  for (int i = 0; i < 10; ++i) {
    RunSeed(static_cast<uint64_t>(shard * 10 + i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SessionHistoryTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace deddb
