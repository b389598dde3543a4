// Randomized crash-recovery matrix (the crash-consistency proof of
// DESIGN.md §8): 100 seeded runs, each driving a persistent database with
// random transactions and checkpoints while one randomly chosen persist
// fault point is armed. When the fault fires the database object is dropped
// without Close() — by construction the WAL self-heals live failures to the
// exact bytes a crash at that instruction would leave, so this simulates the
// crash. Recovery must then reproduce exactly the committed prefix: the
// acked commits and nothing else, with the materialized IDB equal to a
// from-scratch re-derivation of the recovered EDB.

#include <gtest/gtest.h>

#include <unistd.h>

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
#include "util/resource_guard.h"
#include "util/rng.h"
#include "util/strings.h"

namespace deddb {
namespace {

constexpr FaultPoint kMatrixPoints[] = {
    // Persist-layer points: fail the commit append, the batch fsync, and
    // every step of the checkpoint protocol.
    FaultPoint::kWalAppend,      FaultPoint::kWalFsync,
    FaultPoint::kSnapshotWrite,  FaultPoint::kSnapshotFsync,
    FaultPoint::kSnapshotRename, FaultPoint::kWalReset,
};
constexpr size_t kNumMatrixPoints =
    sizeof(kMatrixPoints) / sizeof(kMatrixPoints[0]);

constexpr const char* kConstants[] = {"c0", "c1", "c2", "c3", "c4", "c5"};
constexpr const char* kBasePreds[] = {"Q", "R"};

// Sorted textual image of a fact store, via that database's own symbol
// table — recovered and oracle databases intern symbols in different orders,
// so raw SymbolId comparison across them would be meaningless.
std::vector<std::string> Dump(const DeductiveDatabase& db,
                              const FactStore& store) {
  std::vector<std::string> out;
  store.ForEach([&](SymbolId pred, const Tuple& t) {
    std::string s = StrCat(db.symbols().NameOf(pred), "(");
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) s += ",";
      s += db.symbols().NameOf(t[i]);
    }
    out.push_back(StrCat(s, ")"));
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The shared schema: P(x) <- Q(x) & not R(x), with P materialized. Every
// commit maintains P incrementally (Apply and UpdateProcessor alike), so
// every seed exercises the snapshot's materialized section and the view
// delta re-derived on replay.
void DeclareSchema(DeductiveDatabase* db) {
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
  ASSERT_TRUE(db->MaterializeView(*p).ok());
  ASSERT_TRUE(db->InitializeMaterializedViews().ok());
}

// Canonical image of a base-fact set as (pred idx, const idx) pairs,
// rendered without touching any database (same format as ImageOfSession).
std::string ImageOfMirror(const std::set<std::pair<size_t, size_t>>& mirror) {
  std::vector<std::string> facts;
  for (const auto& [p, c] : mirror) {
    facts.push_back(StrCat(kBasePreds[p], "(", kConstants[c], ")"));
  }
  std::sort(facts.begin(), facts.end());
  return Join(facts, ";");
}

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

// A reader thread driven while the fault window is open: continuously opens
// snapshot sessions and records the base image each one pins. Reads never
// touch the persist fault points, so they must neither perturb the crash
// nor observe anything but an acknowledged commit prefix.
struct ReaderLog {
  std::vector<std::string> images;
  std::vector<std::string> errors;
};

void SessionReaderLoop(DeductiveDatabase* db, const std::atomic<bool>* done,
                       ReaderLog* log) {
  // At least one snapshot even if the fault window closes instantly.
  for (int iter = 0; iter == 0 || !done->load(std::memory_order_acquire);
       ++iter) {
    Result<std::unique_ptr<Session>> begun = db->BeginSession();
    if (!begun.ok()) {
      log->errors.push_back(begun.status().ToString());
      return;
    }
    log->images.push_back(ImageOfSession(**begun));
    std::this_thread::yield();
  }
}

// One run of the matrix. Returns through gtest assertions only.
void RunSeed(uint64_t seed, bool with_readers = false) {
  SCOPED_TRACE(StrCat("seed=", seed));
  std::string tmpl = StrCat(::testing::TempDir(), "crashXXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  std::string dir = buf.data();

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

  {
    // Processor-mode seeds commit through UpdateProcessor (kProcessor);
    // direct-mode seeds commit through Apply (kDirect).
    const bool via_processor = rng.NextChance(1, 2);

    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
    DeclareSchema(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());

    // `mirror` tracks the base facts so random transactions can be built
    // valid per eqs. 1-2; `acked` records the events of every acknowledged
    // commit. The oracle twin is built from `acked` only after the injector
    // is disarmed — it is a global singleton, so a live oracle driven during
    // the fault window would poke (and could trip) the armed point itself.
    using Event = std::tuple<size_t, size_t, bool>;  // (pred, const, insert)
    std::set<std::pair<size_t, size_t>> mirror;      // (pred idx, const idx)
    std::vector<std::vector<Event>> acked_txns;

    // Crash-while-readers-active: two reader threads continuously pin
    // snapshot sessions throughout the fault window, plus one session
    // pinned before it opens that must keep answering after the "crash".
    std::set<std::string> prefix_images;
    prefix_images.insert(ImageOfMirror(mirror));
    std::atomic<bool> readers_done{false};
    std::vector<ReaderLog> reader_logs(with_readers ? 2 : 0);
    std::vector<std::thread> readers;
    std::unique_ptr<Session> pinned;
    std::string pinned_image;
    if (with_readers) {
      auto begun = db->BeginSession();
      ASSERT_TRUE(begun.ok()) << begun.status().ToString();
      pinned = std::move(*begun);
      pinned_image = ImageOfSession(*pinned);
      for (ReaderLog& log : reader_logs) {
        readers.emplace_back(SessionReaderLoop, db.get(), &readers_done,
                             &log);
      }
    }

    const FaultPoint point =
        kMatrixPoints[rng.NextBelow(kNumMatrixPoints)];
    const size_t trigger = 1 + rng.NextBelow(3);
    FaultInjector::Instance().Arm(point, trigger,
                                  InternalError("injected crash"));

    bool crashed = false;
    for (int op = 0; op < 40 && !crashed; ++op) {
      if (rng.NextChance(1, 8)) {
        crashed = !db->Checkpoint().ok();
        continue;
      }
      // Build a random valid transaction (1-3 events). Validity per
      // eqs. 1-2 is against the PRE-state (`mirror`), and a fact may appear
      // in at most one event — opposite events on the same fact are a
      // conflict the Transaction itself rejects (see transaction.h).
      std::set<std::pair<size_t, size_t>> cur = mirror;
      std::set<std::pair<size_t, size_t>> touched;
      const size_t num_events = 1 + rng.NextBelow(3);
      Transaction txn;
      std::vector<Event> events;
      for (size_t e = 0; e < num_events; ++e) {
        const size_t p = rng.NextBelow(2);
        const size_t c = rng.NextBelow(6);
        if (!touched.insert({p, c}).second) continue;
        Atom fact = db->GroundAtom(kBasePreds[p], {kConstants[c]}).value();
        if (mirror.count({p, c}) > 0) {
          ASSERT_TRUE(txn.AddDelete(fact).ok());
          events.emplace_back(p, c, false);
          cur.erase({p, c});
        } else {
          ASSERT_TRUE(txn.AddInsert(fact).ok());
          events.emplace_back(p, c, true);
          cur.insert({p, c});
        }
      }
      bool was_acked;
      if (via_processor) {
        UpdateProcessor processor(db.get());
        auto report = processor.ProcessTransaction(txn);
        was_acked = report.ok() && report->accepted;
      } else {
        was_acked = db->Apply(txn).ok();
      }
      if (was_acked) {
        mirror = std::move(cur);
        acked_txns.push_back(std::move(events));
        prefix_images.insert(ImageOfMirror(mirror));
      } else {
        crashed = true;  // the armed fault fired; stop and "crash"
        // Every commit applies in memory before confirming durability, so
        // post-crash readers may legitimately observe the final, never-
        // acknowledged transaction (recovery below proves it does not
        // survive the crash).
        prefix_images.insert(ImageOfMirror(cur));
      }
    }
    FaultInjector::Instance().Disarm();

    if (with_readers) {
      readers_done.store(true, std::memory_order_release);
      for (std::thread& reader : readers) reader.join();
      // The pinned session survived the crash of the writer: it still
      // answers exactly the image it pinned before the fault window.
      EXPECT_EQ(ImageOfSession(*pinned), pinned_image);
      pinned.reset();
      for (const ReaderLog& log : reader_logs) {
        ASSERT_TRUE(log.errors.empty()) << log.errors.front();
        EXPECT_FALSE(log.images.empty());
        for (const std::string& image : log.images) {
          EXPECT_TRUE(prefix_images.count(image) > 0)
              << "torn or phantom state observed at crash time: '" << image
              << "'";
        }
      }
    }

    // Build the committed-prefix oracle: the acked transactions replayed
    // through the same apply path on an in-memory twin.
    DeductiveDatabase oracle;
    DeclareSchema(&oracle);
    for (const std::vector<Event>& events : acked_txns) {
      Transaction twin;
      for (const auto& [p, c, insert] : events) {
        Atom fact =
            oracle.GroundAtom(kBasePreds[p], {kConstants[c]}).value();
        ASSERT_TRUE((insert ? twin.AddInsert(fact) : twin.AddDelete(fact))
                        .ok());
      }
      if (via_processor) {
        UpdateProcessor twin_processor(&oracle);
        auto report = twin_processor.ProcessTransaction(twin);
        ASSERT_TRUE(report.ok() && report->accepted);
      } else {
        ASSERT_TRUE(oracle.Apply(twin).ok());
      }
    }
    // Simulated crash: drop the handle with no Close(). A live injected
    // failure already self-healed the files to the durable prefix, which is
    // byte-identical to what a real crash at that instruction leaves.
    db.reset();

    auto reopened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<DeductiveDatabase> recovered = std::move(*reopened);

    // 1. Recovered EDB == the committed prefix.
    EXPECT_EQ(Dump(*recovered, recovered->database().facts()),
              Dump(oracle, oracle.database().facts()));
    // 2. Recovered materialized IDB == the oracle's.
    EXPECT_EQ(Dump(*recovered, recovered->database().materialized_store()),
              Dump(oracle, oracle.database().materialized_store()));
    // 3. The recovered materialized IDB is exactly the derivation of the
    // recovered EDB — rebuild from the recovered base facts alone and
    // re-derive P from scratch.
    {
      DeductiveDatabase rebuilt;
      DeclareSchema(&rebuilt);
      Transaction all;
      recovered->database().facts().ForEach([&](SymbolId pred,
                                                const Tuple& t) {
        std::vector<std::string_view> names;
        for (SymbolId s : t) names.push_back(recovered->symbols().NameOf(s));
        ASSERT_TRUE(
            all.AddInsert(
                   rebuilt
                       .GroundAtom(recovered->symbols().NameOf(pred), names)
                       .value())
                .ok());
      });
      ASSERT_TRUE(rebuilt.Apply(all).ok());
      ASSERT_TRUE(rebuilt.InitializeMaterializedViews().ok());
      EXPECT_EQ(Dump(*recovered, recovered->database().materialized_store()),
                Dump(rebuilt, rebuilt.database().materialized_store()));
    }
    EXPECT_TRUE(recovered->IsConsistent().value());
  }

  std::string cmd = StrCat("rm -rf ", dir);
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

class PersistCrashTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_P(PersistCrashTest, RecoveryReproducesTheCommittedPrefix) {
  // 10 seeds per shard x 10 shards = the 100-seed matrix, sharded so ctest
  // can run shards in parallel and a failure names its seed via
  // SCOPED_TRACE.
  const int shard = GetParam();
  for (int i = 0; i < 10; ++i) {
    RunSeed(static_cast<uint64_t>(shard * 10 + i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, PersistCrashTest, ::testing::Range(0, 10));

TEST(PersistCrashWithReadersTest,
     ActiveSessionsNeitherPerturbNorObserveTheCrash) {
  // The crash matrix re-run with snapshot sessions alive at crash time:
  // reader threads pinning snapshots through the fault window, and one
  // session begun before it that must keep answering after the writer dies.
  // Fresh seeds, so the scenarios differ from the plain matrix.
  for (int i = 0; i < 10; ++i) {
    RunSeed(static_cast<uint64_t>(100 + i), /*with_readers=*/true);
    FaultInjector::Instance().Disarm();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace deddb
