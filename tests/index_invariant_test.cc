// The index-invariant property suite: after randomized sequences of
// Apply / rejected-Apply (rollback) / Checkpoint / session-pin operations,
// every composite and column index's postings must exactly cover the
// relation's tuples — Relation::ValidateIndexes proves the bijection (slot
// table, posting sums, bucket keys) and FactStore::ValidateIndexes sweeps
// every relation, including the ones snapshot sessions still pin. The
// ConcurrentReaders test runs the same validation from reader threads while
// the writer commits; the TSan CI job is its race proof.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/deductive_database.h"
#include "parser/parser.h"
#include "util/strings.h"
#include "workload/random_programs.h"

namespace deddb {
namespace {

// A schema whose join shape makes the advisor declare a composite index on
// E's first two columns (see index_advisor.h), so every Apply below
// exercises incremental composite maintenance through the COW commit path.
constexpr char kTernaryProgram[] = R"(
  base B/2.
  base E/3.
  derived D/1.
  D(z) <- B(x, y) & E(x, y, z).
)";

constexpr size_t kConstants = 6;

std::string ConstName(size_t i) { return StrCat("K", i); }

// Tracks the EDB contents alongside the facade so the test can build
// transactions that are valid (ins of absent, del of present) or invalid on
// purpose.
class OpDriver {
 public:
  explicit OpDriver(DeductiveDatabase* db, uint64_t seed)
      : db_(db), rng_(seed) {}

  std::array<size_t, 3> RandomTriple() {
    return {rng_() % kConstants, rng_() % kConstants, rng_() % kConstants};
  }

  Result<Atom> EAtom(const std::array<size_t, 3>& t) {
    return db_->GroundAtom(
        "E", {ConstName(t[0]), ConstName(t[1]), ConstName(t[2])});
  }

  // Applies one random valid transaction (a mix of inserts of absent facts
  // and deletes of present ones).
  void ApplyValid() {
    std::vector<std::pair<DeductiveDatabase::Op, Atom>> events;
    size_t size = 1 + rng_() % 4;
    std::set<std::array<size_t, 3>> pending_ins;
    std::set<std::array<size_t, 3>> pending_del;
    for (size_t i = 0; i < size; ++i) {
      bool del = !facts_.empty() && rng_() % 2 == 0;
      if (del) {
        auto it = facts_.begin();
        std::advance(it, rng_() % facts_.size());
        if (!pending_del.insert(*it).second) continue;
        PushEvent(DeductiveDatabase::Op::kDelete, *it, &events);
      } else {
        std::array<size_t, 3> t = RandomTriple();
        if (facts_.count(t) != 0 || !pending_ins.insert(t).second) continue;
        PushEvent(DeductiveDatabase::Op::kInsert, t, &events);
      }
    }
    if (events.empty()) return;
    auto txn = db_->MakeTransaction(std::move(events));
    ASSERT_TRUE(txn.ok()) << txn.status();
    Status applied = db_->Apply(*txn);
    ASSERT_TRUE(applied.ok()) << applied;
    for (const auto& t : pending_ins) facts_.insert(t);
    for (const auto& t : pending_del) facts_.erase(t);
  }

  // Applies a transaction that must be rejected (deleting an absent fact);
  // the store must be left exactly as it was.
  void ApplyInvalid() {
    std::array<size_t, 3> t;
    do {
      t = RandomTriple();
    } while (facts_.count(t) != 0);
    std::vector<std::pair<DeductiveDatabase::Op, Atom>> events;
    PushEvent(DeductiveDatabase::Op::kDelete, t, &events);
    auto txn = db_->MakeTransaction(std::move(events));
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_FALSE(db_->Apply(*txn).ok()) << "rejection expected";
  }

  size_t fact_count() const { return facts_.size(); }
  std::mt19937_64& rng() { return rng_; }

 private:
  // gtest's ASSERT_* macros need a void-returning context.
  void PushEvent(
      DeductiveDatabase::Op op, const std::array<size_t, 3>& t,
      std::vector<std::pair<DeductiveDatabase::Op, Atom>>* events) {
    auto atom = EAtom(t);
    ASSERT_TRUE(atom.ok()) << atom.status();
    events->emplace_back(op, *atom);
  }

  DeductiveDatabase* db_;
  std::mt19937_64 rng_;
  std::set<std::array<size_t, 3>> facts_;
};

void ExpectIndexesValid(const DeductiveDatabase& db, const std::string& at) {
  Status status = db.database().facts().ValidateIndexes(db.symbols());
  ASSERT_TRUE(status.ok()) << at << ": " << status;
}

class IndexInvariantTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IndexInvariantTest,
                         ::testing::Range<uint64_t>(0, 10));

// In-memory: random Apply / rejected-Apply / session-pin sequences, with the
// full index invariant checked after every single operation — on the
// writer's store and on every pinned snapshot.
TEST_P(IndexInvariantTest, RandomApplyRollbackSessionSequences) {
  DeductiveDatabase db;
  ASSERT_TRUE(LoadProgram(&db, kTernaryProgram).ok());
  OpDriver driver(&db, /*seed=*/100 + GetParam());
  std::vector<std::unique_ptr<Session>> sessions;

  for (size_t op = 0; op < 60; ++op) {
    switch (driver.rng()() % 5) {
      case 0:
      case 1:
      case 2:
        driver.ApplyValid();
        break;
      case 3:
        driver.ApplyInvalid();
        break;
      case 4:
        if (sessions.size() < 4 && (driver.rng()() % 2 == 0)) {
          auto session = db.BeginSession();
          ASSERT_TRUE(session.ok()) << session.status();
          sessions.push_back(std::move(*session));
        } else if (!sessions.empty()) {
          sessions.erase(sessions.begin() + driver.rng()() % sessions.size());
        }
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ExpectIndexesValid(db, "op " + std::to_string(op));
    for (const auto& session : sessions) {
      Status pinned =
          session->database().facts().ValidateIndexes(db.symbols());
      ASSERT_TRUE(pinned.ok()) << "pinned snapshot at op " << op << ": "
                               << pinned;
    }
  }
}

// Persistent: Checkpoint interleaves with commits; a reopen at the end must
// restore a store whose advised indexes are declared and valid (recovery
// re-derives declarations from the restored program).
TEST_P(IndexInvariantTest, CheckpointAndRecoveryKeepIndexesValid) {
  std::string tmpl = StrCat(::testing::TempDir(), "idxinvXXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  std::string dir(buf.data());

  {
    auto db = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(LoadProgram(db->get(), kTernaryProgram).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());  // make the schema durable
    OpDriver driver(db->get(), /*seed=*/200 + GetParam());
    for (size_t op = 0; op < 40; ++op) {
      switch (driver.rng()() % 5) {
        case 0:
        case 1:
        case 2:
          driver.ApplyValid();
          break;
        case 3:
          driver.ApplyInvalid();
          break;
        case 4: {
          Status checkpointed = (*db)->Checkpoint();
          ASSERT_TRUE(checkpointed.ok()) << checkpointed;
          break;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
      ExpectIndexesValid(**db, "op " + std::to_string(op));
    }
    ASSERT_TRUE((*db)->Close().ok());
  }

  auto reopened = DeductiveDatabase::OpenPersistent(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectIndexesValid(**reopened, "after recovery");
  SymbolId e = (*reopened)->database().FindPredicate("E").value();
  EXPECT_EQ((*reopened)->database().facts().DeclaredIndexes(e),
            std::vector<Relation::Mask>{0b011});
}

// Readers validate pinned snapshots (and run full scans over them) while the
// writer keeps committing. Run under TSan in CI.
TEST_P(IndexInvariantTest, ConcurrentReadersSeeValidIndexes) {
  DeductiveDatabase db;
  ASSERT_TRUE(LoadProgram(&db, kTernaryProgram).ok());
  OpDriver driver(&db, /*seed=*/300 + GetParam());
  for (size_t i = 0; i < 10; ++i) driver.ApplyValid();
  if (::testing::Test::HasFatalFailure()) return;

  std::atomic<bool> stop{false};
  std::atomic<size_t> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto session = db.BeginSession();
        if (!session.ok()) {
          ++reader_failures;
          return;
        }
        const FactStore& pinned = (*session)->database().facts();
        if (!pinned.ValidateIndexes(db.symbols()).ok()) ++reader_failures;
        size_t count = 0;
        pinned.ForEach([&](SymbolId, const Tuple&) { ++count; });
        (void)count;
      }
    });
  }
  for (size_t op = 0; op < 30; ++op) {
    driver.ApplyValid();
    if (::testing::Test::HasFatalFailure()) break;
    ExpectIndexesValid(db, "concurrent op " + std::to_string(op));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0u);
  ExpectIndexesValid(db, "after readers joined");
}

// The random-program workload (binary predicates, negation) through the same
// invariant: transactions from the workload generator, validated after each.
TEST_P(IndexInvariantTest, RandomWorkloadTransactionsKeepIndexesValid) {
  workload::RandomProgramConfig config;
  config.seed = 400 + GetParam();
  auto db = workload::MakeRandomDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectIndexesValid(**db, "initial");
  for (size_t op = 0; op < 10; ++op) {
    auto txn =
        workload::RandomTransaction(db->get(), config, /*size=*/4,
                                    /*seed=*/500 + GetParam() * 16 + op);
    ASSERT_TRUE(txn.ok()) << txn.status();
    Status applied = (*db)->Apply(*txn);
    ASSERT_TRUE(applied.ok()) << applied;
    ExpectIndexesValid(**db, "workload op " + std::to_string(op));
  }
}

}  // namespace
}  // namespace deddb
