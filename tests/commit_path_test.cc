// The facade's one commit path (DESIGN.md §9): Apply and UpdateProcessor
// both keep the materialized views right, through one upward pass per
// commit.
//
// CommitPathHistoryTest is the randomized oracle: 100 seeds, each a random
// hierarchical program with some materialized views and a constraint,
// driven by a random interleaving of Apply and Process. After every commit
// the view store must equal InitializeMaterializedViews run on a fresh
// database holding the same base facts. Each seed runs in memory and again
// on a persistent database that is reopened (replaying its log) every few
// commits.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/commit_observer.h"
#include "core/deductive_database.h"
#include "core/update_processor.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace deddb {
namespace {

constexpr size_t kBases = 3;
constexpr size_t kViews = 4;
constexpr size_t kConstants = 4;
constexpr int kCommitsPerSeed = 24;
constexpr int kReopenEvery = 8;

// Sorted textual image of a fact store, by name: the oracle interns symbols
// in its own order, so raw ids cannot be compared across databases.
std::vector<std::string> Dump(const DeductiveDatabase& db,
                              const FactStore& store) {
  std::vector<std::string> out;
  store.ForEach([&](SymbolId pred, const Tuple& t) {
    std::vector<std::string> args;
    for (SymbolId s : t) args.emplace_back(db.symbols().NameOf(s));
    out.push_back(StrCat(db.symbols().NameOf(pred), "(", Join(args, ","), ")"));
  });
  std::sort(out.begin(), out.end());
  return out;
}

struct RandomProgram {
  std::vector<size_t> arity;  // bases first, then views
  std::string text;           // declarations and rules, no facts

  std::string Name(size_t pred) const {
    return pred < kBases ? StrCat("B", pred) : StrCat("V", pred - kBases);
  }
};

// A hierarchical program over unary and binary predicates: each view's rules
// draw from the bases and the views before it, negated literals only over
// variables some positive literal binds. Roughly half the views are
// materialized (at least one), and Ic1 forbids a view tuple next to both
// B0 and B1.
RandomProgram MakeProgram(Rng* rng) {
  RandomProgram program;
  for (size_t i = 0; i < kBases + kViews; ++i) {
    program.arity.push_back(1 + rng->NextBelow(2));
  }
  std::string& text = program.text;
  for (size_t b = 0; b < kBases; ++b) {
    text += StrCat("base ", program.Name(b), "/", program.arity[b], ".\n");
  }
  const size_t always = kBases + rng->NextBelow(kViews);
  for (size_t v = kBases; v < kBases + kViews; ++v) {
    const bool materialized = v == always || rng->NextChance(1, 2);
    text += StrCat(materialized ? "materialized " : "", "view ",
                   program.Name(v), "/", program.arity[v], ".\n");
  }
  text += "ic Ic1/1.\n";
  const char* const kVars[] = {"x", "y", "z"};
  for (size_t v = kBases; v < kBases + kViews; ++v) {
    const size_t rules = 1 + rng->NextBelow(2);
    for (size_t r = 0; r < rules; ++r) {
      std::vector<std::string> body;
      std::set<std::string> bound;
      auto literal = [&](size_t pred, bool negative) {
        std::vector<std::string> args;
        for (size_t i = 0; i < program.arity[pred]; ++i) {
          std::string var = kVars[rng->NextBelow(3)];
          if (negative && bound.count(var) == 0) var = *bound.begin();
          args.push_back(var);
        }
        if (!negative) bound.insert(args.begin(), args.end());
        body.push_back(StrCat(negative ? "not " : "", program.Name(pred), "(",
                              Join(args, ", "), ")"));
      };
      const size_t positives = 1 + rng->NextBelow(2);
      for (size_t i = 0; i < positives; ++i) literal(rng->NextBelow(v), false);
      std::vector<std::string> head = {"x", "y"};
      head.resize(program.arity[v]);
      for (const std::string& var : head) {
        if (bound.count(var) == 0) {
          // Bind a head variable the positives missed, through a base.
          body.push_back(StrCat("B", 0, "(", var,
                                program.arity[0] == 2 ? ", " + var : "", ")"));
          bound.insert(var);
        }
      }
      if (rng->NextChance(1, 2)) literal(rng->NextBelow(v), true);
      text += StrCat(program.Name(v), "(", Join(head, ", "), ") <- ",
                     Join(body, " & "), ".\n");
    }
  }
  const size_t watched = kBases + rng->NextBelow(kViews);
  auto diagonal = [&](size_t pred) {
    return StrCat(program.Name(pred), "(x",
                  program.arity[pred] == 2 ? ", x" : "", ")");
  };
  text += StrCat("Ic1(x) <- ", diagonal(watched), " & ", diagonal(0), " & ",
                 diagonal(1), ".\n");
  return program;
}

// Every ground base fact over the constants, as source text.
std::vector<std::string> AllBaseFacts(const RandomProgram& program) {
  std::vector<std::string> facts;
  for (size_t b = 0; b < kBases; ++b) {
    for (size_t c1 = 0; c1 < kConstants; ++c1) {
      if (program.arity[b] == 1) {
        facts.push_back(StrCat(program.Name(b), "(C", c1, ")"));
        continue;
      }
      for (size_t c2 = 0; c2 < kConstants; ++c2) {
        facts.push_back(StrCat(program.Name(b), "(C", c1, ",C", c2, ")"));
      }
    }
  }
  return facts;
}

// The oracle: a fresh database with the same program and base facts, its
// views materialized from scratch.
std::vector<std::string> Rederived(const RandomProgram& program,
                                   const std::vector<std::string>& base) {
  DeductiveDatabase fresh;
  std::string source = program.text;
  for (const std::string& fact : base) source += fact + ".\n";
  Result<size_t> loaded = LoadProgram(&fresh, source);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString() << "\n" << source;
  EXPECT_TRUE(fresh.InitializeMaterializedViews().ok());
  return Dump(fresh, fresh.database().materialized_store());
}

std::string MakeTempDir() {
  std::string tmpl = StrCat(::testing::TempDir(), "commitpathXXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

void RunSeed(uint64_t seed, bool persistent) {
  SCOPED_TRACE(StrCat("seed=", seed, persistent ? " persistent" : ""));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  const RandomProgram program = MakeProgram(&rng);
  SCOPED_TRACE(program.text);
  const std::vector<std::string> universe = AllBaseFacts(program);
  std::string initial = program.text;
  for (const std::string& fact : universe) {
    if (rng.NextChance(1, 3)) initial += fact + ".\n";
  }

  const std::string dir = persistent ? MakeTempDir() : "";
  std::unique_ptr<DeductiveDatabase> db;
  if (persistent) {
    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
  } else {
    db = std::make_unique<DeductiveDatabase>();
  }
  ASSERT_TRUE(LoadProgram(db.get(), initial).ok());
  ASSERT_TRUE(db->InitializeMaterializedViews().ok());
  if (persistent) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  for (int step = 0; step < kCommitsPerSeed; ++step) {
    const std::vector<std::string> before =
        Dump(*db, db->database().facts());
    const std::set<std::string> present(before.begin(), before.end());
    std::set<std::string> touched;
    std::vector<std::string> events;
    const size_t size = 1 + rng.NextBelow(3);
    for (size_t e = 0; e < size; ++e) {
      const std::string& fact = universe[rng.NextBelow(universe.size())];
      if (!touched.insert(fact).second) continue;
      events.push_back(StrCat(present.count(fact) > 0 ? "del " : "ins ", fact));
    }
    const std::string body = Join(events, ", ");
    auto txn = ParseTransaction(db.get(), body);
    ASSERT_TRUE(txn.ok()) << body << ": " << txn.status().ToString();

    const bool via_processor = rng.NextChance(1, 2);
    const std::vector<std::string> store_before =
        Dump(*db, db->database().materialized_store());
    bool committed;
    if (via_processor) {
      UpdateProcessor processor(db.get());
      auto report = processor.ProcessTransaction(*txn);
      // An inconsistent database (an earlier Apply broke Ic1) refuses every
      // Process; a violating transaction is rejected. Neither changes state.
      ASSERT_TRUE(report.ok() || report.status().code() ==
                                     StatusCode::kFailedPrecondition)
          << report.status().ToString();
      committed = report.ok() && report->accepted;
    } else {
      ASSERT_TRUE(db->Apply(*txn).ok()) << body;
      committed = true;
    }
    SCOPED_TRACE(StrCat("step ", step, via_processor ? " process " : " apply ",
                        body));
    const std::vector<std::string> base = Dump(*db, db->database().facts());
    if (!committed) {
      EXPECT_EQ(base, before);
      EXPECT_EQ(Dump(*db, db->database().materialized_store()), store_before);
    }
    EXPECT_EQ(Dump(*db, db->database().materialized_store()),
              Rederived(program, base));

    if (persistent && (step + 1) % kReopenEvery == 0) {
      // Drop the handle without Close(): the reopen replays every commit
      // since the checkpoint through the same commit path.
      db.reset();
      auto reopened = DeductiveDatabase::OpenPersistent(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      db = std::move(*reopened);
      EXPECT_EQ(Dump(*db, db->database().facts()), base);
      EXPECT_EQ(Dump(*db, db->database().materialized_store()),
                Rederived(program, base));
    }
    if (::testing::Test::HasFailure()) break;
  }
  db.reset();
  if (persistent) {
    ASSERT_EQ(std::system(StrCat("rm -rf ", dir).c_str()), 0);
  }
}

class CommitPathHistoryTest : public ::testing::TestWithParam<int> {};

TEST_P(CommitPathHistoryTest, StoreMatchesRederivationAfterEveryCommit) {
  // 10 seeds per shard x 10 shards = 100 seeds, each in memory and
  // persistent.
  const int shard = GetParam();
  for (int i = 0; i < 10; ++i) {
    const uint64_t seed = static_cast<uint64_t>(shard * 10 + i);
    RunSeed(seed, /*persistent=*/false);
    RunSeed(seed, /*persistent=*/true);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CommitPathHistoryTest,
                         ::testing::Range(0, 10));

// Wants one derived predicate and records what each commit delivered.
class RecordingObserver : public CommitObserver {
 public:
  explicit RecordingObserver(SymbolId wanted) : wanted_(wanted) {}
  bool active() const override { return true; }
  std::vector<SymbolId> WantedDerived() override { return {wanted_}; }
  void OnCommit(uint64_t, const Transaction&,
                const DerivedEvents& derived) override {
    commits.push_back(derived);
  }
  void OnBarrier(uint64_t) override { ++barriers; }

  std::vector<DerivedEvents> commits;
  int barriers = 0;

 private:
  SymbolId wanted_;
};

TEST(CommitPathTest, OneAcceptedProcessRunsOneUpwardPass) {
  DeductiveDatabase db;
  ASSERT_TRUE(LoadProgram(&db, R"(
    base La/1. base Works/1. base U_benefit/1.
    materialized view Unemp/1.
    ic Ic1/1.
    Unemp(x) <- La(x) & not Works(x).
    Ic1(x) <- Works(x) & U_benefit(x).
    La(A). La(B). Works(A).
  )")
                  .ok());
  ASSERT_TRUE(db.InitializeMaterializedViews().ok());
  SymbolId unemp = db.database().FindPredicate("Unemp").value();
  RecordingObserver observer(unemp);
  db.set_commit_observer(&observer);
  obs::Tracer tracer;
  db.set_observability({&tracer, nullptr});

  auto txn = ParseTransaction(&db, "del Works(A)");
  ASSERT_TRUE(txn.ok());
  UpdateProcessor processor(&db);
  auto report = processor.ProcessTransaction(*txn);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->accepted);
  db.set_observability({});
  db.set_commit_observer(nullptr);

  // The constraints, the view delta and the observer's events all come
  // from a single upward interpretation.
  size_t upward = 0;
  for (const obs::Span& span : tracer.Snapshot()) {
    if (span.name == "upward") ++upward;
  }
  EXPECT_EQ(upward, 1u);
  ASSERT_EQ(observer.commits.size(), 1u);
  EXPECT_EQ(observer.barriers, 0);
  EXPECT_EQ(observer.commits[0].inserts.ToString(db.symbols()),
            report->views.delta.inserts.ToString(db.symbols()));
  EXPECT_EQ(observer.commits[0].deletes.ToString(db.symbols()),
            report->views.delta.deletes.ToString(db.symbols()));
  EXPECT_TRUE(observer.commits[0].ContainsInsert(
      unemp, {db.symbols().Intern("A")}));
}

}  // namespace
}  // namespace deddb
