// Unit tests of the evaluation layer: dependency graphs, stratification,
// bottom-up fixpoints (incl. recursion and negation)
// and the query engine's strategies.

#include <gtest/gtest.h>

#include "core/deductive_database.h"
#include "eval/bottom_up.h"
#include "eval/dependency_graph.h"
#include "eval/query_engine.h"
#include "eval/stratification.h"
#include "parser/parser.h"

namespace deddb {
namespace {

// Helper: loads a program into a facade and returns it.
std::unique_ptr<DeductiveDatabase> Load(const char* source) {
  auto db = std::make_unique<DeductiveDatabase>();
  auto loaded = LoadProgram(db.get(), source);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

TEST(DependencyGraphTest, EdgesAndPolarity) {
  auto db = Load(R"(
    base B/1.
    derived D/1.
    derived E/1.
    D(x) <- B(x) & not E(x).
    E(x) <- B(x).
  )");
  DependencyGraph graph(db->database().program());
  SymbolId d = db->database().FindPredicate("D").value();
  SymbolId e = db->database().FindPredicate("E").value();
  EXPECT_TRUE(graph.IsDefined(d));
  EXPECT_TRUE(graph.IsDefined(e));
  // D depends negatively on E; B is extensional (not a node).
  const auto& edges = graph.EdgesOf(d);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].target, e);
  EXPECT_TRUE(edges[0].negative);
  EXPECT_TRUE(graph.EdgesOf(e).empty());
}

TEST(DependencyGraphTest, SccOrderIsBottomUp) {
  auto db = Load(R"(
    base B/2.
    derived T/2.
    derived Top/2.
    T(x, y) <- B(x, y).
    T(x, y) <- T(x, z) & B(z, y).
    Top(x, y) <- T(x, y).
  )");
  DependencyGraph graph(db->database().program());
  auto sccs = graph.SccsBottomUp();
  SymbolId t = db->database().FindPredicate("T").value();
  SymbolId top = db->database().FindPredicate("Top").value();
  // T must come before Top.
  size_t t_pos = 99, top_pos = 99;
  for (size_t i = 0; i < sccs.size(); ++i) {
    for (SymbolId s : sccs[i]) {
      if (s == t) t_pos = i;
      if (s == top) top_pos = i;
    }
  }
  EXPECT_LT(t_pos, top_pos);
}

TEST(DependencyGraphTest, ReachableAndRelevantSubprogram) {
  auto db = Load(R"(
    base B/1.
    derived D1/1.
    derived D2/1.
    derived Unrelated/1.
    D1(x) <- D2(x).
    D2(x) <- B(x).
    Unrelated(x) <- B(x).
  )");
  SymbolId d1 = db->database().FindPredicate("D1").value();
  SymbolId unrelated = db->database().FindPredicate("Unrelated").value();
  Program relevant = RelevantSubprogram(db->database().program(), {d1});
  EXPECT_EQ(relevant.size(), 2u);
  EXPECT_FALSE(relevant.Defines(unrelated));
}

TEST(StratificationTest, AcceptsStratifiedNegation) {
  auto db = Load(R"(
    base B/1.
    derived Lower/1.
    derived Upper/1.
    Lower(x) <- B(x).
    Upper(x) <- B(x) & not Lower(x).
  )");
  auto strat = Stratify(db->database().program(), db->symbols());
  ASSERT_TRUE(strat.ok()) << strat.status();
  SymbolId lower = db->database().FindPredicate("Lower").value();
  SymbolId upper = db->database().FindPredicate("Upper").value();
  EXPECT_LT(strat->stratum_of.at(lower), strat->stratum_of.at(upper));
}

TEST(StratificationTest, RejectsNegationThroughRecursion) {
  auto db = Load(R"(
    base B/1.
    derived P/1.
    derived Q/1.
    P(x) <- B(x) & not Q(x).
    Q(x) <- P(x).
  )");
  auto strat = Stratify(db->database().program(), db->symbols());
  EXPECT_EQ(strat.status().code(), StatusCode::kInvalidArgument);
}

TEST(BottomUpTest, TransitiveClosure) {
  auto db = Load(R"(
    base Edge/2.
    derived Path/2.
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Path(x, z) & Edge(z, y).
    Edge(A, B). Edge(B, C). Edge(C, D).
  )");
  FactStoreProvider edb(&db->database().facts());
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb);
  auto idb = evaluator.Evaluate();
  ASSERT_TRUE(idb.ok()) << idb.status();
  SymbolId path = db->database().FindPredicate("Path").value();
  EXPECT_EQ(idb->Find(path)->size(), 6u);  // AB AC AD BC BD CD
  SymbolId a = db->symbols().Intern("A");
  SymbolId d = db->symbols().Intern("D");
  EXPECT_TRUE(idb->Contains(path, {a, d}));
}

TEST(BottomUpTest, StratifiedNegationSemantics) {
  auto db = Load(R"(
    base Node/1.
    base Edge/2.
    derived Reaches/2.
    derived Isolated/1.
    Reaches(x, y) <- Edge(x, y).
    Reaches(x, y) <- Reaches(x, z) & Edge(z, y).
    Isolated(x) <- Node(x) & not Reaches(x, x).
    Node(A). Node(B). Node(C).
    Edge(A, B). Edge(B, A). Edge(B, C).
  )");
  FactStoreProvider edb(&db->database().facts());
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb);
  auto idb = evaluator.Evaluate();
  ASSERT_TRUE(idb.ok()) << idb.status();
  SymbolId isolated = db->database().FindPredicate("Isolated").value();
  SymbolId c = db->symbols().Intern("C");
  // A and B are on a cycle; C is not.
  EXPECT_EQ(idb->Find(isolated)->size(), 1u);
  EXPECT_TRUE(idb->Contains(isolated, {c}));
}

TEST(BottomUpTest, EvaluateForRestrictsWork) {
  auto db = Load(R"(
    base B/1.
    derived Wanted/1.
    derived Huge/2.
    Wanted(x) <- B(x).
    Huge(x, y) <- B(x) & B(y).
    B(A). B(C). B(D).
  )");
  FactStoreProvider edb(&db->database().facts());
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb);
  SymbolId wanted = db->database().FindPredicate("Wanted").value();
  SymbolId huge = db->database().FindPredicate("Huge").value();
  auto idb = evaluator.EvaluateFor({wanted});
  ASSERT_TRUE(idb.ok());
  EXPECT_EQ(idb->Find(huge), nullptr) << "unrelated predicate was computed";
  EXPECT_EQ(idb->Find(wanted)->size(), 3u);
}

TEST(BottomUpTest, StatsAreMeaningful) {
  auto db = Load(R"(
    base Edge/2.
    derived Path/2.
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Path(x, z) & Edge(z, y).
    Edge(A, B). Edge(B, C).
  )");
  FactStoreProvider edb(&db->database().facts());
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb);
  ASSERT_TRUE(evaluator.Evaluate().ok());
  EXPECT_EQ(evaluator.stats().derived_facts, 3u);  // AB BC AC
  EXPECT_GE(evaluator.stats().rounds, 2u);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Load(R"(
      base Parent/2.
      derived Grandparent/2.
      derived Ancestor/2.
      Grandparent(x, z) <- Parent(x, y) & Parent(y, z).
      Ancestor(x, y) <- Parent(x, y).
      Ancestor(x, z) <- Ancestor(x, y) & Parent(y, z).
      Parent(Ann, Bea). Parent(Bea, Cal). Parent(Cal, Dee).
    )");
    edb_ = std::make_unique<FactStoreProvider>(&db_->database().facts());
    engine_ = std::make_unique<QueryEngine>(db_->database().program(),
                                            db_->symbols(), *edb_);
  }

  Atom Make(const char* pred, std::vector<Term> args) {
    return db_->MakeAtom(pred, std::move(args)).value();
  }

  std::unique_ptr<DeductiveDatabase> db_;
  std::unique_ptr<FactStoreProvider> edb_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, GroundHoldsNonRecursive) {
  auto holds = engine_->Holds(
      Make("Grandparent", {db_->Constant("Ann"), db_->Constant("Cal")}));
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
  auto not_holds = engine_->Holds(
      Make("Grandparent", {db_->Constant("Ann"), db_->Constant("Dee")}));
  ASSERT_TRUE(not_holds.ok());
  EXPECT_FALSE(*not_holds);
}

TEST_F(QueryEngineTest, RecursivePredicateFallsBackToMaterialization) {
  auto holds = engine_->Holds(
      Make("Ancestor", {db_->Constant("Ann"), db_->Constant("Dee")}));
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
}

TEST_F(QueryEngineTest, TopDownAndMaterializedAgree) {
  Atom pattern = Make("Grandparent", {db_->Constant("Ann"),
                                      db_->Variable("who")});
  auto top_down = engine_->SolveTopDown(pattern);
  auto materialized = engine_->SolveMaterialized(pattern);
  ASSERT_TRUE(top_down.ok()) << top_down.status();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(*top_down, *materialized);
  ASSERT_EQ(top_down->size(), 1u);
}

TEST_F(QueryEngineTest, OpenPatternOverBase) {
  Atom pattern = Make("Parent", {db_->Variable("p"), db_->Variable("c")});
  auto all = engine_->SolvePattern(pattern);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST_F(QueryEngineTest, RepeatedVariablePattern) {
  // Parent(x, x) has no solutions.
  Term x = db_->Variable("x");
  auto none = engine_->SolvePattern(Make("Parent", {x, x}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(QueryEngineTest, ExistsStopsEarly) {
  auto exists = engine_->Exists(
      Make("Grandparent", {db_->Variable("a"), db_->Variable("b")}));
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
}

TEST_F(QueryEngineTest, LazyPatternStreams) {
  size_t seen = 0;
  auto stopped = engine_->SolveLazyPattern(
      Make("Parent", {db_->Variable("p"), db_->Variable("c")}),
      [&](const Tuple&) { return ++seen < 2; });
  ASSERT_TRUE(stopped.ok());
  EXPECT_TRUE(*stopped);
  EXPECT_EQ(seen, 2u);
}

// Regression test for the bottom_up_stats() contract: the engine
// *accumulates* materialization work across Solve*/Holds calls (it used to
// overwrite the totals with each call's delta); ResetStats() zeroes, and
// InvalidateCache() deliberately does not.
TEST_F(QueryEngineTest, BottomUpStatsAccumulateAcrossSolves) {
  // First materialization: the recursive Ancestor reachable set.
  auto first = engine_->SolveMaterialized(
      Make("Ancestor", {db_->Variable("a"), db_->Variable("b")}));
  ASSERT_TRUE(first.ok()) << first.status();
  const EvaluationStats after_first = engine_->bottom_up_stats();
  EXPECT_GT(after_first.derived_facts, 0u);
  EXPECT_GT(after_first.rounds, 0u);

  // Invalidate, then materialize again: the same work is re-done and must
  // ADD to the totals, not replace them.
  engine_->InvalidateCache();
  const EvaluationStats before_second = engine_->bottom_up_stats();
  EXPECT_EQ(before_second.derived_facts, after_first.derived_facts)
      << "InvalidateCache must not reset stats";
  auto second = engine_->SolveMaterialized(
      Make("Ancestor", {db_->Variable("a"), db_->Variable("b")}));
  ASSERT_TRUE(second.ok()) << second.status();
  const EvaluationStats after_second = engine_->bottom_up_stats();
  EXPECT_EQ(after_second.derived_facts, 2 * after_first.derived_facts);
  EXPECT_EQ(after_second.rounds, 2 * after_first.rounds);
  EXPECT_EQ(after_second.rule_firings, 2 * after_first.rule_firings);

  // A cached answer does no new bottom-up work.
  auto third = engine_->SolveMaterialized(
      Make("Ancestor", {db_->Variable("a"), db_->Variable("b")}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(engine_->bottom_up_stats().derived_facts,
            after_second.derived_facts);

  // ResetStats() restores a zero baseline for per-query measurement.
  engine_->ResetStats();
  EXPECT_EQ(engine_->bottom_up_stats().derived_facts, 0u);
  EXPECT_EQ(engine_->bottom_up_stats().rounds, 0u);
}

TEST_F(QueryEngineTest, InvalidateCacheReflectsEdbChanges) {
  Atom goal = Make("Grandparent", {db_->Constant("Ann"),
                                   db_->Constant("Cal")});
  ASSERT_TRUE(engine_->Holds(goal).value());
  ASSERT_TRUE(db_->RemoveFact(
                    Make("Parent", {db_->Constant("Ann"),
                                    db_->Constant("Bea")}))
                  .ok());
  // Stale until invalidated.
  engine_->InvalidateCache();
  EXPECT_FALSE(engine_->Holds(goal).value());
}

}  // namespace
}  // namespace deddb
