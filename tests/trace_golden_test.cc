// Golden-trace tests: every worked example of the paper is executed with a
// Tracer attached, and the normalized span tree (names, nesting, structural
// attributes — no timings, no ids), the EXPLAIN rendering and the metrics
// snapshot are compared byte-for-byte against checked-in goldens. This pins
// down the whole observability surface: span vocabulary, attribute names,
// nesting, metric names and the deterministic-id contract.
//
// Regenerate the goldens after an intentional instrumentation change with
//   DEDDB_UPDATE_GOLDENS=1 ./build/tests/trace_golden_test
// and review the diff like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/deductive_database.h"
#include "eval/bottom_up.h"
#include "eval/fact_provider.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"

#ifndef DEDDB_GOLDEN_DIR
#error "DEDDB_GOLDEN_DIR must be defined by the build"
#endif

namespace deddb {
namespace {

bool UpdateMode() {
  return std::getenv("DEDDB_UPDATE_GOLDENS") != nullptr;
}

std::string GoldenPath(const std::string& name) {
  return std::string(DEDDB_GOLDEN_DIR) + "/" + name + ".txt";
}

// Compares `actual` against the golden `name`, or rewrites the golden in
// update mode.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (UpdateMode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — regenerate with DEDDB_UPDATE_GOLDENS=1 " << std::flush;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "trace for " << name << " diverged from the golden; if the "
      << "instrumentation change is intentional, regenerate with "
      << "DEDDB_UPDATE_GOLDENS=1 and review the diff";
}

// The database of examples 3.1 / 4.1 / 4.2:
//   Q(A). Q(B). R(B).   P(x) <- Q(x) & not R(x).
std::unique_ptr<DeductiveDatabase> MakeSmallDb(bool simplify) {
  auto db = std::make_unique<DeductiveDatabase>(
      EventCompilerOptions{.simplify = simplify, .obs = {}});
  auto loaded = LoadProgram(db.get(), R"(
    base Q/1.
    base R/1.
    view P/1.
    Q(A). Q(B). R(B).
    P(x) <- Q(x) & not R(x).
  )");
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

// The employment database of examples 5.1 / 5.2 / 5.3.
std::unique_ptr<DeductiveDatabase> MakeEmploymentDb() {
  auto db = std::make_unique<DeductiveDatabase>();
  auto loaded = LoadProgram(db.get(), R"(
    base La/1.
    base Works/1.
    base U_benefit/1.
    view Unemp/1.
    ic Ic1/1.
    La(Dolors).
    U_benefit(Dolors).
    Unemp(x) <- La(x) & not Works(x).
    Ic1(x) <- Unemp(x) & not U_benefit(x).
  )");
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

// Fixture holding one traced database. Lazy caches (compiled event rules,
// active domain) are warmed BEFORE the tracer attaches, so each golden
// records exactly the traced operation, not one-time setup.
class TraceGoldenTest : public ::testing::Test {
 protected:
  void Attach(DeductiveDatabase* db) {
    ASSERT_TRUE(db->Compiled().ok());
    ASSERT_TRUE(db->Domain().ok());
    db->set_observability(obs::ObsContext{&tracer_, &metrics_});
  }

  // Goldens <name>.tree / <name>.explain / <name>.metrics from the current
  // tracer + metrics contents.
  void CheckAll(const std::string& name) {
    CheckGolden(name + ".tree", obs::RenderSpanTree(tracer_));
    CheckGolden(name + ".explain", obs::Explain(tracer_));
    CheckGolden(name + ".metrics", metrics_.RenderText());
  }

  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
};

// --- Example 3.1: compiling the transition rule of P(x) <- Q(x) & not R(x).
// Unsimplified, so the compile span's rule counts reflect all 2^k disjuncts.
TEST_F(TraceGoldenTest, Example31CompileEvents) {
  auto db = MakeSmallDb(/*simplify=*/false);
  db->set_observability(obs::ObsContext{&tracer_, &metrics_});
  ASSERT_TRUE(db->Compiled().ok());
  CheckAll("example31_compile");
}

// --- Example 4.1: upward interpretation of T = {δR(B)} -> {ιP(B)}.
TEST_F(TraceGoldenTest, Example41Upward) {
  auto db = MakeSmallDb(/*simplify=*/true);
  Attach(db.get());
  auto txn = ParseTransaction(db.get(), "del R(B)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  auto events = db->InducedEvents(*txn);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->ToString(db->symbols()), "{ins P(B)}");
  CheckAll("example41_upward");
}

// --- Example 4.2: downward translation of ιP(B) -> (δR(B) & ¬δQ(B)).
TEST_F(TraceGoldenTest, Example42Downward) {
  auto db = MakeSmallDb(/*simplify=*/true);
  Attach(db.get());
  auto request = ParseRequest(db.get(), "ins P(B)");
  ASSERT_TRUE(request.ok()) << request.status();
  auto result = db->TranslateViewUpdate(*request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->translations.size(), 1u);
  CheckAll("example42_downward");
}

// --- Example 5.1: integrity checking rejects T = {δU_benefit(Dolors)}.
TEST_F(TraceGoldenTest, Example51IntegrityChecking) {
  auto db = MakeEmploymentDb();
  Attach(db.get());
  auto txn = ParseTransaction(db.get(), "del U_benefit(Dolors)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  auto check = db->CheckIntegrity(*txn);
  ASSERT_TRUE(check.ok()) << check.status();
  ASSERT_TRUE(check->violated);
  CheckAll("example51_integrity");
}

// --- Example 5.2: view updating, δUnemp(Dolors) -> two translations.
TEST_F(TraceGoldenTest, Example52ViewUpdating) {
  auto db = MakeEmploymentDb();
  Attach(db.get());
  auto request = ParseRequest(db.get(), "del Unemp(Dolors)");
  ASSERT_TRUE(request.ok()) << request.status();
  auto result = db->TranslateViewUpdate(*request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->translations.size(), 2u);
  CheckAll("example52_view_updating");
}

// --- Example 5.3: preventing the side effect ιUnemp(Maria) of {ιLa(Maria)}.
TEST_F(TraceGoldenTest, Example53SideEffects) {
  auto db = MakeEmploymentDb();
  Attach(db.get());
  auto txn = ParseTransaction(db.get(), "ins La(Maria)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  SymbolId unemp = db->database().FindPredicate("Unemp").value();
  RequestedEvent unwanted;
  unwanted.is_insert = true;
  unwanted.predicate = unemp;
  unwanted.args = {Term::MakeConstant(db->symbols().Intern("Maria"))};
  auto result = db->PreventSideEffects(*txn, {unwanted});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->translations.size(), 1u);
  CheckAll("example53_side_effects");
}

// --- Plan goldens: the access paths the join planner chooses for the
// paper's examples. Each test runs the planned bottom-up engine directly
// with the tracer attached; every rule evaluation emits a "plan" span
// whose attribute renders the chosen join order, per-step access path
// ([scan] / [col<i>] / [comp(<cols>)] / [key] / [empty], see DESIGN.md
// §6e) and selectivity estimates, plus the actual per-step row counts.
// The EXPLAIN golden is the human-readable proof of which access paths
// were picked; the metrics golden pins the indexed-vs-scanned step
// counters.
class PlanGoldenTest : public TraceGoldenTest {
 protected:
  // Evaluates every derived predicate of `db` with observability attached.
  void Evaluate(const DeductiveDatabase& db, size_t num_threads = 0) {
    FactStoreProvider edb(&db.database().facts());
    EvaluationOptions options;
    options.num_threads = num_threads;
    options.obs = obs::ObsContext{&tracer_, &metrics_};
    BottomUpEvaluator evaluator(db.database().program(), db.symbols(), edb,
                                options);
    auto idb = evaluator.Evaluate();
    ASSERT_TRUE(idb.ok()) << idb.status();
  }
};

// Example 3.1's database: P(x) <- Q(x) & not R(x) leads with the Q scan and
// probes R as a ground negative (key lookup against the unary relation).
TEST_F(PlanGoldenTest, Example31Plan) {
  auto db = MakeSmallDb(/*simplify=*/true);
  Evaluate(*db);
  CheckAll("example31_plan");
}

// Example 4.1's state transition: after applying T = {δR(B)} the same rule
// is re-planned against the updated EDB (R now empty -> its probe renders
// as an empty access path).
TEST_F(PlanGoldenTest, Example41PlanAfterDelete) {
  auto db = MakeSmallDb(/*simplify=*/true);
  auto txn = ParseTransaction(db.get(), "del R(B)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  ASSERT_TRUE(db->Apply(*txn).ok());
  Evaluate(*db);
  CheckAll("example41_plan");
}

// Example 4.2's database evaluated at num_threads=2: the plan spans (and
// every metric) must be byte-identical to what a single orchestration
// thread records — the determinism contract of DESIGN.md §7 extended to
// the planner.
TEST_F(PlanGoldenTest, Example42PlanParallel) {
  auto db = MakeSmallDb(/*simplify=*/true);
  Evaluate(*db, /*num_threads=*/2);
  CheckAll("example42_plan");
}

// Example 5.1's employment database: the stratified program plans Unemp
// before the integrity constraint Ic1, which consumes Unemp's derivations.
TEST_F(PlanGoldenTest, Example51Plan) {
  auto db = MakeEmploymentDb();
  Evaluate(*db);
  CheckAll("example51_plan");
}

// Example 5.2 goal-directed: EvaluateFor(Unemp) restricts the program, so
// only Unemp's rule is planned and Ic1 never appears in the trace.
TEST_F(PlanGoldenTest, Example52PlanGoalDirected) {
  auto db = MakeEmploymentDb();
  FactStoreProvider edb(&db->database().facts());
  EvaluationOptions options;
  options.obs = obs::ObsContext{&tracer_, &metrics_};
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb,
                              options);
  SymbolId unemp = db->database().FindPredicate("Unemp").value();
  auto idb = evaluator.EvaluateFor({unemp});
  ASSERT_TRUE(idb.ok()) << idb.status();
  CheckAll("example52_plan");
}

// Example 5.3's side-effect state: after {ιLa(Maria)} the Unemp rule sees a
// larger La relation, and the plan's estimates and row counts shift with it.
TEST_F(PlanGoldenTest, Example53PlanAfterInsert) {
  auto db = MakeEmploymentDb();
  auto txn = ParseTransaction(db.get(), "ins La(Maria)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  ASSERT_TRUE(db->Apply(*txn).ok());
  Evaluate(*db);
  CheckAll("example53_plan");
}

// The deterministic-id contract, directly: repeating an operation after
// Tracer::Clear(), recording into a fresh registry, reproduces the identical
// normalized tree and metrics.
TEST_F(TraceGoldenTest, RepeatedRunIsByteIdentical) {
  auto db = MakeEmploymentDb();
  Attach(db.get());
  auto request = ParseRequest(db.get(), "del Unemp(Dolors)");
  ASSERT_TRUE(request.ok()) << request.status();

  ASSERT_TRUE(db->TranslateViewUpdate(*request).ok());
  const std::string first_tree = obs::RenderSpanTree(tracer_);
  const std::string first_metrics = metrics_.RenderText();

  tracer_.Clear();
  obs::MetricsRegistry fresh;
  db->set_observability(obs::ObsContext{&tracer_, &fresh});
  ASSERT_TRUE(db->TranslateViewUpdate(*request).ok());
  EXPECT_EQ(obs::RenderSpanTree(tracer_), first_tree);
  EXPECT_EQ(fresh.RenderText(), first_metrics);
}

}  // namespace
}  // namespace deddb
