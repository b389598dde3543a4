// Tests of the resource-governance subsystem: ResourceGuard semantics
// (deadline, budgets, cancellation, telemetry), guard behavior threaded
// through the evaluator / interpreters / facade, determinism of budget
// trips across thread counts, the typed round-limit status, and
// FaultInjector-driven rollback of the UpdateProcessor's atomic apply.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "core/update_processor.h"
#include "eval/bottom_up.h"
#include "eval/query_engine.h"
#include "parser/parser.h"
#include "util/resource_guard.h"
#include "workload/random_programs.h"
#include "workload/towers.h"

namespace deddb {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using workload::MakeRandomDatabase;
using workload::MakeTowerDatabase;
using workload::RandomProgramConfig;
using workload::TowerConfig;

std::unique_ptr<DeductiveDatabase> Load(const char* source) {
  auto db = std::make_unique<DeductiveDatabase>();
  auto loaded = LoadProgram(db.get(), source);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

// Canonical rendering of all persistent state of a facade: base facts plus
// the materialized-view store. Rollback tests compare this before/after.
std::string StateSnapshot(const DeductiveDatabase& db) {
  return db.database().facts().ToString(db.symbols()) + "\n---\n" +
         db.database().materialized_store().ToString(db.symbols());
}

// Guards a test against a stuck injector: every test that arms the
// process-wide FaultInjector goes through this scope.
struct ScopedFault {
  ScopedFault(FaultPoint point, size_t trigger_at, Status fault) {
    FaultInjector::Instance().Arm(point, trigger_at, std::move(fault));
  }
  ~ScopedFault() { FaultInjector::Instance().Disarm(); }
};

// ---------------------------------------------------------------------------
// ResourceGuard unit semantics.

TEST(ResourceGuardTest, DefaultGuardIsInert) {
  ResourceGuard guard;
  EXPECT_TRUE(guard.Check().ok());
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(guard.CheckTick().ok());
  EXPECT_TRUE(guard.ChargeDerivedFacts(1 << 20).ok());
  EXPECT_TRUE(guard.ChargeDnfTerms(1 << 20).ok());
  EXPECT_EQ(guard.derived_facts_charged(), size_t{1} << 20);
  EXPECT_EQ(guard.dnf_terms_charged(), size_t{1} << 20);
}

TEST(ResourceGuardTest, NullGuardHelpersAreNoOps) {
  EXPECT_TRUE(ResourceGuard::Check(nullptr).ok());
  EXPECT_TRUE(ResourceGuard::CheckTick(nullptr).ok());
  EXPECT_TRUE(ResourceGuard::ChargeDerivedFacts(nullptr, 10).ok());
  EXPECT_TRUE(ResourceGuard::ChargeDnfTerms(nullptr, 10).ok());
}

TEST(ResourceGuardTest, ExpiredDeadlineTripsCheck) {
  ResourceLimits limits;
  limits.deadline = nanoseconds(1);
  ResourceGuard guard(limits);
  // One nanosecond is over by the time we can ask.
  Status status = guard.Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGuardTest, CheckTickObservesDeadlineWithinOneStride) {
  ResourceLimits limits;
  limits.deadline = nanoseconds(1);
  ResourceGuard guard(limits);
  // The clock is only read every kTickStride-th call, so the trip is not
  // necessarily immediate — but it must land within one stride.
  Status status = Status::Ok();
  for (int i = 0; i < 65 && status.ok(); ++i) status = guard.CheckTick();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGuardTest, DerivedFactBudgetTripsPastLimit) {
  ResourceLimits limits;
  limits.max_derived_facts = 10;
  ResourceGuard guard(limits);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(guard.ChargeDerivedFacts(1).ok()) << "charge " << i;
  }
  Status status = guard.ChargeDerivedFacts(1);
  EXPECT_EQ(status.code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(guard.derived_facts_charged(), 11u);
  // The clock and the other budget are unaffected.
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.ChargeDnfTerms(1).ok());
}

TEST(ResourceGuardTest, DnfTermBudgetTripsPastLimit) {
  ResourceLimits limits;
  limits.max_dnf_terms = 4;
  ResourceGuard guard(limits);
  EXPECT_TRUE(guard.ChargeDnfTerms(4).ok());
  EXPECT_EQ(guard.ChargeDnfTerms(1).code(), StatusCode::kBudgetExceeded);
}

TEST(ResourceGuardTest, CancellationObservedByEveryCheck) {
  CancellationToken token;
  ResourceGuard guard(ResourceLimits{}, &token);
  EXPECT_TRUE(guard.Check().ok());
  token.Cancel();
  // Unlike the deadline, cancellation is seen by every tick, not only every
  // stride-th one.
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.CheckTick().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.CheckTick().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(guard.Check().ok());
}

TEST(ResourceGuardTest, RestartRearmsDeadlineAndZeroesCounters) {
  ResourceLimits limits;
  limits.deadline = std::chrono::hours(1);
  limits.max_derived_facts = 5;
  ResourceGuard guard(limits);
  EXPECT_EQ(guard.ChargeDerivedFacts(6).code(), StatusCode::kBudgetExceeded);
  guard.Restart();
  EXPECT_EQ(guard.derived_facts_charged(), 0u);
  EXPECT_EQ(guard.dnf_terms_charged(), 0u);
  EXPECT_TRUE(guard.ChargeDerivedFacts(5).ok());
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_GE(guard.elapsed().count(), 0);
}

// ---------------------------------------------------------------------------
// FaultInjector unit semantics.

TEST(FaultInjectorTest, InertByDefaultAndAfterDisarm) {
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.Poke(FaultPoint::kEvalRoundStart).ok());
  EXPECT_EQ(injector.HitCount(FaultPoint::kEvalRoundStart), 0u);
}

TEST(FaultInjectorTest, TriggersAtTheConfiguredPokeAndStaysSticky) {
  ScopedFault fault(FaultPoint::kDnfExpand, 3, InternalError("boom"));
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_TRUE(injector.Poke(FaultPoint::kDnfExpand).ok());
  // Pokes at other points never trigger but are counted.
  EXPECT_TRUE(injector.Poke(FaultPoint::kEvalMerge).ok());
  EXPECT_TRUE(injector.Poke(FaultPoint::kDnfExpand).ok());
  EXPECT_EQ(injector.Poke(FaultPoint::kDnfExpand).code(),
            StatusCode::kInternal);
  // Sticky: every later poke at the armed point keeps failing.
  EXPECT_EQ(injector.Poke(FaultPoint::kDnfExpand).code(),
            StatusCode::kInternal);
  EXPECT_EQ(injector.HitCount(FaultPoint::kDnfExpand), 4u);
  EXPECT_EQ(injector.HitCount(FaultPoint::kEvalMerge), 1u);
}

TEST(FaultInjectorTest, FaultPointNamesAreStable) {
  EXPECT_STREQ(FaultPointName(FaultPoint::kEvalRoundStart),
               "EVAL_ROUND_START");
  EXPECT_STREQ(FaultPointName(FaultPoint::kNetWriteFrame),
               "NET_WRITE_FRAME");
}

// ---------------------------------------------------------------------------
// Guarded bottom-up evaluation.

Result<FactStore> EvaluateGuarded(const DeductiveDatabase& db,
                                  const ResourceGuard* guard,
                                  size_t num_threads,
                                  EvaluationStats* stats = nullptr) {
  FactStoreProvider edb(&db.database().facts());
  EvaluationOptions options;
  options.guard = guard;
  options.num_threads = num_threads;
  BottomUpEvaluator evaluator(db.database().program(), db.symbols(), edb,
                              options);
  auto idb = evaluator.Evaluate();
  if (stats != nullptr) *stats = evaluator.stats();
  return idb;
}

TEST(GuardedEvaluationTest, InertGuardChangesNothing) {
  auto db = MakeTowerDatabase(TowerConfig{.depth = 3, .base_facts = 20});
  ASSERT_TRUE(db.ok()) << db.status();
  ResourceGuard guard;  // no limits
  auto unguarded = EvaluateGuarded(**db, nullptr, 0);
  auto guarded = EvaluateGuarded(**db, &guard, 0);
  ASSERT_TRUE(unguarded.ok());
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded->ToString((*db)->symbols()),
            unguarded->ToString((*db)->symbols()));
  // The guard saw every derivation go by.
  EXPECT_EQ(guard.derived_facts_charged(), guarded->TotalFacts());
}

TEST(GuardedEvaluationTest, ExpiredDeadlineUnwindsWithPartialStats) {
  auto db = MakeTowerDatabase(TowerConfig{.depth = 4, .base_facts = 50});
  ASSERT_TRUE(db.ok()) << db.status();
  ResourceLimits limits;
  limits.deadline = nanoseconds(1);
  ResourceGuard guard(limits);
  EvaluationStats stats;
  auto idb = EvaluateGuarded(**db, &guard, 0, &stats);
  ASSERT_FALSE(idb.ok());
  EXPECT_EQ(idb.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(stats.interrupted);
}

TEST(GuardedEvaluationTest, DerivedFactBudgetUnwindsSerialAndParallel) {
  auto db = MakeTowerDatabase(TowerConfig{.depth = 4, .base_facts = 50});
  ASSERT_TRUE(db.ok()) << db.status();
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    ResourceLimits limits;
    limits.max_derived_facts = 30;
    ResourceGuard guard(limits);
    EvaluationStats stats;
    auto idb = EvaluateGuarded(**db, &guard, threads, &stats);
    ASSERT_FALSE(idb.ok()) << "threads=" << threads;
    EXPECT_EQ(idb.status().code(), StatusCode::kBudgetExceeded)
        << "threads=" << threads;
    EXPECT_TRUE(stats.interrupted) << "threads=" << threads;
    // Charge-before-add: the budget trips on the (limit+1)-th derivation in
    // every mode, so the telemetry is exact and mode-independent.
    EXPECT_EQ(guard.derived_facts_charged(), 31u) << "threads=" << threads;
    EXPECT_LE(stats.derived_facts, 30u) << "threads=" << threads;
  }
}

TEST(GuardedEvaluationTest, BudgetStatusIdenticalAcrossThreadCounts) {
  RandomProgramConfig config;
  config.seed = 42;
  config.allow_recursion = true;
  config.facts_per_base = 40;
  auto db = MakeRandomDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  // The seed is chosen so the program derives more than the budget.
  auto oracle = EvaluateGuarded(**db, nullptr, 0);
  ASSERT_TRUE(oracle.ok());
  ASSERT_GT(oracle->TotalFacts(), 10u);
  std::vector<std::string> statuses;
  std::vector<size_t> charged;
  for (size_t threads : {1u, 2u, 8u}) {
    ResourceLimits limits;
    limits.max_derived_facts = 10;
    ResourceGuard guard(limits);
    auto idb = EvaluateGuarded(**db, &guard, threads);
    ASSERT_FALSE(idb.ok()) << "threads=" << threads;
    statuses.push_back(idb.status().ToString());
    charged.push_back(guard.derived_facts_charged());
  }
  // Budgets are charged single-threaded at the fixed-order round merge, so
  // every parallel thread count trips at the identical derivation with the
  // identical message.
  for (size_t i = 1; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], statuses[0]);
    EXPECT_EQ(charged[i], charged[0]);
  }
}

TEST(GuardedEvaluationTest, PreCancelledTokenUnwindsEveryMode) {
  auto db = MakeTowerDatabase(TowerConfig{.depth = 3, .base_facts = 20});
  ASSERT_TRUE(db.ok()) << db.status();
  CancellationToken token;
  token.Cancel();
  ResourceGuard guard(ResourceLimits{}, &token);
  for (size_t threads : {0u, 2u}) {
    EvaluationStats stats;
    auto idb = EvaluateGuarded(**db, &guard, threads, &stats);
    ASSERT_FALSE(idb.ok()) << "threads=" << threads;
    EXPECT_EQ(idb.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
    EXPECT_TRUE(stats.interrupted);
  }
  // After the owner resets the token the same guard works again.
  token.Reset();
  guard.Restart();
  EXPECT_TRUE(EvaluateGuarded(**db, &guard, 0).ok());
}

TEST(GuardedEvaluationTest, RoundLimitIsTypedAndModeIndependent) {
  auto db = Load(R"(
    base Edge/2.
    derived Path/2.
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Path(x, z) & Edge(z, y).
    Edge(A, B). Edge(B, C). Edge(C, D). Edge(D, E).
  )");
  std::vector<std::string> statuses;
  for (size_t threads : {0u, 1u, 4u}) {
    FactStoreProvider edb(&db->database().facts());
    EvaluationOptions options;
    options.max_rounds = 2;
    options.num_threads = threads;
    BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb,
                                options);
    auto idb = evaluator.Evaluate();
    ASSERT_FALSE(idb.ok()) << "threads=" << threads;
    EXPECT_EQ(idb.status().code(), StatusCode::kRoundLimit)
        << "threads=" << threads;
    statuses.push_back(idb.status().ToString());
  }
  // The parallel path reports exactly what the serial oracle reports.
  for (size_t i = 1; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], statuses[0]);
  }
}

TEST(GuardedEvaluationTest, QueryEngineForwardsGuardFailures) {
  auto db = Load(R"(
    base Edge/2.
    derived Path/2.
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Path(x, z) & Edge(z, y).
    Edge(A, B). Edge(B, C). Edge(C, D).
  )");
  FactStoreProvider edb(&db->database().facts());
  CancellationToken token;
  token.Cancel();
  ResourceGuard guard(ResourceLimits{}, &token);
  EvaluationOptions options;
  options.guard = &guard;
  QueryEngine engine(db->database().program(), db->symbols(), edb, options);
  Atom pattern =
      db->MakeAtom("Path", {db->Variable("a"), db->Variable("b")}).value();
  auto answers = engine.SolveMaterialized(pattern);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Guarded interpretation through the facade.

const char* kEmployment = R"(
  base La/1. base Works/1. base U_benefit/1.
  materialized view Unemp/1.
  ic Ic1/1.
  condition Alert/1.
  Unemp(x) <- La(x) & not Works(x).
  Ic1(x) <- Unemp(x) & not U_benefit(x).
  Alert(x) <- Unemp(x).
  La(Dolors).
  U_benefit(Dolors).
)";

TEST(GuardedFacadeTest, EveryProblemSpecChecksTheGuard) {
  auto db = Load(kEmployment);
  ASSERT_TRUE(db->InitializeMaterializedViews().ok());
  CancellationToken token;
  ResourceGuard guard(ResourceLimits{}, &token);
  db->set_resource_guard(&guard);
  ASSERT_EQ(db->resource_guard(), &guard);

  // Sanity: everything runs with the armed-but-untripped guard.
  ASSERT_TRUE(db->IsConsistent().ok());

  token.Cancel();
  auto txn = ParseTransaction(db.get(), "ins La(Maria)");
  ASSERT_TRUE(txn.ok());
  auto request = ParseRequest(db.get(), "ins Unemp(Maria)");
  ASSERT_TRUE(request.ok());

  EXPECT_EQ(db->CheckIntegrity(*txn).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(db->MonitorConditions(*txn).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(db->MaintainMaterializedViews(*txn, /*apply=*/false)
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(db->TranslateViewUpdate(*request).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(db->MaintainIntegrity(*txn).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(db->CheckSatisfiability().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(db->PreventSideEffects(*txn, {}).status().code(),
            StatusCode::kCancelled);
  problems::RuleUpdate noop_update;
  EXPECT_EQ(db->SimulateRuleUpdate(noop_update).status().code(),
            StatusCode::kCancelled);
  UpdateProcessor processor(db.get());
  EXPECT_EQ(processor.ProcessTransaction(*txn).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(processor.ProcessViewUpdate(*request).status().code(),
            StatusCode::kCancelled);

  // Uncancelling restores every path; state was never touched.
  token.Reset();
  EXPECT_TRUE(db->TranslateViewUpdate(*request).ok());
  db->set_resource_guard(nullptr);
}

// Acceptance scenario: a downward view update whose DNF expansion explodes
// exponentially (negation tower, §4.2 worst case) against a 100ms deadline
// returns kDeadlineExceeded mid-flight with partial telemetry, and the
// database is byte-identical before and after.
TEST(GuardedFacadeTest, ExplodingDnfDeadlineLeavesDatabaseUntouched) {
  auto db = MakeTowerDatabase(
      TowerConfig{.depth = 24, .base_facts = 2, .with_negation = true});
  ASSERT_TRUE(db.ok()) << db.status();
  // Lift the structural disjunct cap out of the way so only the wall clock
  // can stop the expansion.
  (*db)->downward_options().max_disjuncts = size_t{1} << 40;
  std::string before = StateSnapshot(**db);

  ResourceLimits limits;
  limits.deadline = milliseconds(100);
  ResourceGuard guard(limits);
  (*db)->set_resource_guard(&guard);

  auto request =
      ParseRequest(db->get(), "del " + workload::TowerLayerName(24) + "(" +
                                  workload::TowerElementName(0) + ")");
  ASSERT_TRUE(request.ok()) << request.status();
  auto result = (*db)->TranslateViewUpdate(*request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Partial progress is visible through the guard's telemetry.
  EXPECT_GT(guard.dnf_terms_charged(), 0u);
  EXPECT_GE(guard.elapsed(), milliseconds(100));
  EXPECT_EQ(StateSnapshot(**db), before);
}

TEST(GuardedFacadeTest, DnfTermBudgetCapsDownwardExpansion) {
  auto db = MakeTowerDatabase(
      TowerConfig{.depth = 10, .base_facts = 2, .with_negation = true});
  ASSERT_TRUE(db.ok()) << db.status();
  (*db)->downward_options().max_disjuncts = size_t{1} << 40;
  ResourceLimits limits;
  limits.max_dnf_terms = 500;
  ResourceGuard guard(limits);
  (*db)->set_resource_guard(&guard);
  auto request =
      ParseRequest(db->get(), "del " + workload::TowerLayerName(10) + "(" +
                                  workload::TowerElementName(0) + ")");
  ASSERT_TRUE(request.ok()) << request.status();
  auto result = (*db)->TranslateViewUpdate(*request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_GT(guard.dnf_terms_charged(), 500u);
}

// ---------------------------------------------------------------------------
// FaultInjector-driven unwind. A commit computes everything that can fail —
// the upward pass — before its first mutation, so there is nothing to roll
// back: a fault there must leave the database untouched.

class ProcessorRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Load(kEmployment);
    ASSERT_TRUE(db_->InitializeMaterializedViews().ok());
    processor_ = std::make_unique<UpdateProcessor>(db_.get());
    auto txn =
        ParseTransaction(db_.get(), "ins La(Maria), ins U_benefit(Maria)");
    ASSERT_TRUE(txn.ok());
    txn_ = std::make_unique<Transaction>(std::move(*txn));
  }

  void TearDown() override { FaultInjector::Instance().Disarm(); }

  // Arms `point`, asserts the transaction fails with the injected fault and
  // that the database (base facts + materialized store) is untouched, then
  // disarms and asserts the same transaction goes through cleanly.
  void ExpectRollbackAt(FaultPoint point) {
    std::string before = StateSnapshot(*db_);
    {
      ScopedFault fault(point, 1,
                        InternalError(std::string("injected fault at ") +
                                      FaultPointName(point)));
      auto report = processor_->ProcessTransaction(*txn_, /*apply=*/true);
      ASSERT_FALSE(report.ok()) << FaultPointName(point);
      EXPECT_EQ(report.status().code(), StatusCode::kInternal)
          << FaultPointName(point);
      EXPECT_NE(report.status().ToString().find("injected fault"),
                std::string::npos);
      EXPECT_EQ(StateSnapshot(*db_), before)
          << "state leaked through " << FaultPointName(point);
      EXPECT_GE(FaultInjector::Instance().HitCount(point), 1u);
    }
    // The disarmed injector costs nothing and the same transaction commits.
    auto report = processor_->ProcessTransaction(*txn_, /*apply=*/true);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->accepted);
    EXPECT_NE(StateSnapshot(*db_), before);
  }

  std::unique_ptr<DeductiveDatabase> db_;
  std::unique_ptr<UpdateProcessor> processor_;
  std::unique_ptr<Transaction> txn_;
};

TEST_F(ProcessorRollbackTest, UpwardFaultFailsBeforeAnyMutation) {
  ExpectRollbackAt(FaultPoint::kUpwardBody);
}

// View (re)materialization runs the bottom-up evaluator proper; a fault in
// a fixpoint round — serial or inside a parallel worker/merge — must leave
// the previously materialized store fully intact.
class MaterializationFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Load(kEmployment);
    ASSERT_TRUE(db_->InitializeMaterializedViews().ok());
  }
  void TearDown() override { FaultInjector::Instance().Disarm(); }

  void ExpectUnwindAt(FaultPoint point, size_t num_threads) {
    db_->set_num_threads(num_threads);
    std::string before = StateSnapshot(*db_);
    {
      ScopedFault fault(point, 1,
                        InternalError(std::string("injected fault at ") +
                                      FaultPointName(point)));
      Status status = db_->InitializeMaterializedViews();
      ASSERT_FALSE(status.ok()) << FaultPointName(point);
      EXPECT_EQ(status.code(), StatusCode::kInternal) << FaultPointName(point);
      EXPECT_EQ(StateSnapshot(*db_), before)
          << "state leaked through " << FaultPointName(point);
      EXPECT_GE(FaultInjector::Instance().HitCount(point), 1u)
          << FaultPointName(point) << " never reached";
    }
    EXPECT_TRUE(db_->InitializeMaterializedViews().ok());
    EXPECT_EQ(StateSnapshot(*db_), before);
    db_->set_num_threads(0);
  }

  std::unique_ptr<DeductiveDatabase> db_;
};

TEST_F(MaterializationFaultTest, SerialRoundFaultUnwinds) {
  ExpectUnwindAt(FaultPoint::kEvalRoundStart, /*num_threads=*/0);
}

TEST_F(MaterializationFaultTest, ParallelRoundFaultUnwinds) {
  ExpectUnwindAt(FaultPoint::kEvalRoundStart, /*num_threads=*/2);
}

TEST_F(MaterializationFaultTest, ParallelWorkerFaultUnwinds) {
  ExpectUnwindAt(FaultPoint::kEvalWorkItem, /*num_threads=*/2);
}

TEST_F(MaterializationFaultTest, ParallelMergeFaultUnwinds) {
  ExpectUnwindAt(FaultPoint::kEvalMerge, /*num_threads=*/2);
}

TEST(FaultUnwindTest, DownwardInterpreterUnwindsCleanly) {
  auto db = Load(kEmployment);
  std::string before = StateSnapshot(*db);
  auto request = ParseRequest(db.get(), "ins Unemp(Maria)");
  ASSERT_TRUE(request.ok());
  for (FaultPoint point :
       {FaultPoint::kDownwardEvent, FaultPoint::kDnfExpand}) {
    ScopedFault fault(point, 1, InternalError("injected fault"));
    auto result = db->TranslateViewUpdate(*request);
    ASSERT_FALSE(result.ok()) << FaultPointName(point);
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_EQ(StateSnapshot(*db), before);
  }
  // Disarmed: the same request succeeds.
  EXPECT_TRUE(db->TranslateViewUpdate(*request).ok());
}

TEST(FaultUnwindTest, FailedEventCompileDoesNotPoisonTheCache) {
  auto db = Load(kEmployment);
  auto request = ParseRequest(db.get(), "ins Unemp(Maria)");
  ASSERT_TRUE(request.ok());
  {
    ScopedFault fault(FaultPoint::kEventCompile, 1,
                      InternalError("injected fault"));
    // First use compiles the event machinery lazily; the injected failure
    // must surface, not be swallowed into the compiled-events cache.
    auto result = db->TranslateViewUpdate(*request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  // After the fault clears, compilation runs afresh and succeeds.
  EXPECT_TRUE(db->TranslateViewUpdate(*request).ok());
}

TEST(FaultUnwindTest, ParallelEvaluationSurvivesWorkerFaults) {
  // A worker that fails mid-round must not wedge the pool or corrupt later
  // evaluations on the same evaluator.
  auto db = Load(R"(
    base Edge/2.
    derived Path/2.
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Path(x, z) & Edge(z, y).
    Edge(A, B). Edge(B, C). Edge(C, D). Edge(D, E).
  )");
  FactStoreProvider edb(&db->database().facts());
  EvaluationOptions options;
  options.num_threads = 4;
  BottomUpEvaluator evaluator(db->database().program(), db->symbols(), edb,
                              options);
  {
    ScopedFault fault(FaultPoint::kEvalWorkItem, 1,
                      InternalError("injected fault"));
    auto idb = evaluator.Evaluate();
    ASSERT_FALSE(idb.ok());
    EXPECT_EQ(idb.status().code(), StatusCode::kInternal);
  }
  auto idb = evaluator.Evaluate();
  ASSERT_TRUE(idb.ok()) << idb.status();
  SymbolId path = db->database().FindPredicate("Path").value();
  EXPECT_EQ(idb->Find(path)->size(), 10u);
}

}  // namespace
}  // namespace deddb
