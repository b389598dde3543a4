// Interplay of materialized views with both interpretations: the old state
// of a materialized view is, by definition, its stored extension; both
// interpreters must read it from the store (not re-derive it), and the
// combined processor must keep store and base facts in lockstep.

#include <gtest/gtest.h>

#include "core/deductive_database.h"
#include "core/update_processor.h"
#include "parser/parser.h"

namespace deddb {
namespace {

std::unique_ptr<DeductiveDatabase> Load(bool simplify = true) {
  auto db = std::make_unique<DeductiveDatabase>(
      EventCompilerOptions{.simplify = simplify, .obs = {}});
  EXPECT_TRUE(LoadProgram(db.get(), R"(
    base Q/1. base R/1.
    materialized view P/1.
    view Upper/1.
    P(x) <- Q(x) & not R(x).
    Upper(x) <- P(x).
    Q(A). Q(B). R(B).
  )")
                  .ok());
  EXPECT_TRUE(db->InitializeMaterializedViews().ok());
  return db;
}

TEST(MaterializedInterplayTest, UnsimplifiedModeReconcilesStaleTuples) {
  // Plant a tuple in the store that the rules cannot derive. Per the literal
  // event rule δP <- P⁰ & ¬Pⁿ (with P⁰ = the stored extension), any
  // transaction induces del P(Z). The *unsimplified* compilation, whose
  // deletion candidates are all of P⁰, reconciles it away.
  auto db = Load(/*simplify=*/false);
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId z = db->symbols().Intern("Z");
  db->database().materialized_store().Add(p, {z});

  auto txn = ParseTransaction(db.get(), "ins Q(C)");
  ASSERT_TRUE(txn.ok());
  auto result = db->MaintainMaterializedViews(*txn, /*apply=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->delta.ContainsDelete(p, {z}))
      << "stale stored tuple must be reconciled away";
  EXPECT_TRUE(result->delta.ContainsInsert(p, {db->symbols().Intern("C")}));
  EXPECT_FALSE(db->database().materialized_store().Contains(p, {z}));
}

TEST(MaterializedInterplayTest, SimplifiedModeAssumesFaithfulStore) {
  // The simplified deletion candidates (dcand$P) cover exactly the tuples
  // whose *derivation* an event may break — valid under the documented
  // contract that the store is rule-consistent (initialized and maintained
  // through this API). A hand-corrupted tuple is outside that contract and
  // is left alone; this test pins the behavior so the contract is explicit.
  auto db = Load(/*simplify=*/true);
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId z = db->symbols().Intern("Z");
  db->database().materialized_store().Add(p, {z});

  auto txn = ParseTransaction(db.get(), "ins Q(C)");
  ASSERT_TRUE(txn.ok());
  auto result = db->MaintainMaterializedViews(*txn, /*apply=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->delta.ContainsDelete(p, {z}));
  EXPECT_TRUE(result->delta.ContainsInsert(p, {db->symbols().Intern("C")}));
}

TEST(MaterializedInterplayTest, DownwardTreatsStoreAsOldState) {
  auto db = Load();
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId a = db->symbols().Intern("A");
  // Remove P(A) from the store: per materialized semantics P(A) does not
  // hold in the old state, so requesting its insertion is satisfiable —
  // trivially, since the new state re-derives it whenever nothing changes?
  // No: the transition rules derive Pⁿ(A) from Q(A) & ¬R(A) regardless of
  // the store, so ιP(A) = Pⁿ(A) ∧ ¬P⁰(A) holds with the EMPTY transaction.
  db->database().materialized_store().Remove(p, {a});
  auto request = ParseRequest(db.get(), "ins P(A)");
  ASSERT_TRUE(request.ok());
  auto result = db->TranslateViewUpdate(*request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->Satisfiable());
  // The minimal translation is the empty transaction (plus requirements
  // not to break the derivation).
  EXPECT_TRUE(result->translations[0].transaction.empty())
      << result->translations[0].ToString(db->symbols());
}

TEST(MaterializedInterplayTest, ProcessorKeepsStoreInLockstep) {
  auto db = Load();
  UpdateProcessor processor(db.get());
  SymbolId p = db->database().FindPredicate("P").value();

  // Three consecutive accepted transactions; after each, the store equals a
  // from-scratch recomputation.
  for (const char* body : {"ins Q(C)", "ins R(A)", "del R(B)"}) {
    auto txn = ParseTransaction(db.get(), body);
    ASSERT_TRUE(txn.ok());
    auto report = processor.ProcessTransaction(*txn, /*apply=*/true);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->accepted);

    FactStore snapshot = db->database().materialized_store();
    ASSERT_TRUE(db->InitializeMaterializedViews().ok());
    EXPECT_EQ(snapshot.ToString(db->symbols()),
              db->database().materialized_store().ToString(db->symbols()))
        << "after " << body;
  }
  EXPECT_GT(db->database().materialized_store().Find(p)->size(), 0u);
}

TEST(MaterializedInterplayTest, ApplyMaintainsMaterializedViews) {
  // Plain Apply commits through the same path as the processor, minus the
  // constraint gate: deleting Works(A) must make Unemp(A) hold in the store,
  // and a later Process that re-inserts Works(A) removes exactly that tuple.
  DeductiveDatabase db;
  ASSERT_TRUE(LoadProgram(&db, R"(
    base La/1. base Works/1.
    materialized view Unemp/1.
    Unemp(x) <- La(x) & not Works(x).
    La(A). La(B). Works(A).
  )")
                  .ok());
  ASSERT_TRUE(db.InitializeMaterializedViews().ok());
  SymbolId unemp = db.database().FindPredicate("Unemp").value();
  SymbolId a = db.symbols().Intern("A");

  auto txn = ParseTransaction(&db, "del Works(A)");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db.Apply(*txn).ok());
  EXPECT_EQ(db.database().materialized_store().Find(unemp)->size(), 2u);
  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(
      (*session)->Holds((*session)->GroundAtom("Unemp", {"A"}).value()).value());

  auto reinsert = ParseTransaction(&db, "ins Works(A)");
  ASSERT_TRUE(reinsert.ok());
  UpdateProcessor processor(&db);
  auto report = processor.ProcessTransaction(*reinsert);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->accepted);
  EXPECT_TRUE(report->views.delta.ContainsDelete(unemp, {a}));
  EXPECT_EQ(report->views.applied_deletes, 1u);
  EXPECT_EQ(db.database().materialized_store().Find(unemp)->size(), 1u);
}

}  // namespace
}  // namespace deddb
