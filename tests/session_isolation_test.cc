// Targeted snapshot-isolation scenarios for the session layer (DESIGN.md
// §9), complementing the randomized suite in session_history_test.cc:
// snapshots pinned across Checkpoint(), sessions outliving rule updates
// (keeping their compiled event machinery), one compilation shared by every
// snapshot of a rule set, reads across a Process commit that fails before it
// mutates anything, the sticky commit-health failure when a commit (Apply or
// Process) is applied in memory but its log record never becomes durable,
// and retired snapshot versions leaving the live count as their last holder
// lets go.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "core/session.h"
#include "core/update_processor.h"
#include "obs/metrics.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb {
namespace {

// Q base, R base, P(x) <- Q(x) & not R(x) as a view.
void DeclareSchema(DeductiveDatabase* db, bool materialize = false) {
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

Transaction InsertOf(DeductiveDatabase* db, std::string_view pred,
                     std::string_view constant) {
  Transaction txn;
  EXPECT_TRUE(
      txn.AddInsert(db->GroundAtom(pred, {constant}).value()).ok());
  return txn;
}

std::string TempDirFor(const char* tag) {
  std::string tmpl = StrCat(::testing::TempDir(), tag, "XXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

class SessionIsolationTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_F(SessionIsolationTest, SessionPinsStateAcrossWriterCommits) {
  DeductiveDatabase db;
  DeclareSchema(&db);
  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "a")).ok());

  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  const uint64_t pinned_version = (*session)->version();

  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "b")).ok());
  ASSERT_TRUE(db.Apply(InsertOf(&db, "R", "a")).ok());

  // The session still answers from its snapshot: Q(a) holds, Q(b) does not,
  // and P(a) still derives because the snapshot has no R(a).
  Atom qa = (*session)->GroundAtom("Q", {"a"}).value();
  Atom qb = (*session)->GroundAtom("Q", {"b"}).value();
  Atom pa = (*session)->GroundAtom("P", {"a"}).value();
  EXPECT_TRUE((*session)->Holds(qa).value());
  EXPECT_FALSE((*session)->Holds(qb).value());
  EXPECT_TRUE((*session)->Holds(pa).value());
  EXPECT_EQ((*session)->version(), pinned_version);

  // A fresh session sees the new head, on a strictly later version.
  auto head = db.BeginSession();
  ASSERT_TRUE(head.ok());
  EXPECT_GT((*head)->version(), pinned_version);
  EXPECT_TRUE((*head)->Holds(qb).value());
  EXPECT_FALSE((*head)->Holds(pa).value());
}

TEST_F(SessionIsolationTest, SnapshotStaysPinnedAcrossCheckpoint) {
  std::string dir = TempDirFor("ckpt");
  {
    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
    DeclareSchema(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Apply(InsertOf(db.get(), "Q", "a")).ok());

    auto session = db->BeginSession();
    ASSERT_TRUE(session.ok());

    // Commit + checkpoint: the checkpoint swaps the WAL out underneath any
    // in-flight commits and truncates the log — none of which may move the
    // session off its snapshot.
    ASSERT_TRUE(db->Apply(InsertOf(db.get(), "Q", "b")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Apply(InsertOf(db.get(), "R", "a")).ok());

    Atom qa = (*session)->GroundAtom("Q", {"a"}).value();
    Atom qb = (*session)->GroundAtom("Q", {"b"}).value();
    Atom ra = (*session)->GroundAtom("R", {"a"}).value();
    EXPECT_TRUE((*session)->Holds(qa).value());
    EXPECT_FALSE((*session)->Holds(qb).value());
    EXPECT_FALSE((*session)->Holds(ra).value());
    ASSERT_TRUE(db->Close().ok());
  }
  // All three commits survive recovery.
  auto reopened = DeductiveDatabase::OpenPersistent(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(
      (*reopened)->Apply(InsertOf(reopened->get(), "Q", "c")).ok());
  Atom qb = (*reopened)->GroundAtom("Q", {"b"}).value();
  Atom ra = (*reopened)->GroundAtom("R", {"a"}).value();
  EXPECT_TRUE((*reopened)->database().facts().Contains(
      qb.predicate(), Tuple{qb.args()[0].constant()}));
  EXPECT_TRUE((*reopened)->database().facts().Contains(
      ra.predicate(), Tuple{ra.args()[0].constant()}));
  ASSERT_EQ(std::system(StrCat("rm -rf ", dir).c_str()), 0);
}

TEST_F(SessionIsolationTest, SessionOutlivesRuleUpdateWithItsCompiledRules) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  ASSERT_TRUE(db.DeclareBase("R", 1).ok());
  ASSERT_TRUE(db.DeclareView("P", 1).ok());
  Term x = db.Variable("x");
  Rule from_q(db.MakeAtom("P", {x}).value(),
              {Literal::Positive(db.MakeAtom("Q", {x}).value())});
  Rule from_r(db.MakeAtom("P", {x}).value(),
              {Literal::Positive(db.MakeAtom("R", {x}).value())});
  ASSERT_TRUE(db.AddRule(from_q).ok());
  ASSERT_TRUE(db.AddRule(from_r).ok());

  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());

  // Writer drops P <- R. The session keeps the event machinery it compiled
  // at snapshot time: inserting R(a) still induces P(a) through its pinned
  // rules, while a fresh session no longer derives it.
  problems::RuleUpdate update;
  update.remove.push_back(from_r);
  ASSERT_TRUE(db.ApplyRuleUpdate(update).ok());

  Transaction insert_r = InsertOf(&db, "R", "a");
  SymbolId p = db.database().FindPredicate("P").value();
  SymbolId a = db.symbols().Intern("a");

  auto old_events = (*session)->InducedEvents(insert_r);
  ASSERT_TRUE(old_events.ok()) << old_events.status().ToString();
  EXPECT_TRUE(old_events->ContainsInsert(p, Tuple{a}));

  auto fresh = db.BeginSession();
  ASSERT_TRUE(fresh.ok());
  auto new_events = (*fresh)->InducedEvents(insert_r);
  ASSERT_TRUE(new_events.ok()) << new_events.status().ToString();
  EXPECT_FALSE(new_events->ContainsInsert(p, Tuple{a}));
}

// The event rules depend on the rules alone: snapshots pinned at successive
// fact commits share the head's one compilation. A rule update retires it;
// a session pinned before keeps answering with it, and the next session
// gets another.
TEST_F(SessionIsolationTest, SessionsShareOneCompilationPerRuleSet) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  ASSERT_TRUE(db.DeclareBase("R", 1).ok());
  ASSERT_TRUE(db.DeclareView("P", 1).ok());
  Term x = db.Variable("x");
  Rule from_q(db.MakeAtom("P", {x}).value(),
              {Literal::Positive(db.MakeAtom("Q", {x}).value())});
  Rule from_r(db.MakeAtom("P", {x}).value(),
              {Literal::Positive(db.MakeAtom("R", {x}).value())});
  ASSERT_TRUE(db.AddRule(from_q).ok());
  ASSERT_TRUE(db.AddRule(from_r).ok());
  Result<const CompiledEvents*> head = db.Compiled();
  ASSERT_TRUE(head.ok()) << head.status();

  std::vector<std::unique_ptr<Session>> pinned;
  for (std::string_view c : {"a", "b", "c"}) {
    ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", c)).ok());
    auto session = db.BeginSession();
    ASSERT_TRUE(session.ok());
    pinned.push_back(std::move(*session));
  }
  for (size_t i = 0; i < pinned.size(); ++i) {
    if (i > 0) EXPECT_LT(pinned[i - 1]->version(), pinned[i]->version());
    Result<const CompiledEvents*> compiled = pinned[i]->Compiled();
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    EXPECT_EQ(*compiled, *head) << "session " << i;
  }

  problems::RuleUpdate update;
  update.remove.push_back(from_r);
  ASSERT_TRUE(db.ApplyRuleUpdate(update).ok());
  auto after = db.BeginSession();
  ASSERT_TRUE(after.ok());
  Result<const CompiledEvents*> renewed = (*after)->Compiled();
  ASSERT_TRUE(renewed.ok()) << renewed.status();
  EXPECT_NE(*renewed, *head);
  EXPECT_EQ(*pinned.back()->Compiled(), *head);

  Transaction insert_r = InsertOf(&db, "R", "z");
  SymbolId p = db.database().FindPredicate("P").value();
  Tuple z{db.symbols().Intern("z")};
  auto old_events = pinned.back()->InducedEvents(insert_r);
  ASSERT_TRUE(old_events.ok()) << old_events.status();
  EXPECT_TRUE(old_events->ContainsInsert(p, z));
  auto new_events = (*after)->InducedEvents(insert_r);
  ASSERT_TRUE(new_events.ok()) << new_events.status();
  EXPECT_FALSE(new_events->ContainsInsert(p, z));

  // Once the head compiles the new rule set, later snapshots share that.
  Result<const CompiledEvents*> recompiled = db.Compiled();
  ASSERT_TRUE(recompiled.ok()) << recompiled.status();
  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "d")).ok());
  auto later = db.BeginSession();
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(*(*later)->Compiled(), *recompiled);
}

// A Process commit that fails mid-pipeline no longer needs an
// ApplyAtomically rollback: its only failure point left (the upward pass)
// comes before the first mutation. Readers must still see nothing of it.
TEST_F(SessionIsolationTest, ReadsAreUndisturbedByAnApplyAtomicallyRollback) {
  DeductiveDatabase db;
  DeclareSchema(&db, /*materialize=*/true);
  {
    UpdateProcessor processor(&db);
    auto report = processor.ProcessTransaction(InsertOf(&db, "Q", "a"));
    ASSERT_TRUE(report.ok() && report->accepted);
  }
  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  const uint64_t pinned_version = (*session)->version();

  FaultInjector::Instance().Arm(FaultPoint::kUpwardBody, 1,
                                InternalError("injected upward failure"));
  {
    UpdateProcessor processor(&db);
    auto report = processor.ProcessTransaction(InsertOf(&db, "Q", "b"));
    EXPECT_FALSE(report.ok());
  }
  EXPECT_GE(FaultInjector::Instance().HitCount(FaultPoint::kUpwardBody), 1u);
  FaultInjector::Instance().Disarm();

  // The pinned session is untouched, and a fresh session sees the state
  // before the failed commit, the materialized P included.
  Atom qa = (*session)->GroundAtom("Q", {"a"}).value();
  Atom qb = (*session)->GroundAtom("Q", {"b"}).value();
  Atom pa = (*session)->GroundAtom("P", {"a"}).value();
  Atom pb = (*session)->GroundAtom("P", {"b"}).value();
  EXPECT_TRUE((*session)->Holds(qa).value());
  EXPECT_FALSE((*session)->Holds(qb).value());
  EXPECT_TRUE((*session)->Holds(pa).value());
  EXPECT_EQ((*session)->version(), pinned_version);

  auto fresh = db.BeginSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Holds(qa).value());
  EXPECT_FALSE((*fresh)->Holds(qb).value());
  EXPECT_TRUE((*fresh)->Holds(pa).value());
  EXPECT_FALSE((*fresh)->Holds(pb).value());

  // The failure poisons nothing: the same commit goes through on retry.
  {
    UpdateProcessor processor(&db);
    auto report = processor.ProcessTransaction(InsertOf(&db, "Q", "b"));
    ASSERT_TRUE(report.ok() && report->accepted);
  }
  auto after = db.BeginSession();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE((*after)->Holds(qb).value());
  EXPECT_TRUE((*after)->Holds(pb).value());
}

// Commits `Q(constant)` through Apply or through the update processor.
Status CommitInsert(DeductiveDatabase* db, bool via_processor,
                    std::string_view constant) {
  Transaction txn = InsertOf(db, "Q", constant);
  if (!via_processor) return db->Apply(txn);
  UpdateProcessor processor(db);
  Result<UpdateProcessor::TransactionReport> report =
      processor.ProcessTransaction(txn);
  if (!report.ok()) return report.status();
  return report->accepted ? Status::Ok()
                          : FailedPreconditionError("rejected");
}

TEST_F(SessionIsolationTest, NonDurableCommitPoisonsTheWriterButNotReaders) {
  // Apply and Process share one commit path: stage the record, apply in
  // memory (the materialized P included), then wait for durability. An
  // injected fsync failure there must poison the facade either way.
  for (const bool via_processor : {false, true}) {
    SCOPED_TRACE(via_processor ? "Process" : "Apply");
    std::string dir = TempDirFor("poison");
    {
      auto opened = DeductiveDatabase::OpenPersistent(dir);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
      DeclareSchema(db.get(), /*materialize=*/true);
      ASSERT_TRUE(db->Checkpoint().ok());
      ASSERT_TRUE(CommitInsert(db.get(), via_processor, "a").ok());

      auto session = db->BeginSession();
      ASSERT_TRUE(session.ok());

      FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                    InternalError("injected fsync failure"));
      Status poisoned = CommitInsert(db.get(), via_processor, "b");
      FaultInjector::Instance().Disarm();
      ASSERT_FALSE(poisoned.ok());
      EXPECT_NE(poisoned.ToString().find("not durable"), std::string::npos)
          << poisoned.ToString();

      // Every further commit and checkpoint reports the sticky failure…
      EXPECT_FALSE(CommitInsert(db.get(), via_processor, "c").ok());
      EXPECT_FALSE(db->Checkpoint().ok());
      // …but reads stay available: the old session answers its snapshot,
      // and new sessions can still be begun over the in-memory state, where
      // the view store moved with the base facts.
      Atom qa = (*session)->GroundAtom("Q", {"a"}).value();
      Atom qb = (*session)->GroundAtom("Q", {"b"}).value();
      Atom pb = (*session)->GroundAtom("P", {"b"}).value();
      EXPECT_TRUE((*session)->Holds(qa).value());
      EXPECT_FALSE((*session)->Holds(qb).value());
      EXPECT_FALSE((*session)->Holds(pb).value());
      auto fresh = db->BeginSession();
      ASSERT_TRUE(fresh.ok());
      EXPECT_TRUE((*fresh)->Holds(qb).value());  // applied in memory
      EXPECT_TRUE((*fresh)->Holds(pb).value());
      EXPECT_FALSE(db->Close().ok());  // Close reports the poison too
    }
    // Recovery re-converges with the log: the acknowledged commit survives,
    // the never-durable one is gone, from the base facts and the view store.
    auto reopened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const Database& recovered = (*reopened)->database();
    SymbolId q = recovered.FindPredicate("Q").value();
    SymbolId p = recovered.FindPredicate("P").value();
    SymbolId a = (*reopened)->symbols().Intern("a");
    SymbolId b = (*reopened)->symbols().Intern("b");
    EXPECT_TRUE(recovered.facts().Contains(q, Tuple{a}));
    EXPECT_TRUE(recovered.materialized_store().Contains(p, Tuple{a}));
    EXPECT_FALSE(recovered.facts().Contains(q, Tuple{b}));
    EXPECT_FALSE(recovered.materialized_store().Contains(p, Tuple{b}));
    reopened->reset();
    ASSERT_EQ(std::system(StrCat("rm -rf ", dir).c_str()), 0);
  }
}

TEST_F(SessionIsolationTest, SameVersionSessionsShareOneSnapshot) {
  obs::MetricsRegistry metrics;
  DeductiveDatabase db;
  db.set_observability({nullptr, &metrics});
  DeclareSchema(&db);
  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "a")).ok());

  auto s1 = db.BeginSession();
  auto s2 = db.BeginSession();
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ((*s1)->version(), (*s2)->version());
  // Two sessions at one version pay for one clone.
  EXPECT_EQ(metrics.counter("session.snapshots_created"), 1u);
  EXPECT_EQ(metrics.counter("session.begun"), 2u);
  EXPECT_EQ(db.active_sessions(), 2u);
  EXPECT_EQ(db.live_session_versions(), 1u);

  s1->reset();
  EXPECT_EQ(db.active_sessions(), 1u);
  s2->reset();
  EXPECT_EQ(db.active_sessions(), 0u);
}

TEST_F(SessionIsolationTest, EpochReclamationFreesRetiredVersions) {
  obs::MetricsRegistry metrics;
  DeductiveDatabase db;
  db.set_observability({nullptr, &metrics});
  DeclareSchema(&db);

  auto s1 = db.BeginSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "a")).ok());
  auto s2 = db.BeginSession();
  ASSERT_TRUE(s2.ok());
  ASSERT_NE((*s1)->version(), (*s2)->version());
  EXPECT_EQ(db.live_session_versions(), 2u);
  EXPECT_EQ(metrics.gauge("session.live_versions"), 2);

  // Dropping the old version's last session frees that version at once.
  s1->reset();
  EXPECT_EQ(db.live_session_versions(), 1u);

  // The current version stays live with no session on it — the facade's
  // snapshot cache holds it so the next BeginSession is free. A mutation
  // retires the cache, and with it the version.
  s2->reset();
  EXPECT_EQ(db.live_session_versions(), 1u);
  ASSERT_TRUE(db.Apply(InsertOf(&db, "Q", "b")).ok());
  EXPECT_EQ(db.live_session_versions(), 0u);

  // No destructor writes a metric: the gauge catches up at the next
  // BeginSession.
  EXPECT_EQ(metrics.gauge("session.live_versions"), 2);
  auto s3 = db.BeginSession();
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(metrics.gauge("session.live_versions"), 1);
  EXPECT_EQ(db.live_session_versions(), 1u);
}

TEST_F(SessionIsolationTest, CompileFailureStillAllowsSnapshotQueries) {
  // Recursive rules defeat the event compiler (hierarchical programs only,
  // DESIGN.md §4) — sessions must still answer plain queries and report the
  // pinned compile error from the methods that need event rules.
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("E", 2).ok());
  ASSERT_TRUE(db.DeclareDerived("T", 2).ok());
  Term x = db.Variable("x");
  Term y = db.Variable("y");
  Term z = db.Variable("z");
  ASSERT_TRUE(
      db.AddRule(Rule(db.MakeAtom("T", {x, y}).value(),
                      {Literal::Positive(db.MakeAtom("E", {x, y}).value())}))
          .ok());
  ASSERT_TRUE(
      db.AddRule(Rule(db.MakeAtom("T", {x, y}).value(),
                      {Literal::Positive(db.MakeAtom("E", {x, z}).value()),
                       Literal::Positive(db.MakeAtom("T", {z, y}).value())}))
          .ok());
  Transaction edge;
  ASSERT_TRUE(edge.AddInsert(db.GroundAtom("E", {"a", "b"}).value()).ok());
  ASSERT_TRUE(db.Apply(edge).ok());

  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  Atom tab = (*session)->GroundAtom("T", {"a", "b"}).value();
  EXPECT_TRUE((*session)->Holds(tab).value());

  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(db.GroundAtom("E", {"b", "c"}).value()).ok());
  auto induced = (*session)->InducedEvents(txn);
  ASSERT_FALSE(induced.ok());
  EXPECT_EQ(induced.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace deddb
