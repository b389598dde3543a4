// Unit tests of the interpretation layer beyond the paper examples: old
// state views, active domains, upward goal restriction and stats, downward
// edge cases (already-satisfied requests, open requests, caps, footnote-1
// semantics) and derived-event providers.

#include <gtest/gtest.h>

#include "core/deductive_database.h"
#include "interp/derived_events.h"
#include "interp/domain.h"
#include "interp/downward.h"
#include "interp/old_state.h"
#include "interp/upward.h"
#include "parser/parser.h"
#include "util/strings.h"

namespace deddb {
namespace {

std::unique_ptr<DeductiveDatabase> Load(const char* source,
                                        bool simplify = true) {
  auto db = std::make_unique<DeductiveDatabase>(
      EventCompilerOptions{.simplify = simplify, .obs = {}});
  auto loaded = LoadProgram(db.get(), source);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

const char* kSmall = R"(
  base Q/1. base R/1.
  view P/1.
  P(x) <- Q(x) & not R(x).
  Q(A). Q(B). R(B).
)";

TEST(OldStateViewTest, BaseAndDerivedQueries) {
  auto db = Load(kSmall);
  OldStateView view(&db->database());
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId q = db->database().FindPredicate("Q").value();
  SymbolId a = db->symbols().Intern("A");
  SymbolId b = db->symbols().Intern("B");

  EXPECT_TRUE(view.Contains(q, {a}));
  EXPECT_TRUE(view.Contains(p, {a}));   // derived: P(A) holds
  EXPECT_FALSE(view.Contains(p, {b}));  // R(B) blocks it

  auto solutions = view.Query(Atom(p, {Term::MakeVariable(0x7000000)}));
  ASSERT_TRUE(solutions.ok());
  EXPECT_EQ(*solutions, (std::vector<Tuple>{{a}}));

  size_t count = 0;
  view.ForEachMatch(p, {std::nullopt}, [&](const Tuple&) { ++count; });
  EXPECT_EQ(count, 1u);
}

TEST(OldStateViewTest, MaterializedViewsServedFromStore) {
  auto db = Load(R"(
    base Q/1.
    materialized view V/1.
    V(x) <- Q(x).
    Q(A).
  )");
  ASSERT_TRUE(db->InitializeMaterializedViews().ok());
  // Corrupt the store to prove the view reads from it, not from the rules.
  SymbolId v = db->database().FindPredicate("V").value();
  SymbolId z = db->symbols().Intern("Z");
  db->database().materialized_store().Add(v, {z});
  OldStateView view(&db->database());
  EXPECT_TRUE(view.Contains(v, {z}));
}

TEST(OldStateViewTest, EventVariantPredicatesAreEmpty) {
  auto db = Load(kSmall);
  ASSERT_TRUE(db->Compiled().ok());
  OldStateView view(&db->database());
  SymbolId q = db->database().FindPredicate("Q").value();
  SymbolId ins_q = db->database()
                       .predicates()
                       .FindVariant(q, PredicateVariant::kInsertEvent)
                       .value();
  SymbolId a = db->symbols().Intern("A");
  EXPECT_FALSE(view.Contains(ins_q, {a}));
  EXPECT_EQ(view.EstimateCount(ins_q), 0u);
}

TEST(ActiveDomainTest, CollectsColumnsRulesAndExtras) {
  auto db = Load(R"(
    base Person/1. base Likes/2.
    derived Fan/1.
    Fan(x) <- Likes(x, Jazz).
    Person(Ann). Likes(Ann, Rock).
  )");
  ActiveDomain domain(db->database(), /*use_global_fallback=*/false);
  SymbolId person = db->database().FindPredicate("Person").value();
  SymbolId likes = db->database().FindPredicate("Likes").value();
  SymbolId ann = db->symbols().Intern("Ann");
  SymbolId rock = db->symbols().Intern("Rock");
  SymbolId jazz = db->symbols().Intern("Jazz");

  EXPECT_EQ(domain.ColumnCandidates(person, 0), (std::vector<SymbolId>{ann}));
  EXPECT_EQ(domain.ColumnCandidates(likes, 1), (std::vector<SymbolId>{rock}));
  // Rule constants land in the global set.
  auto global = domain.GlobalCandidates();
  EXPECT_NE(std::find(global.begin(), global.end(), jazz), global.end());

  SymbolId extra = db->symbols().Intern("Extra");
  domain.AddExtra(extra);
  auto candidates = domain.ColumnCandidates(person, 0);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), extra),
            candidates.end());
}

TEST(ActiveDomainTest, GlobalFallbackForUnseenColumns) {
  auto db = Load(R"(
    base Seen/1. base Never/1.
    Seen(A).
  )");
  SymbolId never = db->database().FindPredicate("Never").value();
  ActiveDomain with_fallback(db->database(), true);
  EXPECT_FALSE(with_fallback.ColumnCandidates(never, 0).empty());
  ActiveDomain without(db->database(), false);
  EXPECT_TRUE(without.ColumnCandidates(never, 0).empty());
}

TEST(UpwardTest, GoalRestrictionSkipsUnrelatedPredicates) {
  auto db = Load(R"(
    base Q/1. base Z/1.
    view P/1.
    view Unrelated/1.
    P(x) <- Q(x).
    Unrelated(x) <- Z(x).
    Q(A). Z(A).
  )");
  auto compiled = db->Compiled();
  ASSERT_TRUE(compiled.ok());
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId unrelated = db->database().FindPredicate("Unrelated").value();
  auto txn = ParseTransaction(db.get(), "del Q(A), del Z(A)");
  ASSERT_TRUE(txn.ok());
  UpwardInterpreter upward(&db->database(), *compiled, UpwardOptions{});
  auto events = upward.InducedEventsFor(*txn, {p});
  ASSERT_TRUE(events.ok());
  SymbolId a = db->symbols().Intern("A");
  EXPECT_TRUE(events->ContainsDelete(p, {a}));
  EXPECT_FALSE(events->ContainsDelete(unrelated, {a}))
      << "unrelated predicate should not have been computed";
}

TEST(UpwardTest, InvalidEventsInduceNothing) {
  auto db = Load(kSmall);
  // ins Q(A) is not a valid event (Q(A) already holds): per eqs. 1-2 it is
  // simply not an event, so nothing is induced.
  SymbolId q = db->database().FindPredicate("Q").value();
  SymbolId a = db->symbols().Intern("A");
  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(q, {a}).ok());
  auto events = db->InducedEvents(txn);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(UpwardTest, CascadedEventsThroughTwoLevels) {
  auto db = Load(R"(
    base B/1.
    view Mid/1.
    view Top/1.
    Mid(x) <- B(x).
    Top(x) <- Mid(x).
    B(A).
  )");
  auto txn = ParseTransaction(db.get(), "del B(A)");
  ASSERT_TRUE(txn.ok());
  auto events = db->InducedEvents(*txn);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->ToString(db->symbols()), "{del Mid(A), del Top(A)}");
}

// A view over a non-recursive chain deeper than the query engine's depth
// bound (512): the old-state descent through the chain fails, and the event
// rules must report that failure instead of treating it as "no matches"
// (which silently dropped del V(Alice)).
TEST(UpwardTest, DeepOldStateErrorIsNotSwallowed) {
  constexpr int kLevels = 520;
  std::string source = "base B/1. base C/1. view V/1.\n";
  for (int i = 0; i <= kLevels; ++i) source += StrCat("derived P", i, "/1.\n");
  source += "V(x) <- P0(x) & C(x).\n";
  for (int i = 0; i < kLevels; ++i) {
    source += StrCat("P", i, "(x) <- P", i + 1, "(x).\n");
  }
  source += StrCat("P", kLevels, "(x) <- B(x).\nB(Alice). C(Alice).\n");
  auto db = Load(source.c_str());
  auto compiled = db->Compiled();
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto txn = ParseTransaction(db.get(), "del C(Alice)");
  ASSERT_TRUE(txn.ok()) << txn.status();

  UpwardOptions recompute_options;
  recompute_options.strategy = UpwardStrategy::kRecompute;
  UpwardInterpreter recompute(&db->database(), *compiled, recompute_options);
  auto expected = recompute.InducedEvents(*txn);
  ASSERT_TRUE(expected.ok()) << expected.status();
  SymbolId v = db->database().FindPredicate("V").value();
  ASSERT_TRUE(expected->ContainsDelete(v, {db->symbols().Intern("Alice")}));

  UpwardInterpreter event_rules(&db->database(), *compiled, UpwardOptions{});
  auto events = event_rules.InducedEvents(*txn);
  if (events.ok()) {
    EXPECT_EQ(events->ToString(db->symbols()),
              expected->ToString(db->symbols()));
  } else {
    EXPECT_EQ(events.status().code(), StatusCode::kResourceExhausted)
        << events.status();
  }
}

TEST(UpwardTest, EmptyTransactionInducesNothing) {
  auto db = Load(kSmall);
  Transaction txn;
  auto events = db->InducedEvents(txn);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(DerivedEventsProviderTest, ServesComputedEvents) {
  auto db = Load(kSmall);
  ASSERT_TRUE(db->Compiled().ok());
  SymbolId p = db->database().FindPredicate("P").value();
  SymbolId b = db->symbols().Intern("B");
  DerivedEvents events;
  events.inserts.Add(p, {b});
  DerivedEventsProvider provider(&events, &db->database().predicates());
  SymbolId ins_p = db->database()
                       .predicates()
                       .FindVariant(p, PredicateVariant::kInsertEvent)
                       .value();
  EXPECT_TRUE(provider.Contains(ins_p, {b}));
  EXPECT_EQ(provider.EstimateCount(ins_p), 1u);
  // kOld symbols are not served.
  EXPECT_FALSE(provider.Contains(p, {b}));
}

class DownwardEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override { db_ = Load(kSmall); }

  Result<Dnf> Down(const RequestedEvent& event) {
    auto compiled = db_->Compiled();
    EXPECT_TRUE(compiled.ok());
    auto domain = db_->Domain();
    EXPECT_TRUE(domain.ok());
    DownwardInterpreter downward(&db_->database(), *compiled, *domain);
    return downward.InterpretEvent(event);
  }

  RequestedEvent Event(bool is_insert, const char* pred,
                       std::vector<Term> args, bool positive = true) {
    RequestedEvent event;
    event.positive = positive;
    event.is_insert = is_insert;
    event.predicate = db_->database().FindPredicate(pred).value();
    event.args = std::move(args);
    return event;
  }

  std::unique_ptr<DeductiveDatabase> db_;
};

TEST_F(DownwardEdgeCases, InsertAlreadySatisfiedIsFalse) {
  // P(A) already holds: ιP(A) is not satisfiable (footnote 1).
  auto dnf = Down(Event(true, "P", {db_->Constant("A")}));
  ASSERT_TRUE(dnf.ok());
  EXPECT_TRUE(dnf->IsFalse());
}

TEST_F(DownwardEdgeCases, DeleteOfAbsentFactIsFalse) {
  auto dnf = Down(Event(false, "P", {db_->Constant("B")}));
  ASSERT_TRUE(dnf.ok());
  EXPECT_TRUE(dnf->IsFalse());
}

TEST_F(DownwardEdgeCases, NegativeOfImpossibleEventIsTrue) {
  // ¬ιP(A): ιP(A) cannot be induced (P(A) holds), so nothing is required.
  auto dnf = Down(Event(true, "P", {db_->Constant("A")}, /*positive=*/false));
  ASSERT_TRUE(dnf.ok());
  EXPECT_TRUE(dnf->IsTrue());
}

TEST_F(DownwardEdgeCases, BaseEventRequestPassesThrough) {
  auto dnf = Down(Event(false, "R", {db_->Constant("B")}));
  ASSERT_TRUE(dnf.ok());
  EXPECT_EQ(dnf->ToString(db_->symbols()), "(del R(B))");
  // Invalid base event: ins of an existing fact.
  auto invalid = Down(Event(true, "Q", {db_->Constant("A")}));
  ASSERT_TRUE(invalid.ok());
  EXPECT_TRUE(invalid->IsFalse());
}

TEST_F(DownwardEdgeCases, OpenRequestEnumeratesAlternatives) {
  // ιP(x): x=B via del R(B); x=A impossible (already holds); fresh
  // constants possible via domain for Q-insertions.
  auto dnf = Down(Event(true, "P", {db_->Variable("x")}));
  ASSERT_TRUE(dnf.ok()) << dnf.status();
  EXPECT_FALSE(dnf->IsFalse());
  // The del R(B) route must be among the alternatives.
  bool found = false;
  for (const Conjunct& c : dnf->disjuncts()) {
    for (const EventLiteral& lit : c.literals()) {
      found |= lit.positive && !lit.event.is_insert &&
               db_->symbols().NameOf(lit.event.predicate) == "R";
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DownwardEdgeCases, OpenDeleteRangesOverExistingInstances) {
  auto dnf = Down(Event(false, "P", {db_->Variable("x")}));
  ASSERT_TRUE(dnf.ok());
  // Only P(A) exists; deleting it requires δQ(A) or ιR(A).
  EXPECT_EQ(dnf->ToString(db_->symbols()), "(del Q(A)) | (ins R(A))");
}

TEST_F(DownwardEdgeCases, StatsAreTracked) {
  auto compiled = db_->Compiled();
  auto domain = db_->Domain();
  DownwardInterpreter downward(&db_->database(), *compiled, *domain);
  ASSERT_TRUE(
      downward.InterpretEvent(Event(false, "P", {db_->Constant("A")})).ok());
  EXPECT_GT(downward.stats().branches_explored, 0u);
  EXPECT_GT(downward.stats().old_state_queries, 0u);
  EXPECT_GT(downward.stats().negations, 0u);
}

TEST_F(DownwardEdgeCases, InstantiationCapIsEnforced) {
  auto compiled = db_->Compiled();
  // Give R's column a candidate that is not already an R fact, so a valid
  // instantiation exists to trip the zero budget.
  ASSERT_TRUE(db_->AddDomainConstant("Fresh").ok());
  auto domain = db_->Domain();
  DownwardOptions options;
  options.max_instantiations = 0;
  DownwardInterpreter downward(&db_->database(), *compiled, *domain, options);
  // Open base insertion over R with a zero budget: the first valid
  // candidate instantiation (ins R(A)) already exceeds it.
  RequestedEvent event = Event(true, "R", {db_->Variable("x")});
  auto result = downward.InterpretEvent(event);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace deddb
