// Shared-versus-fresh differential for the event compilation (DESIGN.md §9):
// a session answers with the compilation it shares with the head (or, when
// the head had none, one compiled on its snapshot), and that must be
// indistinguishable from compiling afresh on the pinned database. Random
// hierarchical programs take random fact-commit streams with a rule update
// in the middle, so sessions are pinned under a shared compilation, under a
// clone-compiled one, and across the rule change; every pinned session is
// then compared against a fresh EventCompiler on a clone of its database:
// induced events, upward firing counts and view-update translations.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "core/session.h"
#include "problems/view_updating.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/random_programs.h"

namespace deddb {
namespace {

using workload::MakeRandomDatabase;
using workload::RandomProgramConfig;
using workload::RandomTransaction;

// One pinned session plus the probes drawn against its state.
struct Pinned {
  std::unique_ptr<Session> session;
  Transaction probe;
  UpdateRequest request;
};

std::string Render(const Result<problems::DownwardResult>& result,
                   const SymbolTable& symbols) {
  if (!result.ok()) return StrCat("error: ", result.status().ToString());
  std::string out = StrCat("approximate=", result->approximate ? 1 : 0,
                           " dnf=", result->dnf.ToString(symbols));
  for (const problems::Translation& t : result->translations) {
    out += StrCat(" | ", t.ToString(symbols));
  }
  return out;
}

// The insertion of a random derived fact over the program's constants.
UpdateRequest RandomViewInsertion(DeductiveDatabase& facade, Rng* rng) {
  const Database& db = facade.database();
  std::vector<SymbolId> derived;
  for (SymbolId pred : db.predicates().old_predicates()) {
    const PredicateInfo* info = db.predicates().Find(pred);
    // The program's own D<i>, not the compiler's inew$/dcand$ helpers.
    if (info->kind == PredicateKind::kDerived &&
        db.symbols().NameOf(pred).front() == 'D') {
      derived.push_back(pred);
    }
  }
  RequestedEvent event;
  event.is_insert = true;
  event.predicate = derived[rng->NextBelow(derived.size())];
  const size_t arity = db.predicates().Find(event.predicate)->arity;
  for (size_t i = 0; i < arity; ++i) {
    event.args.push_back(facade.Constant(StrCat("C", rng->NextBelow(6))));
  }
  UpdateRequest request;
  request.events.push_back(std::move(event));
  return request;
}

class SharedCompilationTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SharedCompilationTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(SharedCompilationTest, SessionsAnswerAsAFreshCompilationWould) {
  const uint64_t seed = GetParam();
  RandomProgramConfig config;
  config.seed = seed;
  config.simplify = seed % 2 == 0;
  config.derived_predicates = 5;
  config.facts_per_base = 20;
  config.constants = 8;
  auto made = MakeRandomDatabase(config);
  ASSERT_TRUE(made.ok()) << made.status();
  DeductiveDatabase& db = **made;
  Rng rng(seed * 7919);

  std::vector<Pinned> pinned;
  auto pin = [&](uint64_t step) {
    auto session = db.BeginSession();
    ASSERT_TRUE(session.ok()) << session.status();
    auto probe = RandomTransaction(&db, config, 3, seed * 1000 + step);
    ASSERT_TRUE(probe.ok()) << probe.status();
    pinned.push_back({std::move(*session), std::move(*probe),
                      RandomViewInsertion(db, &rng)});
  };

  ASSERT_TRUE(db.Compiled().ok());
  for (uint64_t step = 0; step < 8; ++step) {
    if (step == 4) {
      // Retire the head's compilation: the next pin compiles on its clone,
      // the one after shares the head's recompilation.
      problems::RuleUpdate update;
      update.remove.push_back(db.database().program().rules().front());
      ASSERT_TRUE(db.ApplyRuleUpdate(update).ok());
      pin(step);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_TRUE(db.Compiled().ok());
    }
    auto txn = RandomTransaction(&db, config, 4, seed * 100 + step);
    ASSERT_TRUE(txn.ok()) << txn.status();
    ASSERT_TRUE(db.Apply(*txn).ok());
    pin(step);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(*pinned.back().session->Compiled(), *db.Compiled())
        << "step " << step;
  }

  const SymbolTable& symbols = db.symbols();
  for (size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE(StrCat("session ", i));
    const Session& session = *pinned[i].session;
    Result<const CompiledEvents*> shared = session.Compiled();
    ASSERT_TRUE(shared.ok()) << shared.status();
    std::unique_ptr<Database> clone = session.database().CloneSnapshot();
    Result<CompiledEvents> fresh =
        EventCompiler(clone.get(), db.compiler_options()).Compile();
    ASSERT_TRUE(fresh.ok()) << fresh.status();

    // Upward: the same induced events, from the same number of firings.
    Pinned& p = pinned[i];
    UpwardOptions upward = p.session->upward_options();
    Result<DerivedEvents> via_session = session.InducedEvents(p.probe);
    UpwardInterpreter shared_upward(&session.database(), *shared, upward);
    Result<DerivedEvents> via_shared = shared_upward.InducedEvents(p.probe);
    UpwardInterpreter fresh_upward(clone.get(), &*fresh, upward);
    Result<DerivedEvents> via_fresh = fresh_upward.InducedEvents(p.probe);
    ASSERT_TRUE(via_session.ok() && via_shared.ok() && via_fresh.ok());
    EXPECT_EQ(via_session->ToString(symbols), via_fresh->ToString(symbols));
    EXPECT_EQ(via_shared->ToString(symbols), via_fresh->ToString(symbols));
    EXPECT_EQ(shared_upward.stats().bodies_evaluated,
              fresh_upward.stats().bodies_evaluated);
    EXPECT_EQ(shared_upward.stats().candidates_checked,
              fresh_upward.stats().candidates_checked);
    EXPECT_EQ(shared_upward.stats().events_found,
              fresh_upward.stats().events_found);

    // Downward: the same translations of a view insertion (under a small
    // DNF cap, so that no seed's blow-up dominates the suite's time).
    p.session->downward_options().max_disjuncts = 64;
    ActiveDomain domain(*clone);
    EXPECT_EQ(Render(session.TranslateViewUpdate(p.request), symbols),
              Render(problems::TranslateViewUpdate(
                         *clone, *fresh, domain, p.request,
                         p.session->downward_options()),
                     symbols));
  }
}

}  // namespace
}  // namespace deddb
