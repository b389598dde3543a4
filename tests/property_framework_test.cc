// Property-based tests of the framework's core invariants, swept over
// randomized workloads:
//
//  1. The incremental upward interpretation (event rules) and the
//     full-recompute baseline produce identical induced events — eqs. 1-2
//     applied literally vs. §4.1's procedure.
//  2. Every translation returned by the downward interpretation, applied as
//     a transaction, actually induces the requested events (the two
//     interpretations are two directions of the same equivalence).
//  3. Simplified and unsimplified event compilation agree.
//  4. Incremental materialized-view maintenance leaves the stored extension
//     identical to a from-scratch recomputation.
//  5. Semi-naive and naive bottom-up evaluation agree (including recursive
//     programs).
//  6. Every goal-directed query strategy agrees with bottom-up evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/deductive_database.h"
#include "datalog/unify.h"
#include "eval/bottom_up.h"
#include "eval/query_engine.h"
#include "problems/view_maintenance.h"
#include "util/strings.h"
#include "workload/employment.h"
#include "workload/random_programs.h"

namespace deddb {
namespace {

using workload::EmploymentConfig;
using workload::MakeEmploymentDatabase;
using workload::MakeRandomDatabase;
using workload::RandomEmploymentTransaction;
using workload::RandomProgramConfig;
using workload::RandomTransaction;

// ---------------------------------------------------------------------------
// 1 & 3: upward strategies and simplify modes agree (employment workload).

struct UpwardSweepParam {
  size_t people;
  size_t txn_size;
  uint64_t seed;
};

class UpwardAgreementTest
    : public ::testing::TestWithParam<UpwardSweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, UpwardAgreementTest,
    ::testing::Values(UpwardSweepParam{20, 3, 1}, UpwardSweepParam{20, 8, 2},
                      UpwardSweepParam{100, 5, 3},
                      UpwardSweepParam{100, 20, 4},
                      UpwardSweepParam{300, 10, 5},
                      UpwardSweepParam{300, 40, 6}),
    [](const ::testing::TestParamInfo<UpwardSweepParam>& info) {
      return "people" + std::to_string(info.param.people) + "_txn" +
             std::to_string(info.param.txn_size) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST_P(UpwardAgreementTest, EventRulesMatchRecomputeAcrossSimplifyModes) {
  const UpwardSweepParam& param = GetParam();
  std::vector<std::string> renderings;
  for (bool simplify : {false, true}) {
    EmploymentConfig config;
    config.people = param.people;
    config.seed = param.seed;
    config.consistent = false;  // exercise Ic events too
    config.simplify = simplify;
    auto db = MakeEmploymentDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    auto txn = RandomEmploymentTransaction(db->get(), param.people,
                                           param.txn_size, param.seed * 97);
    ASSERT_TRUE(txn.ok()) << txn.status();

    auto compiled = (*db)->Compiled();
    ASSERT_TRUE(compiled.ok()) << compiled.status();

    for (UpwardStrategy strategy :
         {UpwardStrategy::kEventRules, UpwardStrategy::kRecompute}) {
      UpwardOptions options;
      options.strategy = strategy;
      UpwardInterpreter upward(&(*db)->database(), *compiled, options);
      auto events = upward.InducedEvents(*txn);
      ASSERT_TRUE(events.ok()) << events.status();
      renderings.push_back(events->ToString((*db)->symbols()));
    }
  }
  // All four runs (2 simplify modes × 2 strategies) must agree.
  for (size_t i = 1; i < renderings.size(); ++i) {
    EXPECT_EQ(renderings[0], renderings[i]) << "variant " << i << " differs";
  }
}

// Same agreement on random hierarchical programs (more rule shapes).
class RandomProgramUpwardTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramUpwardTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(RandomProgramUpwardTest, EventRulesMatchRecompute) {
  std::vector<std::string> renderings;
  for (bool simplify : {false, true}) {
    RandomProgramConfig config;
    config.seed = GetParam();
    config.simplify = simplify;
    config.facts_per_base = 40;
    auto db = MakeRandomDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    auto txn = RandomTransaction(db->get(), config, 6, GetParam() * 31);
    ASSERT_TRUE(txn.ok()) << txn.status();
    auto compiled = (*db)->Compiled();
    ASSERT_TRUE(compiled.ok()) << compiled.status();

    for (UpwardStrategy strategy :
         {UpwardStrategy::kEventRules, UpwardStrategy::kRecompute}) {
      UpwardOptions options;
      options.strategy = strategy;
      UpwardInterpreter upward(&(*db)->database(), *compiled, options);
      auto events = upward.InducedEvents(*txn);
      ASSERT_TRUE(events.ok()) << events.status();
      renderings.push_back(events->ToString((*db)->symbols()));
    }
  }
  for (size_t i = 1; i < renderings.size(); ++i) {
    EXPECT_EQ(renderings[0], renderings[i]) << "variant " << i << " differs";
  }
}

// ---------------------------------------------------------------------------
// 2: downward translations, applied, induce the requested events.

class DownwardRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DownwardRoundTripTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST_P(DownwardRoundTripTest, TranslationsSatisfyRequest) {
  EmploymentConfig config;
  config.people = 30;
  config.seed = GetParam();
  config.consistent = true;
  auto db = MakeEmploymentDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();

  SymbolId unemp = (*db)->database().FindPredicate("Unemp").value();
  OldStateView old_state(&(*db)->database());

  // Request deletion of each currently-unemployed person (up to 4), and
  // insertion for up to 4 people who are not unemployed.
  std::vector<std::pair<bool, Tuple>> requests;  // (is_insert, tuple)
  {
    auto tuples = old_state.Query(
        Atom(unemp, {Term::MakeVariable(0x70000000)}));
    ASSERT_TRUE(tuples.ok()) << tuples.status();
    for (size_t i = 0; i < tuples->size() && i < 4; ++i) {
      requests.emplace_back(false, (*tuples)[i]);
    }
    for (size_t i = 0; i < config.people && requests.size() < 8; ++i) {
      Tuple t{(*db)->symbols().Intern(workload::PersonName(i))};
      if (!old_state.Contains(unemp, t)) requests.emplace_back(true, t);
    }
  }

  for (const auto& [is_insert, tuple] : requests) {
    RequestedEvent event;
    event.is_insert = is_insert;
    event.predicate = unemp;
    for (SymbolId c : tuple) event.args.push_back(Term::MakeConstant(c));
    UpdateRequest request;
    request.events.push_back(event);

    auto result = (*db)->TranslateViewUpdate(request);
    ASSERT_TRUE(result.ok()) << result.status();
    for (const auto& translation : result->translations) {
      auto events = (*db)->InducedEvents(translation.transaction);
      ASSERT_TRUE(events.ok()) << events.status();
      bool satisfied = is_insert ? events->ContainsInsert(unemp, tuple)
                                 : events->ContainsDelete(unemp, tuple);
      EXPECT_TRUE(satisfied)
          << "translation "
          << translation.ToString((*db)->symbols()) << " does not satisfy "
          << (is_insert ? "ins " : "del ")
          << AtomFromTuple(unemp, tuple).ToString((*db)->symbols());
    }
  }
}

// ---------------------------------------------------------------------------
// 4: incremental view maintenance == recompute.

class ViewMaintenanceAgreementTest
    : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ViewMaintenanceAgreementTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST_P(ViewMaintenanceAgreementTest, IncrementalMatchesRecompute) {
  EmploymentConfig config;
  config.people = 60;
  config.seed = GetParam();
  config.materialize_unemp = true;
  auto db = MakeEmploymentDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->InitializeMaterializedViews().ok());

  // Run 5 consecutive maintained transactions.
  for (uint64_t step = 0; step < 5; ++step) {
    auto txn = RandomEmploymentTransaction(db->get(), config.people, 10,
                                           GetParam() * 1000 + step);
    ASSERT_TRUE(txn.ok()) << txn.status();
    auto maintained = (*db)->MaintainMaterializedViews(*txn, /*apply=*/true);
    ASSERT_TRUE(maintained.ok()) << maintained.status();
    ASSERT_TRUE((*db)->Apply(*txn).ok());

    // The stored extension must equal a from-scratch recomputation.
    FactStore fresh = (*db)->database().materialized_store();
    auto status = problems::InitializeMaterializedViews(&(*db)->database());
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(fresh.ToString((*db)->symbols()),
              (*db)->database().materialized_store().ToString(
                  (*db)->symbols()))
        << "divergence after step " << step;
  }
}

// ---------------------------------------------------------------------------
// 5: semi-naive == naive bottom-up evaluation.

class EvaluatorAgreementTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorAgreementTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(EvaluatorAgreementTest, SemiNaiveMatchesNaive) {
  RandomProgramConfig config;
  config.seed = GetParam();
  config.allow_recursion = true;  // exercise fixpoints
  config.derived_predicates = 8;
  auto db = MakeRandomDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();

  FactStoreProvider edb(&(*db)->database().facts());
  std::vector<std::string> outputs;
  for (bool semi_naive : {true, false}) {
    EvaluationOptions options;
    options.semi_naive = semi_naive;
    BottomUpEvaluator evaluator((*db)->database().program(),
                                (*db)->symbols(), edb, options);
    auto idb = evaluator.Evaluate();
    ASSERT_TRUE(idb.ok()) << idb.status();
    outputs.push_back(idb->ToString((*db)->symbols()));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// ---------------------------------------------------------------------------
// 6: top-down, materialized and lazy query answering == bottom-up.

class QueryEngineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEngineAgreementTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(QueryEngineAgreementTest, EveryStrategyMatchesBottomUp) {
  RandomProgramConfig config;
  config.seed = GetParam();
  // Small extensions: a lazy stream repeats each solution once per
  // derivation, so its length grows with the product of join fan-outs.
  config.facts_per_base = 12;
  config.constants = 12;
  auto db = MakeRandomDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  const Program& program = (*db)->database().program();
  const SymbolTable& symbols = (*db)->symbols();
  FactStoreProvider edb(&(*db)->database().facts());
  BottomUpEvaluator evaluator(program, symbols, edb);
  auto idb = evaluator.Evaluate();
  ASSERT_TRUE(idb.ok()) << idb.status();

  std::map<SymbolId, std::vector<Tuple>> held;
  for (const Rule& rule : program.rules()) held[rule.head().predicate()];
  idb->ForEach([&](SymbolId pred, const Tuple& t) { held[pred].push_back(t); });
  std::vector<SymbolId> constants;
  for (size_t i = 0; i < config.constants; ++i) {
    SymbolId c = symbols.Find(StrCat("C", i));
    if (c != SymbolTable::kNoSymbol) constants.push_back(c);
  }
  ASSERT_FALSE(constants.empty());
  const Term q0 = (*db)->Variable("q0");
  const Term q1 = (*db)->Variable("q1");

  // The strict strategies share one engine and the lazy ones another, so
  // lazy answers never come from the strict solver's memo.
  QueryEngine strict(program, symbols, edb);
  QueryEngine lazy(program, symbols, edb);
  for (auto& [pred, tuples] : held) {
    std::sort(tuples.begin(), tuples.end());
    const size_t arity = (*db)->database().predicates().Find(pred)->arity;

    std::vector<Atom> goals;
    const std::vector<Term> vars = {q0, q1};
    const std::vector<Term> open(vars.begin(), vars.begin() + arity);
    goals.emplace_back(pred, open);
    std::vector<Term> first_bound = open;
    first_bound[0] = Term::MakeConstant(
        tuples.empty() ? constants[0] : tuples[tuples.size() / 2][0]);
    goals.emplace_back(pred, first_bound);
    first_bound[0] = Term::MakeConstant(constants[GetParam() % constants.size()]);
    goals.emplace_back(pred, first_bound);
    if (arity == 2) goals.emplace_back(pred, std::vector<Term>{q0, q0});
    auto ground = [&](const Tuple& t) {
      std::vector<Term> args;
      for (SymbolId c : t) args.push_back(Term::MakeConstant(c));
      return Atom(pred, args);
    };
    for (size_t i = 0; i < tuples.size() && i < 3; ++i) {
      goals.push_back(ground(tuples[i * tuples.size() / 3]));
    }
    for (size_t i = 0, added = 0; i < constants.size() && added < 3; ++i) {
      Tuple t(arity, constants[i]);
      t.back() = constants[(i * 7 + 3) % constants.size()];
      if (std::binary_search(tuples.begin(), tuples.end(), t)) continue;
      goals.push_back(ground(t));
      ++added;
    }

    for (const Atom& goal : goals) {
      SCOPED_TRACE(goal.ToString(symbols));
      std::vector<Tuple> expected;
      for (const Tuple& t : tuples) {
        Substitution subst;
        if (MatchAtomAgainstTuple(goal, t, &subst)) expected.push_back(t);
      }

      auto top_down = strict.SolveTopDown(goal);
      ASSERT_TRUE(top_down.ok()) << top_down.status();
      std::sort(top_down->begin(), top_down->end());
      EXPECT_EQ(*top_down, expected);
      auto materialized = strict.SolveMaterialized(goal);
      ASSERT_TRUE(materialized.ok()) << materialized.status();
      EXPECT_EQ(*materialized, expected);

      // The deduplicated stream: every solution is expected, and the stream
      // is stopped as soon as it has produced all of them.
      std::set<Tuple> streamed;
      bool unexpected = false;
      auto stopped = lazy.SolveLazyPattern(goal, [&](const Tuple& t) {
        unexpected |= !std::binary_search(expected.begin(), expected.end(), t);
        streamed.insert(t);
        return streamed.size() < expected.size();
      });
      ASSERT_TRUE(stopped.ok()) << stopped.status();
      EXPECT_FALSE(unexpected);
      EXPECT_EQ(*stopped, !expected.empty());
      EXPECT_EQ(std::vector<Tuple>(streamed.begin(), streamed.end()), expected);
      auto exists = lazy.Exists(goal);
      ASSERT_TRUE(exists.ok()) << exists.status();
      EXPECT_EQ(*exists, !expected.empty());
      if (goal.IsGround()) {
        auto holds = lazy.Holds(goal);
        ASSERT_TRUE(holds.ok()) << holds.status();
        EXPECT_EQ(*holds, !expected.empty());
      }
    }
  }
}

}  // namespace
}  // namespace deddb
