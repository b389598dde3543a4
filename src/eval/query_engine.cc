#include "eval/query_engine.h"

#include <algorithm>

#include "datalog/unify.h"
#include "eval/stratification.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

namespace {

// True if a variable occurs twice in `atom`: its solutions must then agree
// on those positions, which a Goal (one value or kOpen per argument) cannot
// express, so public entry points filter for it.
bool RepeatsVariable(const Atom& atom) {
  std::vector<VarId> vars;
  for (const Term& t : atom.args()) {
    if (!t.is_variable()) continue;
    if (std::find(vars.begin(), vars.end(), t.variable()) != vars.end()) {
      return true;
    }
    vars.push_back(t.variable());
  }
  return false;
}

bool Matches(const Atom& atom, const Tuple& t) {
  Substitution subst;
  return MatchAtomAgainstTuple(atom, t, &subst);
}

}  // namespace

// Serves the derived literals of a rule body being solved for the engine,
// one recursion level down. ForEachMatch (block mode) answers through the
// strict memoized solver and ForEachMatchUntil (streaming mode) through the
// lazy one, the same split OldStateView makes; Contains, a ground negative
// probe, follows `lazy`. The provider interface returns no status, so the
// first error is kept in status() (and later calls answer nothing at once)
// for the caller to return after the join.
class QueryEngine::GoalProvider : public FactProvider {
 public:
  GoalProvider(QueryEngine* engine, size_t depth, bool lazy)
      : engine_(engine), depth_(depth), lazy_(lazy) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override {
    if (!status_.ok()) return;
    Result<const std::vector<Tuple>*> solutions =
        engine_->SolveMemo(GoalOf(predicate, pattern), depth_);
    if (!Keep(solutions.status())) return;
    for (const Tuple& t : **solutions) fn(t);
  }

  bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const override {
    if (!status_.ok()) return false;
    Result<bool> stopped =
        engine_->SolveLazy(GoalOf(predicate, pattern), depth_, fn);
    return Keep(stopped.status()) && *stopped;
  }

  bool Contains(SymbolId predicate, const Tuple& tuple) const override {
    if (!status_.ok()) return false;
    Goal goal{predicate, tuple};
    if (lazy_) {
      Result<bool> found = engine_->SolveLazy(
          goal, depth_, [](const Tuple&) { return false; });
      return Keep(found.status()) && *found;
    }
    Result<const std::vector<Tuple>*> solutions =
        engine_->SolveMemo(goal, depth_);
    return Keep(solutions.status()) && !(*solutions)->empty();
  }

  const Status& status() const { return status_; }

 private:
  bool Keep(const Status& status) const {
    if (!status.ok()) status_ = status;
    return status.ok();
  }

  QueryEngine* engine_;
  size_t depth_;
  bool lazy_;
  mutable Status status_;
};

QueryEngine::QueryEngine(const Program& program, const SymbolTable& symbols,
                         const FactProvider& edb, EvaluationOptions options)
    : program_(program),
      symbols_(symbols),
      edb_(edb),
      options_(options),
      graph_(program) {
  // Precompute which predicates reach a recursive SCC.
  std::unordered_set<SymbolId> cyclic;
  for (const auto& scc : graph_.SccsBottomUp()) {
    bool recursive = scc.size() > 1;
    if (!recursive) {
      for (const auto& edge : graph_.EdgesOf(scc[0])) {
        recursive |= edge.target == scc[0];
      }
    }
    if (recursive) cyclic.insert(scc.begin(), scc.end());
  }
  for (SymbolId pred : graph_.nodes()) {
    for (SymbolId reached : graph_.ReachableFrom({pred})) {
      if (cyclic.count(reached) > 0) {
        recursive_reach_.insert(pred);
        break;
      }
    }
  }
}

void QueryEngine::InvalidateCache() {
  cache_.Clear();
  materialized_.clear();
  memo_.clear();
  in_progress_.clear();
  exists_memo_.clear();
}

bool QueryEngine::ReachesRecursion(SymbolId pred) const {
  return recursive_reach_.count(pred) > 0;
}

QueryEngine::Goal QueryEngine::GoalOf(const Atom& atom) {
  Goal goal{atom.predicate(), Tuple(atom.arity(), kOpen)};
  for (size_t i = 0; i < atom.arity(); ++i) {
    if (atom.args()[i].is_constant()) goal.args[i] = atom.args()[i].constant();
  }
  return goal;
}

QueryEngine::Goal QueryEngine::GoalOf(SymbolId predicate,
                                      const TuplePattern& pattern) {
  Goal goal{predicate, Tuple(pattern.size(), kOpen)};
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i].has_value()) goal.args[i] = *pattern[i];
  }
  return goal;
}

Result<JoinPlan> QueryEngine::PlanFor(
    const Rule& rule, const Goal& goal,
    const std::function<const FactProvider&(size_t)>& provider_for) {
  if (goal.args.size() != rule.head().arity()) {
    return InvalidArgumentError("goal arity does not match the rule head");
  }
  JoinPlan::Options options;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    const Term& t = rule.head().args()[i];
    if (goal.args[i] != kOpen && t.is_variable()) {
      options.initially_bound.push_back(t.variable());
    }
  }
  return JoinPlan::Build(rule, provider_for, options);
}

Result<std::vector<Tuple>> QueryEngine::SolvePattern(const Atom& goal) {
  bool defined = program_.Defines(goal.predicate());
  if (!defined) {
    TuplePattern pattern(goal.arity());
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
    }
    std::vector<Tuple> out;
    edb_.ForEachMatch(goal.predicate(), pattern, [&](const Tuple& t) {
      if (Matches(goal, t)) out.push_back(t);
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  if (!ReachesRecursion(goal.predicate())) {
    return SolveTopDown(goal);
  }
  return SolveMaterialized(goal);
}

Result<bool> QueryEngine::Holds(const Atom& goal) {
  if (!ReachesRecursion(goal.predicate())) return Exists(goal);
  DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, SolvePattern(goal));
  return !tuples.empty();
}

Result<bool> QueryEngine::Exists(const Atom& goal) {
  return SolveLazyPattern(goal, [](const Tuple&) { return false; /* stop */ });
}

Result<bool> QueryEngine::SolveLazyPattern(
    const Atom& goal, const std::function<bool(const Tuple&)>& fn) {
  if (ReachesRecursion(goal.predicate())) {
    DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, SolvePattern(goal));
    for (const Tuple& t : tuples) {
      if (!fn(t)) return true;
    }
    return false;
  }
  if (!RepeatsVariable(goal)) return SolveLazy(GoalOf(goal), 0, fn);
  return SolveLazy(GoalOf(goal), 0, [&](const Tuple& t) {
    return !Matches(goal, t) || fn(t);
  });
}

Result<bool> QueryEngine::SolveLazy(
    const Goal& goal, size_t depth,
    const std::function<bool(const Tuple&)>& emit) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::CheckTick(options_.guard));
  if (depth > max_depth_) {
    return ResourceExhaustedError(
        StrCat("lazy resolution exceeded depth ", max_depth_,
               " (recursive predicate?)"));
  }
  // Reuse strict-solver results when available.
  if (auto it = memo_.find(goal); it != memo_.end()) {
    for (const Tuple& t : it->second) {
      if (!emit(t)) return true;
    }
    return false;
  }
  const bool ground =
      std::find(goal.args.begin(), goal.args.end(), kOpen) == goal.args.end();
  if (ground) {
    if (auto it = exists_memo_.find(goal); it != exists_memo_.end()) {
      return it->second && !emit(goal.args);
    }
  }
  if (!program_.Defines(goal.predicate)) {
    TuplePattern pattern(goal.args.size());
    for (size_t i = 0; i < goal.args.size(); ++i) {
      if (goal.args[i] != kOpen) pattern[i] = goal.args[i];
    }
    return edb_.ForEachMatchUntil(goal.predicate, pattern, emit);
  }

  // Track emissions so ground goals can cache their existence result.
  bool emitted_any = false;
  GoalProvider derived(this, depth + 1, /*lazy=*/true);
  for (size_t idx : program_.RuleIndicesFor(goal.predicate)) {
    const Rule& rule = program_.rules()[idx];
    auto provider_for = [&](size_t i) -> const FactProvider& {
      if (program_.Defines(rule.body()[i].atom().predicate())) return derived;
      return edb_;
    };
    DEDDB_ASSIGN_OR_RETURN(JoinPlan plan, PlanFor(rule, goal, provider_for));
    std::vector<SymbolId> initial;
    DEDDB_ASSIGN_OR_RETURN(bool matches, plan.InitialRow(goal.args, &initial));
    if (!matches) continue;
    Tuple head;
    Result<bool> stopped = plan.ExecuteUntil(
        provider_for,
        [&](const SymbolId* row) {
          emitted_any = true;
          plan.HeadTupleInto(row, &head);
          return emit(head);
        },
        initial, options_.guard);
    DEDDB_RETURN_IF_ERROR(stopped.status());
    DEDDB_RETURN_IF_ERROR(derived.status());
    if (*stopped) {
      if (ground) exists_memo_.emplace(goal, true);
      return true;
    }
  }
  // All rules exhausted without an early stop: for a ground goal this is a
  // complete existence answer.
  if (ground) exists_memo_.insert_or_assign(goal, emitted_any);
  return false;
}

Result<std::vector<Tuple>> QueryEngine::SolveMaterialized(const Atom& goal) {
  DEDDB_RETURN_IF_ERROR(MaterializeFor(goal.predicate()));
  TuplePattern pattern(goal.arity());
  for (size_t i = 0; i < goal.arity(); ++i) {
    if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
  }
  std::vector<Tuple> out;
  FactStoreProvider cache_provider(&cache_);
  LayeredProvider full({&cache_provider, &edb_});
  full.ForEachMatch(goal.predicate(), pattern, [&](const Tuple& t) {
    if (Matches(goal, t)) out.push_back(t);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status QueryEngine::MaterializeFor(SymbolId goal_pred) {
  if (materialized_.count(goal_pred) > 0 || !program_.Defines(goal_pred)) {
    return Status::Ok();
  }
  obs::ScopedSpan span(options_.obs.tracer, "query.materialize");
  if (span.enabled()) span.AttrStr("goal", symbols_.NameOf(goal_pred));
  obs::MetricsRegistry::Add(options_.obs.metrics, "query.materializations");
  BottomUpEvaluator evaluator(program_, symbols_, edb_, options_);
  Result<FactStore> idb = evaluator.EvaluateFor({goal_pred});
  // Fold the evaluator's stats in even when it unwound early, so callers see
  // the partial progress behind a guard trip (accumulate contract: see
  // bottom_up_stats()).
  const EvaluationStats& s = evaluator.stats();
  bu_stats_.rounds += s.rounds;
  bu_stats_.strata += s.strata;
  bu_stats_.rule_firings += s.rule_firings;
  bu_stats_.derived_facts += s.derived_facts;
  bu_stats_.interrupted |= s.interrupted;
  DEDDB_RETURN_IF_ERROR(idb.status());
  idb->ForEach([&](SymbolId pred, const Tuple& t) { cache_.Add(pred, t); });
  for (SymbolId pred : graph_.ReachableFrom({goal_pred})) {
    materialized_.insert(pred);
  }
  return Status::Ok();
}

Result<std::vector<Tuple>> QueryEngine::SolveTopDown(const Atom& goal) {
  DEDDB_ASSIGN_OR_RETURN(const std::vector<Tuple>* solutions,
                         SolveMemo(GoalOf(goal), 0));
  if (!RepeatsVariable(goal)) return *solutions;
  std::vector<Tuple> out;
  for (const Tuple& t : *solutions) {
    if (Matches(goal, t)) out.push_back(t);
  }
  return out;
}

Result<const std::vector<Tuple>*> QueryEngine::SolveMemo(const Goal& goal,
                                                         size_t depth) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::CheckTick(options_.guard));
  auto memo_it = memo_.find(goal);
  if (memo_it != memo_.end()) return &memo_it->second;
  if (depth > max_depth_) {
    return ResourceExhaustedError(
        StrCat("top-down resolution exceeded depth ", max_depth_));
  }
  if (in_progress_.count(goal) > 0) {
    return ResourceExhaustedError(
        "top-down resolution re-entered a goal (recursive predicate); use "
        "materialization");
  }

  std::vector<Tuple> solutions;
  if (!program_.Defines(goal.predicate)) {
    TuplePattern pattern(goal.args.size());
    for (size_t i = 0; i < goal.args.size(); ++i) {
      if (goal.args[i] != kOpen) pattern[i] = goal.args[i];
    }
    edb_.ForEachMatch(goal.predicate, pattern,
                      [&](const Tuple& t) { solutions.push_back(t); });
  } else {
    in_progress_.insert(goal);
    // Ensure the in-progress marker is removed on every exit path.
    struct Guard {
      std::unordered_set<Goal, GoalHash>* set;
      const Goal* goal;
      ~Guard() { set->erase(*goal); }
    } guard{&in_progress_, &goal};

    GoalProvider derived(this, depth + 1, /*lazy=*/false);
    Tuple head;
    for (size_t idx : program_.RuleIndicesFor(goal.predicate)) {
      const Rule& rule = program_.rules()[idx];
      auto provider_for = [&](size_t i) -> const FactProvider& {
        if (program_.Defines(rule.body()[i].atom().predicate())) {
          return derived;
        }
        return edb_;
      };
      DEDDB_ASSIGN_OR_RETURN(JoinPlan plan, PlanFor(rule, goal, provider_for));
      std::vector<SymbolId> initial;
      DEDDB_ASSIGN_OR_RETURN(bool matches,
                             plan.InitialRow(goal.args, &initial));
      if (!matches) continue;
      auto collect = [&](const SymbolId* row) {
        plan.HeadTupleInto(row, &head);
        solutions.push_back(head);
      };
      DEDDB_RETURN_IF_ERROR(
          plan.Execute(provider_for, collect, initial, options_.guard)
              .status());
      DEDDB_RETURN_IF_ERROR(derived.status());
    }
  }
  std::sort(solutions.begin(), solutions.end());
  solutions.erase(std::unique(solutions.begin(), solutions.end()),
                  solutions.end());
  auto [it, inserted] = memo_.emplace(goal, std::move(solutions));
  return &it->second;
}

}  // namespace deddb
