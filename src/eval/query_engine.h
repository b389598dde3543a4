#ifndef DEDDB_EVAL_QUERY_ENGINE_H_
#define DEDDB_EVAL_QUERY_ENGINE_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/program.h"
#include "eval/bottom_up.h"
#include "eval/dependency_graph.h"
#include "eval/fact_provider.h"
#include "eval/join_plan.h"
#include "util/hash.h"

namespace deddb {

/// Goal-directed query answering over a stratified program, with caching.
///
/// Two strategies are available:
///  * `SolveTopDown` — SLDNF-style resolution with goal memoization
///    (tabling of complete answer sets per goal), best for ground or highly
///    selective goals over non-recursive predicates (goal constants become
///    initially-bound slots of each rule's JoinPlan). Fails with
///    kResourceExhausted when it re-enters a goal still being solved
///    (recursion).
///  * `SolveMaterialized` — demand-driven materialization: computes (once,
///    bottom-up, semi-naive) every predicate reachable from the goal, caches
///    the relations, then answers by lookup. Handles recursion.
///
/// `Holds`/`SolvePattern` pick top-down for ground/selective goals on
/// non-recursive reachable sets and materialization otherwise.
///
/// All caches assume the underlying EDB does not change; call
/// InvalidateCache after modifying it.
class QueryEngine {
 public:
  /// All references must outlive the engine.
  QueryEngine(const Program& program, const SymbolTable& symbols,
              const FactProvider& edb, EvaluationOptions options = {});

  /// All ground instances of `goal` (pattern with variables) that hold.
  Result<std::vector<Tuple>> SolvePattern(const Atom& goal);

  /// True if the ground atom `goal` holds. Ground goals over non-recursive
  /// predicates use lazy SLD resolution with first-solution early exit, so
  /// existence checks do not enumerate full extensions.
  Result<bool> Holds(const Atom& goal);

  /// True if `goal` (possibly open) has at least one solution; lazy,
  /// depth-first resolution with early exit. Fails with
  /// kResourceExhausted past the depth bound (recursive predicates).
  Result<bool> Exists(const Atom& goal);

  /// Streams the solutions of `goal` to `fn` until it returns false;
  /// returns whether the enumeration stopped early. Solutions may repeat
  /// (one per derivation); recursive reachable sets fall back to the strict
  /// solver (deduplicated). Lazy: producing the first k solutions does not
  /// require computing the rest.
  Result<bool> SolveLazyPattern(const Atom& goal,
                                const std::function<bool(const Tuple&)>& fn);

  /// Pure memoized top-down resolution; see class comment.
  Result<std::vector<Tuple>> SolveTopDown(const Atom& goal);

  /// Pure demand-driven materialization; see class comment.
  Result<std::vector<Tuple>> SolveMaterialized(const Atom& goal);

  /// Drops all caches (call after the EDB changes).
  void InvalidateCache();

  /// Maximum top-down resolution depth before giving up.
  void set_max_depth(size_t depth) { max_depth_ = depth; }

  /// Re-points the resource guard consulted by subsequent evaluations
  /// (nullptr removes it). The engine captures its options at construction;
  /// this is how a per-request guard reaches an engine that outlives the
  /// request. Caches are kept — a guard bounds work, it does not change
  /// results.
  void set_guard(const ResourceGuard* guard) { options_.guard = guard; }

  /// Bottom-up work done by demand-driven materialization, **accumulated**
  /// across every Solve*/Holds/Exists call since construction or the last
  /// ResetStats() — a reused engine reports cumulative totals by design
  /// (the engine is a cache; its cost is amortized over the queries it
  /// serves). For per-query numbers, snapshot before and diff after, or call
  /// ResetStats() between queries. InvalidateCache() does NOT reset stats:
  /// the work already done stays counted.
  const EvaluationStats& bottom_up_stats() const { return bu_stats_; }

  /// Zeroes bottom_up_stats(); see the accumulate contract above.
  void ResetStats() { bu_stats_ = EvaluationStats{}; }

 private:
  // A goal: the predicate and one value per argument, kOpen where the
  // argument is unbound. Goals from rule bodies never repeat a variable (the
  // join checks repeats itself); public entry points filter repeated
  // variables of the caller's atom on the way out.
  struct Goal {
    SymbolId predicate;
    Tuple args;
    bool operator==(const Goal&) const = default;
  };
  struct GoalHash {
    size_t operator()(const Goal& goal) const {
      size_t seed = TupleHash()(goal.args);
      HashCombine(seed, goal.predicate);
      return seed;
    }
  };
  static constexpr SymbolId kOpen = SymbolTable::kNoSymbol;
  static Goal GoalOf(const Atom& atom);
  static Goal GoalOf(SymbolId predicate, const TuplePattern& pattern);

  // Answers a rule body's derived literals by recursing into the engine; see
  // query_engine.cc.
  class GoalProvider;

  // Memoized solve of `goal`; returns a pointer into the memo (stable:
  // node-based map).
  Result<const std::vector<Tuple>*> SolveMemo(const Goal& goal, size_t depth);

  // Lazy depth-first resolution: emits solutions of `goal` (possibly
  // repeated, one per derivation) until `emit` returns false (stop).
  // Returns true if stopped early.
  Result<bool> SolveLazy(const Goal& goal, size_t depth,
                         const std::function<bool(const Tuple&)>& emit);

  // Plans `rule` for `goal`: the head variables the goal's values bind are
  // bound initially; `provider_for` serves the body literals.
  static Result<JoinPlan> PlanFor(
      const Rule& rule, const Goal& goal,
      const std::function<const FactProvider&(size_t)>& provider_for);

  // Ensures every defined predicate reachable from `goal_pred` is in cache_.
  Status MaterializeFor(SymbolId goal_pred);

  // True if any predicate reachable from `pred` is in a recursive SCC.
  bool ReachesRecursion(SymbolId pred) const;

  const Program& program_;
  const SymbolTable& symbols_;
  const FactProvider& edb_;
  EvaluationOptions options_;
  size_t max_depth_ = 512;

  DependencyGraph graph_;
  std::unordered_set<SymbolId> recursive_reach_;  // preds that reach a cycle

  FactStore cache_;
  std::unordered_set<SymbolId> materialized_;
  EvaluationStats bu_stats_;

  std::unordered_map<Goal, std::vector<Tuple>, GoalHash> memo_;
  std::unordered_set<Goal, GoalHash> in_progress_;
  // Existence results for ground goals proved/refuted by lazy resolution.
  std::unordered_map<Goal, bool, GoalHash> exists_memo_;
};

}  // namespace deddb

#endif  // DEDDB_EVAL_QUERY_ENGINE_H_
