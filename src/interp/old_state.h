#ifndef DEDDB_INTERP_OLD_STATE_H_
#define DEDDB_INTERP_OLD_STATE_H_

#include <memory>
#include <mutex>

#include "eval/fact_provider.h"
#include "eval/query_engine.h"
#include "storage/database.h"

namespace deddb {

/// Answers queries about the *old* (current) database state D⁰: base
/// predicates directly from the extensional store, derived predicates
/// through a QueryEngine over the original program (goal-directed, with
/// caching). Materialized views are served from their stored extension,
/// which is by definition the old state.
///
/// Also usable as a FactProvider so rule bodies mixing old literals and
/// event literals can be joined uniformly. The provider interface cannot
/// return a status, so the first evaluation error it meets is kept (and
/// later provider calls answer "no matches" at once) until TakeError; a
/// caller joining over the view checks TakeError after each join.
class OldStateView : public FactProvider {
 public:
  /// `db` must outlive the view. Evaluation of derived predicates uses
  /// `options`.
  explicit OldStateView(const Database* db, EvaluationOptions options = {});

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  /// True lazy streaming for derived predicates (solutions are produced one
  /// at a time through the query engine and the scan stops as soon as `fn`
  /// returns false), so satisfiability probes do not materialize extensions.
  bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;

  /// True if the ground atom holds in the old state (base lookup or derived
  /// query). Errors from evaluation are reported.
  Result<bool> Holds(const Atom& ground_atom) const;

  /// All ground instances of `pattern` (an atom possibly with variables)
  /// that hold in the old state.
  Result<std::vector<Tuple>> Query(const Atom& pattern) const;

  /// The first evaluation error a provider-interface call (ForEachMatch,
  /// ForEachMatchUntil, Contains) met since the last TakeError, or OK;
  /// clears it.
  Status TakeError() const;

  /// Drops derived-predicate caches (call if the EDB changed).
  void Invalidate();

  /// Re-points the guard consulted by derived-predicate evaluation (nullptr
  /// removes it). Forwards to the underlying QueryEngine, which captured its
  /// options when this view was constructed — without this, a guard armed
  /// after construction would never be consulted and its typed statuses
  /// (kDeadlineExceeded / kBudgetExceeded / kCancelled) never surface.
  void set_guard(const ResourceGuard* guard);

  const Database& db() const { return *db_; }

 private:
  const Database* db_;
  std::unique_ptr<FactStoreProvider> edb_provider_;
  // QueryEngine caches materializations; logically const access. The mutex
  // serializes engine access so the view stays a valid FactProvider under
  // the parallel evaluator's concurrent const reads (base-predicate and
  // materialized-view lookups bypass it and stay lock-free). Recursive
  // because a body join enumerating one old-state literal probes the next
  // literal through the same view on the same thread.
  mutable std::recursive_mutex engine_mu_;
  mutable std::unique_ptr<QueryEngine> engine_;
  // First error swallowed by the provider interface; guarded by engine_mu_.
  mutable Status error_;

  // Keeps `result`'s error (if it is the first) and passes `result` on.
  template <typename T>
  Result<T> Record(Result<T> result) const {
    if (!result.ok() && error_.ok()) error_ = result.status();
    return result;
  }
};

}  // namespace deddb

#endif  // DEDDB_INTERP_OLD_STATE_H_
