#ifndef DEDDB_INTERP_UPWARD_H_
#define DEDDB_INTERP_UPWARD_H_

#include <vector>

#include "eval/join_plan.h"
#include "events/event_compiler.h"
#include "events/transaction_provider.h"
#include "interp/derived_events.h"
#include "interp/old_state.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace deddb {

/// How the upward interpretation computes the new-state / event relations.
enum class UpwardStrategy {
  /// Interpret the event rules incrementally (paper §4.1): evaluate the
  /// event-rule bodies against the old state + the transaction, processing
  /// derived predicates bottom-up. Cost scales with the size of the
  /// transaction and the affected portion of the database (when the compiled
  /// rules are simplified).
  kEventRules,
  /// Baseline: fully compute the old and new derived states and take the
  /// set difference (eqs. 1-2 applied literally). Cost scales with the
  /// database. Used as the comparison point in the Perf-A benchmark.
  kRecompute,
};

struct UpwardOptions {
  UpwardStrategy strategy = UpwardStrategy::kEventRules;
  EvaluationOptions eval;
};

struct UpwardStats {
  size_t bodies_evaluated = 0;
  size_t candidates_checked = 0;
  size_t events_found = 0;
};

/// The upward interpretation of the event rules (paper §4.1): given a
/// transaction (a set of base event facts), computes the insertions and
/// deletions induced on derived predicates.
class UpwardInterpreter {
 public:
  /// `db` and `compiled` must outlive the interpreter. `compiled` must have
  /// been produced by an EventCompiler over `db`.
  UpwardInterpreter(const Database* db, const CompiledEvents* compiled,
                    UpwardOptions options = {});

  /// Computes the induced events for all derived predicates. The transaction
  /// should be valid w.r.t. the current state (Transaction::Validate);
  /// invalid events are not errors here but produce no induced change
  /// (matching eqs. 1-2, under which they are simply not events).
  Result<DerivedEvents> InducedEvents(const Transaction& transaction);

  /// Computes the induced events only for `goals` (kOld derived symbols) and
  /// the derived predicates they transitively need.
  Result<DerivedEvents> InducedEventsFor(const Transaction& transaction,
                                         const std::vector<SymbolId>& goals);

  const UpwardStats& stats() const { return stats_; }

 private:
  Result<DerivedEvents> RunEventRules(const Transaction& transaction,
                                      const std::vector<SymbolId>& wanted);
  Result<DerivedEvents> RunRecompute(const Transaction& transaction,
                                     const std::vector<SymbolId>& wanted);

  // One plan per transition rule for `new_sym`, every head variable bound
  // initially: built once per predicate and probed once per candidate.
  Result<std::vector<JoinPlan>> PlanNewStateProbes(
      SymbolId new_sym, const FactProvider& provider) const;

  // True if the ground instance new$P(tuple) holds in the transition, i.e.
  // some transition-rule body (one of `probes`) is satisfiable with the head
  // bound to `tuple`. Each probe stops at its first witness.
  Result<bool> NewStateHolds(const std::vector<JoinPlan>& probes,
                             const Tuple& tuple, const FactProvider& provider);

  const Database* db_;
  const CompiledEvents* compiled_;
  UpwardOptions options_;
  UpwardStats stats_;
};

}  // namespace deddb

#endif  // DEDDB_INTERP_UPWARD_H_
