#ifndef DEDDB_EVENTS_EVENT_COMPILER_H_
#define DEDDB_EVENTS_EVENT_COMPILER_H_

#include "datalog/program.h"
#include "eval/dependency_graph.h"
#include "obs/obs.h"
#include "storage/database.h"
#include "util/status.h"

namespace deddb {

struct EventCompilerOptions {
  /// Applies the sound simplifications of [Oli91, UO92] (§3.3 "these rules
  /// can be intensively simplified"):
  ///  * insertion event rules use `inew$P`, whose definition keeps only
  ///    transition disjuncts containing at least one event literal (a
  ///    no-event disjunct implies P⁰, contradicting the ¬P⁰ conjunct of the
  ///    insertion event rule);
  ///  * deletion event rules are guarded by a delta-candidate predicate
  ///    `dcand$P` that over-approximates the tuples whose old derivation may
  ///    have been broken by an event, so `δP` evaluation does not scan all
  ///    of P⁰;
  ///  * duplicate body literals are removed and contradictory bodies
  ///    (L and ¬L) are dropped.
  /// Measured by the Perf-D ablation benchmark.
  bool simplify = false;
  /// Observability sinks (may be empty): Compile() opens a `compile.events`
  /// span and records `compile.*` metrics.
  obs::ObsContext obs;
};

/// The compiled event machinery of a deductive database (paper §3), split
/// into the rule groups the interpreters consume. It depends on the rules
/// and the schema alone, so one immutable compilation serves every problem,
/// every commit and every session until either changes.
struct CompiledEvents {
  /// `new$P` transition rules (§3.2), one rule per disjunct.
  Program transition;
  /// `ins$P` / `del$P` event rules (§3.3, eqs. 6-7).
  Program event_rules;
  /// Simplified insertion bodies: `inew$P` rules (event-containing
  /// transition disjuncts only). Empty unless simplify.
  Program ins_new;
  /// Deletion candidates: `dcand$P` rules. Empty unless simplify.
  Program delete_candidates;
  /// Union of the original program and all of the above — the full
  /// *augmented program*, an ordinary stratified Datalog¬ program for
  /// non-recursive databases.
  Program augmented;
  bool simplified = false;

  /// Derived predicates (kOld symbols) in bottom-up dependency order; the
  /// upward interpreter computes events in this order.
  std::vector<SymbolId> derived_order;
  /// The original program's dependency graph (built for the hierarchy
  /// check); the upward interpreter takes each pass's goal closure from it.
  DependencyGraph dependencies;
};

/// Compiles the transition and event rules for every derived predicate of a
/// database. The augmented program's extensional predicates are the base
/// predicates (old state) and the base event predicates (`ins$Q` / `del$Q`,
/// supplied by a Transaction). Evaluating it *is* the upward interpretation;
/// the downward interpreter walks the same rules goal-directedly.
///
/// Requires a hierarchical (non-recursive) rule set: the event rules of a
/// recursive predicate would depend negatively on themselves through the
/// transition rules (`δP` on `¬Pⁿ`, `Pⁿ` on `¬δP`), which has no stratified
/// semantics. This matches the assumption under which [Oli91] defines them.
class EventCompiler {
 public:
  /// Prefixes for the helper predicates introduced by simplification.
  static constexpr const char* kInsNewPrefix = "inew$";
  static constexpr const char* kDeleteCandidatePrefix = "dcand$";

  explicit EventCompiler(Database* db, EventCompilerOptions options = {})
      : db_(db), options_(options) {}

  /// Builds the event machinery for all derived predicates of the database.
  /// Registers all predicate variants in the database's predicate table as a
  /// side effect.
  Result<CompiledEvents> Compile();

  const EventCompilerOptions& options() const { return options_; }

 private:
  Status BuildDeleteCandidateRules(const Rule& original_rule, Program* out);

  Database* db_;
  EventCompilerOptions options_;
};

}  // namespace deddb

#endif  // DEDDB_EVENTS_EVENT_COMPILER_H_
