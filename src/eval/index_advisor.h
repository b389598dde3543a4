#ifndef DEDDB_EVAL_INDEX_ADVISOR_H_
#define DEDDB_EVAL_INDEX_ADVISOR_H_

#include <vector>

#include "datalog/program.h"
#include "storage/fact_store.h"
#include "storage/relation.h"

namespace deddb {

/// One advised composite index: "joins against `predicate` bind exactly the
/// columns of `mask` somewhere in this program's plans".
struct IndexAdvice {
  SymbolId predicate;
  Relation::Mask mask;

  friend bool operator==(const IndexAdvice& a, const IndexAdvice& b) {
    return a.predicate == b.predicate && a.mask == b.mask;
  }
};

/// Static composite-index advice for `program`: builds each rule's JoinPlan
/// — once unforced and once per positive body literal leading (semi-naive
/// evaluation can lead with any recursive literal's delta) — and records,
/// for each positive step, the bound-column mask the plan probes it with.
/// Masks with at least two columns and not all columns become advice
/// (single columns already have posting lists; full keys are set probes).
/// Deduplicated, sorted by (predicate, mask) — deterministic for a given
/// program.
///
/// The plans are built without statistics, so the planner's structural
/// tie-breaks order them; at runtime live cardinality estimates can pick a
/// different order, and a miss only costs the composite fallback
/// (single-column posting list or scan), never correctness.
std::vector<IndexAdvice> AdviseIndexes(const Program& program);

/// Declares every advised index on `store` (FactStore::DeclareIndex), so the
/// store's relations maintain them incrementally from then on — this is the
/// facade's hook for the EDB on AddRule/rule updates/recovery, and the
/// evaluator's hook for its fresh IDB store.
void DeclareAdvisedIndexes(const Program& program, FactStore* store);

}  // namespace deddb

#endif  // DEDDB_EVAL_INDEX_ADVISOR_H_
