#ifndef DEDDB_CORE_COMMIT_OBSERVER_H_
#define DEDDB_CORE_COMMIT_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "datalog/symbol_table.h"
#include "interp/derived_events.h"
#include "storage/transaction.h"

namespace deddb {

/// Change-data-capture hook on the facade's commit path (DESIGN.md §11).
///
/// The facade invokes every method with the commit lock held, on the
/// committing thread — implementations must be fast and must never call
/// back into the facade (BeginSession, Apply, Compiled, ... all take the
/// same lock and would self-deadlock). The intended implementation hands
/// the event off to another thread (the server's pusher) and returns.
///
/// Contract per committed transaction:
///   1. `active()` is consulted first; false skips all CDC work, so an
///      observer that has never had a subscriber costs one relaxed atomic
///      load per commit.
///   2. `WantedDerived()` names the derived (kOld) predicates whose induced
///      events the commit should compute. The facade then runs one upward
///      pass against the OLD state — the commit's one pass, which also
///      serves the materialized views and the constraints — using the
///      already-available ιP/δP machinery, not re-derivation.
///   3. `OnCommit(version, txn, derived)` fires after the mutation, with
///      the version the commit produced. `derived` may be empty (no induced
///      change); base-predicate deltas are read straight off `txn`. A commit
///      refused after step 2 (a rejected checked commit, a failed staging)
///      calls neither OnCommit nor OnBarrier; the next commit's
///      WantedDerived() supersedes it.
///
/// `OnBarrier(version)` replaces OnCommit when the database changed in a
/// way that has no incremental delta: a direct facade mutation outside the
/// transaction path (AddFact/RemoveFact, schema or rule changes, view
/// rematerialization) or a commit whose induced events could not be
/// computed. Subscribers must treat a barrier as "your view is stale" and
/// resnapshot.
class CommitObserver {
 public:
  virtual ~CommitObserver() = default;

  /// Fast gate: false means no subscriber could care about any commit.
  virtual bool active() const = 0;

  /// Derived kOld predicates to compute induced events for (deduplicated;
  /// may be empty, meaning only base deltas are wanted).
  virtual std::vector<SymbolId> WantedDerived() = 0;

  /// A transaction committed at `version`; `derived` holds its induced
  /// events for the predicates WantedDerived() returned this commit.
  virtual void OnCommit(uint64_t version, const Transaction& transaction,
                        const DerivedEvents& derived) = 0;

  /// The database reached `version` by a change with no delta stream.
  virtual void OnBarrier(uint64_t version) = 0;
};

}  // namespace deddb

#endif  // DEDDB_CORE_COMMIT_OBSERVER_H_
