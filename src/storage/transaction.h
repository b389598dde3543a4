#ifndef DEDDB_STORAGE_TRANSACTION_H_
#define DEDDB_STORAGE_TRANSACTION_H_

#include <string>

#include "datalog/predicate.h"
#include "storage/fact_store.h"
#include "util/status.h"

namespace deddb {

/// A transaction: a set of insertion and/or deletion base event facts
/// (paper §3.1). `ιQ(C)` is stored on the insert side, `δQ(C)` on the delete
/// side, both keyed by the *base* predicate symbol `Q`.
///
/// Conflict invariant (load-bearing for WAL replay): the insert and delete
/// sides are disjoint BY CONSTRUCTION. Every mutation path — AddInsert /
/// AddDelete, Merge, and the persistence codec's decoder — rejects an event
/// whose opposite is already present with kInvalidArgument, and re-adding
/// the same event is idempotent (duplicate normalization). A transaction
/// containing both `ιQ(C)` and `δQ(C)` therefore cannot exist, so ApplyTo's
/// deletes-then-inserts order is immaterial, swapping the two sides is an
/// exact involution, and replaying a logged transaction can never diverge
/// from its original application (DESIGN.md §8).
class Transaction {
 public:
  Transaction() = default;

  /// Records the insertion event `ιQ(tuple)`. Fails if the transaction
  /// already contains the opposite event `δQ(tuple)` (a transaction is a
  /// consistent set of events). Re-adding the same event is idempotent.
  Status AddInsert(SymbolId predicate, const Tuple& tuple);
  Status AddInsert(const Atom& ground_atom);

  /// Records the deletion event `δQ(tuple)`.
  Status AddDelete(SymbolId predicate, const Tuple& tuple);
  Status AddDelete(const Atom& ground_atom);

  bool ContainsInsert(SymbolId predicate, const Tuple& tuple) const {
    return inserts_.Contains(predicate, tuple);
  }
  bool ContainsDelete(SymbolId predicate, const Tuple& tuple) const {
    return deletes_.Contains(predicate, tuple);
  }

  const FactStore& inserts() const { return inserts_; }
  const FactStore& deletes() const { return deletes_; }

  size_t size() const { return inserts_.TotalFacts() + deletes_.TotalFacts(); }
  bool empty() const { return size() == 0; }
  void Clear();

  /// Adds all events of `other`; fails on any conflict.
  Status Merge(const Transaction& other);

  /// Checks the event definitions (paper eqs. 1-2) against the current state:
  /// an insertion event requires the fact to be absent, a deletion event
  /// requires it to be present. `predicates` supplies names for errors.
  Status Validate(const FactStore& current_state,
                  const PredicateTable& predicates) const;

  /// Returns the new state Dⁿ obtained by applying this transaction to
  /// `current_state` (paper §3.1): deletions removed, insertions added.
  FactStore ApplyTo(const FactStore& current_state) const;

  /// `{ins Q(A), del R(B)}` — sorted for deterministic output.
  std::string ToString(const SymbolTable& symbols) const;

  /// Same event sets on both sides.
  friend bool operator==(const Transaction& a, const Transaction& b) {
    return a.inserts_ == b.inserts_ && a.deletes_ == b.deletes_;
  }
  friend bool operator!=(const Transaction& a, const Transaction& b) {
    return !(a == b);
  }

 private:
  FactStore inserts_;
  FactStore deletes_;
};

}  // namespace deddb

#endif  // DEDDB_STORAGE_TRANSACTION_H_
