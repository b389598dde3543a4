#ifndef DEDDB_CORE_UPDATE_PROCESSOR_H_
#define DEDDB_CORE_UPDATE_PROCESSOR_H_

#include <string>
#include <vector>

#include "core/deductive_database.h"

namespace deddb {

/// Combined processing of upward and downward problems (paper §5.3): "we
/// could uniformly integrate view updating, materialized view maintenance,
/// integrity constraints checking, integrity constraints maintenance,
/// condition monitoring and other deductive database updating problems into
/// an update processing system".
class UpdateProcessor {
 public:
  /// `db` must outlive the processor.
  explicit UpdateProcessor(DeductiveDatabase* db) : db_(db) {}

  /// Idempotency token attached to the next accepted-and-applied
  /// transaction: it rides in the commit record and is entered in the
  /// facade's dedup table, mirroring DeductiveDatabase::Apply's tokened
  /// overload. An absent token (the default) changes nothing. The caller —
  /// the server's single writer thread — consults LookupCommitToken before
  /// processing; rejected transactions are never recorded (they had no
  /// effect, so re-processing a retry is harmless).
  void set_commit_token(const persist::CommitToken& token) { token_ = token; }

  /// Result of the combined upward pass over one transaction.
  struct TransactionReport {
    /// False when the transaction violates some integrity constraint (then
    /// nothing was applied).
    bool accepted = false;
    problems::IntegrityCheckResult integrity;
    problems::ConditionChanges conditions;
    problems::ViewMaintenanceResult views;

    std::string ToString(const SymbolTable& symbols) const;
  };

  /// The checked commit: one upward interpretation of {ιIc, ιView(x),
  /// δView(x), ιCond(x), δCond(x)} checks the constraints, monitors all
  /// conditions and computes all materialized-view deltas together. When
  /// `apply` is true and no constraint is violated, the transaction commits
  /// through the facade's one commit path (the same one Apply takes): the
  /// view deltas and the base updates are applied under the commit lock and,
  /// on a persistent database, the call returns once the commit record is
  /// durable. A failed fsync then poisons the facade, exactly as for Apply
  /// (DeductiveDatabase::commit_health). A rejected transaction changes
  /// nothing and logs nothing. Requires a consistent database.
  Result<TransactionReport> ProcessTransaction(const Transaction& transaction,
                                               bool apply = true);

  /// Which constraints are handled how during a view update (§5.3's closing
  /// combination): `maintain` constraints contribute repairs via downward
  /// interpretation, `check` constraints reject candidate translations via
  /// upward interpretation. Defaults (both empty): maintain everything
  /// through the global Ic.
  struct ViewUpdatePolicy {
    std::vector<SymbolId> check;
    std::vector<SymbolId> maintain;
  };

  struct ViewUpdateOutcome {
    /// Translations satisfying the request and all constraints, in
    /// deterministic order; the user (or a policy) selects one.
    std::vector<problems::Translation> translations;
    /// Candidates discarded because a checked constraint rejected them.
    size_t rejected_by_check = 0;
  };

  /// View updating combined with integrity handling: first downward-
  /// interprets {request, ¬ιIc_m(x)...} for the maintained constraints, then
  /// upward-checks each resulting candidate transaction against the checked
  /// constraints and filters violators. Requires a consistent database.
  Result<ViewUpdateOutcome> ProcessViewUpdate(const UpdateRequest& request,
                                              const ViewUpdatePolicy& policy);
  Result<ViewUpdateOutcome> ProcessViewUpdate(const UpdateRequest& request) {
    return ProcessViewUpdate(request, ViewUpdatePolicy{});
  }

 private:
  DeductiveDatabase* db_;
  persist::CommitToken token_;
};

}  // namespace deddb

#endif  // DEDDB_CORE_UPDATE_PROCESSOR_H_
