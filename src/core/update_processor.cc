#include "core/update_processor.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

std::string UpdateProcessor::TransactionReport::ToString(
    const SymbolTable& symbols) const {
  std::string out = accepted ? "ACCEPTED" : "REJECTED";
  if (!integrity.violations.empty()) {
    out += StrCat(" violations=",
                  JoinMapped(integrity.violations, ",",
                             [&](const Atom& a) {
                               return a.ToString(symbols);
                             }));
  }
  out += StrCat(" conditions=", conditions.events.ToString(symbols));
  out += StrCat(" views=", views.delta.ToString(symbols));
  return out;
}

Result<UpdateProcessor::TransactionReport> UpdateProcessor::ProcessTransaction(
    const Transaction& transaction, bool apply) {
  const Database& db = db_->database();
  DEDDB_RETURN_IF_ERROR(
      ResourceGuard::Check(db_->upward_options().eval.guard));
  if (apply && db_->replica_mode()) return db_->ReplicaRefusal();
  const obs::ObsContext obs = db_->observability();
  obs::ScopedSpan span(obs.tracer, "processor.transaction");
  if (span.enabled()) {
    span.AttrStr("txn", transaction.ToString(db.symbols()));
    span.AttrInt("apply", apply ? 1 : 0);
  }
  obs::MetricsRegistry::Add(obs.metrics, "processor.transactions");
  // The facade's checked commit: one combined upward pass over {ιIc,
  // ιView(x), δView(x), ιCond(x), δCond(x)}, applied when accepted.
  DEDDB_ASSIGN_OR_RETURN(
      DeductiveDatabase::CommitResult committed,
      db_->Commit(transaction, persist::CommitOrigin::kProcessor, token_,
                  apply));
  const DerivedEvents& events = committed.events;

  TransactionReport report;
  report.accepted = committed.accepted;
  report.integrity.violated = !committed.accepted;
  for (SymbolId ic : db.ic_predicates()) {
    const Relation* rel = events.inserts.Find(ic);
    if (rel == nullptr) continue;
    rel->ForEach([&](const Tuple& t) {
      report.integrity.violations.push_back(AtomFromTuple(ic, t));
    });
  }
  std::unordered_set<SymbolId> cond_set(db.condition_predicates().begin(),
                                        db.condition_predicates().end());
  std::unordered_set<SymbolId> view_set;
  for (SymbolId view : db.view_predicates()) {
    if (db.IsMaterialized(view)) view_set.insert(view);
  }
  events.inserts.ForEach([&](SymbolId pred, const Tuple& t) {
    if (cond_set.count(pred) > 0) {
      report.conditions.events.inserts.Add(pred, t);
    }
    if (view_set.count(pred) > 0) report.views.delta.inserts.Add(pred, t);
  });
  events.deletes.ForEach([&](SymbolId pred, const Tuple& t) {
    if (cond_set.count(pred) > 0) {
      report.conditions.events.deletes.Add(pred, t);
    }
    if (view_set.count(pred) > 0) report.views.delta.deletes.Add(pred, t);
  });
  report.views.applied_inserts = committed.applied_inserts;
  report.views.applied_deletes = committed.applied_deletes;

  if (span.enabled()) {
    span.AttrInt("violations",
                 static_cast<int64_t>(report.integrity.violations.size()));
    span.AttrInt("accepted", report.accepted ? 1 : 0);
  }
  obs::MetricsRegistry::Add(obs.metrics,
                            report.accepted
                                ? "processor.transactions_accepted"
                                : "processor.transactions_rejected");
  return report;
}

Result<UpdateProcessor::ViewUpdateOutcome> UpdateProcessor::ProcessViewUpdate(
    const UpdateRequest& request, const ViewUpdatePolicy& policy) {
  Database& db = db_->database();
  DEDDB_RETURN_IF_ERROR(
      ResourceGuard::Check(db_->upward_options().eval.guard));
  const obs::ObsContext obs = db_->observability();
  obs::ScopedSpan span(obs.tracer, "processor.view_update");
  if (span.enabled()) {
    span.AttrStr("request", request.ToString(db.symbols()));
  }
  obs::MetricsRegistry::Add(obs.metrics, "processor.view_updates");
  DEDDB_ASSIGN_OR_RETURN(bool consistent, db_->IsConsistent());
  if (!consistent) {
    return FailedPreconditionError(
        "ProcessViewUpdate requires a consistent database");
  }

  // Downward: the request plus ¬ιIc_m for every maintained constraint
  // (default: the global Ic, i.e. maintain everything).
  UpdateRequest combined = request;
  std::vector<SymbolId> maintain = policy.maintain;
  if (maintain.empty() && policy.check.empty()) {
    maintain.push_back(db.global_ic());
  }
  for (SymbolId ic : maintain) {
    DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db.predicates().Get(ic));
    RequestedEvent no_violation;
    no_violation.positive = false;
    no_violation.is_insert = true;
    no_violation.predicate = ic;
    for (size_t i = 0; i < info.arity; ++i) {
      no_violation.args.push_back(
          Term::MakeVariable(db.symbols().FreshVar()));
    }
    combined.events.push_back(std::move(no_violation));
  }
  DEDDB_ASSIGN_OR_RETURN(problems::DownwardResult downward,
                         db_->TranslateViewUpdate(combined));
  // DownwardResult.translations is already the minimal, deduplicated set.
  std::vector<problems::Translation> candidates =
      std::move(downward.translations);

  ViewUpdateOutcome outcome;
  if (policy.check.empty()) {
    outcome.translations = std::move(candidates);
    if (span.enabled()) {
      span.AttrInt("translations",
                   static_cast<int64_t>(outcome.translations.size()));
    }
    return outcome;
  }

  // Upward: reject candidates violating a checked constraint.
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, db_->Compiled());
  for (problems::Translation& translation : candidates) {
    DEDDB_RETURN_IF_ERROR(
        ResourceGuard::Check(db_->upward_options().eval.guard));
    obs::ScopedSpan cand_span(obs.tracer, "processor.candidate");
    if (cand_span.enabled()) {
      cand_span.AttrStr("txn", translation.ToString(db.symbols()));
    }
    UpwardInterpreter upward(&db, compiled, db_->upward_options());
    DEDDB_ASSIGN_OR_RETURN(
        DerivedEvents events,
        upward.InducedEventsFor(translation.transaction, policy.check));
    bool violated = false;
    for (SymbolId ic : policy.check) {
      const Relation* rel = events.inserts.Find(ic);
      if (rel != nullptr && rel->size() > 0) violated = true;
    }
    if (cand_span.enabled()) cand_span.AttrInt("accepted", violated ? 0 : 1);
    if (violated) {
      ++outcome.rejected_by_check;
      obs::MetricsRegistry::Add(obs.metrics,
                                "processor.candidates_rejected");
    } else {
      outcome.translations.push_back(std::move(translation));
    }
  }
  if (span.enabled()) {
    span.AttrInt("translations",
                 static_cast<int64_t>(outcome.translations.size()));
    span.AttrInt("rejected_by_check",
                 static_cast<int64_t>(outcome.rejected_by_check));
  }
  return outcome;
}

}  // namespace deddb
