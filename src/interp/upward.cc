#include "interp/upward.h"

#include <unordered_set>

#include "eval/bottom_up.h"
#include "eval/join_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

namespace {

// Events of P depend on the events of the predicates P's rules mention, so
// a pass needs the goals' dependency closure, read off the compilation.
std::unordered_set<SymbolId> Needed(const CompiledEvents& compiled,
                                    const std::vector<SymbolId>& goals) {
  std::unordered_set<SymbolId> needed =
      compiled.dependencies.ReachableFrom(goals);
  needed.insert(goals.begin(), goals.end());
  return needed;
}

}  // namespace

UpwardInterpreter::UpwardInterpreter(const Database* db,
                                     const CompiledEvents* compiled,
                                     UpwardOptions options)
    : db_(db), compiled_(compiled), options_(options) {}

Result<DerivedEvents> UpwardInterpreter::InducedEvents(
    const Transaction& transaction) {
  return InducedEventsFor(transaction, compiled_->derived_order);
}

Result<DerivedEvents> UpwardInterpreter::InducedEventsFor(
    const Transaction& transaction, const std::vector<SymbolId>& goals) {
  obs::ScopedSpan span(options_.eval.obs.tracer, "upward");
  const UpwardStats before = stats_;
  if (span.enabled()) {
    span.AttrStr("strategy", options_.strategy == UpwardStrategy::kEventRules
                                 ? "event_rules"
                                 : "recompute");
    span.AttrInt("txn_events", static_cast<int64_t>(transaction.size()));
  }
  Result<DerivedEvents> result = [&]() -> Result<DerivedEvents> {
    switch (options_.strategy) {
      case UpwardStrategy::kEventRules:
        return RunEventRules(transaction, goals);
      case UpwardStrategy::kRecompute:
        return RunRecompute(transaction, goals);
    }
    return InternalError("unknown upward strategy");
  }();
  if (span.enabled()) {
    span.AttrInt("bodies_evaluated",
                 static_cast<int64_t>(stats_.bodies_evaluated -
                                      before.bodies_evaluated));
    span.AttrInt("candidates_checked",
                 static_cast<int64_t>(stats_.candidates_checked -
                                      before.candidates_checked));
    span.AttrInt("events_found", static_cast<int64_t>(stats_.events_found -
                                                      before.events_found));
    if (result.ok()) {
      span.AttrInt("induced", static_cast<int64_t>(result->size()));
    }
  }
  if (obs::MetricsRegistry* metrics = options_.eval.obs.metrics;
      metrics != nullptr) {
    metrics->Add("upward.calls");
    metrics->Add("upward.bodies_evaluated",
                 stats_.bodies_evaluated - before.bodies_evaluated);
    metrics->Add("upward.candidates_checked",
                 stats_.candidates_checked - before.candidates_checked);
    metrics->Add("upward.events_found",
                 stats_.events_found - before.events_found);
    if (result.ok()) {
      metrics->Observe("upward.induced_events",
                       static_cast<int64_t>(result->size()));
    }
  }
  return result;
}

Result<std::vector<JoinPlan>> UpwardInterpreter::PlanNewStateProbes(
    SymbolId new_sym, const FactProvider& provider) const {
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  std::vector<JoinPlan> plans;
  for (const Rule& rule : compiled_->transition.RulesFor(new_sym)) {
    // The candidate binds every head variable before the body runs.
    JoinPlan::Options options;
    rule.head().CollectVariables(&options.initially_bound);
    DEDDB_ASSIGN_OR_RETURN(JoinPlan plan,
                           JoinPlan::Build(rule, provider_for, options));
    plans.push_back(std::move(plan));
  }
  return plans;
}

Result<bool> UpwardInterpreter::NewStateHolds(
    const std::vector<JoinPlan>& probes, const Tuple& tuple,
    const FactProvider& provider) {
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  const std::function<bool(const SymbolId*)> first_witness =
      [](const SymbolId*) { return false; };
  std::vector<SymbolId> initial;
  for (const JoinPlan& plan : probes) {
    DEDDB_ASSIGN_OR_RETURN(bool matches, plan.InitialRow(tuple, &initial));
    if (!matches) continue;
    ++stats_.bodies_evaluated;
    DEDDB_ASSIGN_OR_RETURN(bool satisfiable,
                           plan.ExecuteUntil(provider_for, first_witness,
                                             initial, options_.eval.guard));
    if (satisfiable) return true;
  }
  return false;
}

Result<DerivedEvents> UpwardInterpreter::RunEventRules(
    const Transaction& transaction, const std::vector<SymbolId>& wanted) {
  const PredicateTable& predicates = db_->predicates();
  const SymbolTable& symbols = db_->symbols();

  const std::unordered_set<SymbolId> needed = Needed(*compiled_, wanted);
  OldStateView old_state(db_, options_.eval);
  TransactionProvider txn_provider(&transaction, &predicates);
  DerivedEvents events;
  DerivedEventsProvider events_provider(&events, &predicates);
  LayeredProvider provider({&txn_provider, &events_provider, &old_state});
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };

  for (SymbolId pred : compiled_->derived_order) {
    if (needed.count(pred) == 0) continue;
    obs::ScopedSpan pred_span(options_.eval.obs.tracer, "upward.pred");
    const UpwardStats pred_before = stats_;
    const size_t inserts_before =
        pred_span.enabled() ? events.inserts.TotalFacts() : 0;
    const size_t deletes_before =
        pred_span.enabled() ? events.deletes.TotalFacts() : 0;
    if (pred_span.enabled()) pred_span.AttrStr("name", symbols.NameOf(pred));
    DEDDB_FAULT_POINT(FaultPoint::kUpwardBody);
    DEDDB_RETURN_IF_ERROR(ResourceGuard::Check(options_.eval.guard));
    DEDDB_ASSIGN_OR_RETURN(
        SymbolId new_sym,
        predicates.FindVariant(pred, PredicateVariant::kNew));

    // ---- Insertions: ιP(x) <- [inew$P | Pⁿ](x) & ¬P⁰(x) ------------------
    const std::vector<Rule> ins_rules = [&] {
      if (!compiled_->simplified) return compiled_->transition.RulesFor(new_sym);
      SymbolId inew = symbols.Find(
          StrCat(EventCompiler::kInsNewPrefix, symbols.NameOf(pred)));
      return compiled_->ins_new.RulesFor(inew);
    }();
    Tuple head;
    for (const Rule& rule : ins_rules) {
      DEDDB_ASSIGN_OR_RETURN(JoinPlan plan,
                             JoinPlan::Build(rule, provider_for));
      ++stats_.bodies_evaluated;
      DEDDB_RETURN_IF_ERROR(
          plan.Execute(provider_for,
                       [&](const SymbolId* row) {
                         plan.HeadTupleInto(row, &head);
                         ++stats_.candidates_checked;
                         if (events.ContainsInsert(pred, head)) return;
                         // ¬P⁰(x): the fact must not hold in the old state.
                         if (old_state.Contains(pred, head)) return;
                         events.inserts.Add(pred, head);
                         ++stats_.events_found;
                       },
                       /*initial=*/{}, options_.eval.guard)
              .status());
      DEDDB_RETURN_IF_ERROR(old_state.TakeError());
    }

    // ---- Deletions: δP(x) <- P⁰(x) & ¬Pⁿ(x) -------------------------------
    // Candidates: all of P⁰ (literal eq. 7), or the dcand$P over-
    // approximation when simplification is on. Both candidate sets consist
    // of tuples that hold in P⁰ (dcand bodies embed an old derivation), so
    // only ¬Pⁿ remains to be checked.
    FactStore candidates;
    if (compiled_->simplified) {
      SymbolId cand_sym = symbols.Find(StrCat(
          EventCompiler::kDeleteCandidatePrefix, symbols.NameOf(pred)));
      for (const Rule& rule : compiled_->delete_candidates.RulesFor(cand_sym)) {
        DEDDB_ASSIGN_OR_RETURN(JoinPlan plan,
                               JoinPlan::Build(rule, provider_for));
        ++stats_.bodies_evaluated;
        DEDDB_RETURN_IF_ERROR(
            plan.Execute(provider_for,
                         [&](const SymbolId* row) {
                           plan.HeadTupleInto(row, &head);
                           candidates.Add(pred, head);
                         },
                         /*initial=*/{}, options_.eval.guard)
                .status());
      }
    } else {
      const PredicateInfo* info = predicates.Find(pred);
      TuplePattern open(info->arity);
      old_state.ForEachMatch(pred, open,
                             [&](const Tuple& t) { candidates.Add(pred, t); });
    }
    DEDDB_RETURN_IF_ERROR(old_state.TakeError());
    std::vector<JoinPlan> probes;
    if (!candidates.empty()) {
      DEDDB_ASSIGN_OR_RETURN(probes, PlanNewStateProbes(new_sym, provider));
    }
    Status inner = Status::Ok();
    candidates.ForEach([&](SymbolId, const Tuple& t) {
      if (!inner.ok()) return;
      ++stats_.candidates_checked;
      if (events.ContainsDelete(pred, t)) return;
      Result<bool> holds = NewStateHolds(probes, t, provider);
      if (!holds.ok()) {
        inner = holds.status();
        return;
      }
      if (!*holds) {
        events.deletes.Add(pred, t);
        ++stats_.events_found;
      }
    });
    DEDDB_RETURN_IF_ERROR(inner);
    DEDDB_RETURN_IF_ERROR(old_state.TakeError());
    if (pred_span.enabled()) {
      pred_span.AttrInt("bodies_evaluated",
                        static_cast<int64_t>(stats_.bodies_evaluated -
                                             pred_before.bodies_evaluated));
      pred_span.AttrInt("candidates_checked",
                        static_cast<int64_t>(stats_.candidates_checked -
                                             pred_before.candidates_checked));
      pred_span.AttrInt("inserts",
                        static_cast<int64_t>(events.inserts.TotalFacts() -
                                             inserts_before));
      pred_span.AttrInt("deletes",
                        static_cast<int64_t>(events.deletes.TotalFacts() -
                                             deletes_before));
    }
  }
  return events;
}

Result<DerivedEvents> UpwardInterpreter::RunRecompute(
    const Transaction& transaction, const std::vector<SymbolId>& wanted) {
  FactStoreProvider old_edb(&db_->facts());
  BottomUpEvaluator old_eval(db_->program(), db_->symbols(), old_edb,
                             options_.eval);
  DEDDB_ASSIGN_OR_RETURN(FactStore old_idb, old_eval.EvaluateFor(wanted));

  FactStore new_state = transaction.ApplyTo(db_->facts());
  FactStoreProvider new_edb(&new_state);
  BottomUpEvaluator new_eval(db_->program(), db_->symbols(), new_edb,
                             options_.eval);
  DEDDB_ASSIGN_OR_RETURN(FactStore new_idb, new_eval.EvaluateFor(wanted));

  const std::unordered_set<SymbolId> needed = Needed(*compiled_, wanted);

  DerivedEvents events;
  new_idb.ForEach([&](SymbolId pred, const Tuple& t) {
    if (needed.count(pred) == 0) return;
    ++stats_.candidates_checked;
    if (!old_idb.Contains(pred, t)) {
      events.inserts.Add(pred, t);
      ++stats_.events_found;
    }
  });
  old_idb.ForEach([&](SymbolId pred, const Tuple& t) {
    if (needed.count(pred) == 0) return;
    ++stats_.candidates_checked;
    if (!new_idb.Contains(pred, t)) {
      events.deletes.Add(pred, t);
      ++stats_.events_found;
    }
  });
  return events;
}

}  // namespace deddb
