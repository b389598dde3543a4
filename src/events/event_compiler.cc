#include "events/event_compiler.h"

#include <algorithm>
#include <unordered_set>

#include "events/event_rules.h"
#include "events/transition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb {

namespace {

// Removes duplicate literals; returns false if the body contains a literal
// and its complement (the rule can never fire).
bool NormalizeBody(std::vector<Literal>* body) {
  std::vector<Literal> out;
  for (const Literal& lit : *body) {
    if (std::find(out.begin(), out.end(), lit) != out.end()) continue;
    if (std::find(out.begin(), out.end(), lit.Negated()) != out.end()) {
      return false;
    }
    out.push_back(lit);
  }
  *body = std::move(out);
  return true;
}

}  // namespace

Result<CompiledEvents> EventCompiler::Compile() {
  DEDDB_FAULT_POINT(FaultPoint::kEventCompile);
  obs::ScopedSpan span(options_.obs.tracer, "compile.events");
  if (span.enabled()) {
    span.AttrInt("simplify", options_.simplify ? 1 : 0);
  }
  PredicateTable& predicates = db_->predicates();
  SymbolTable& symbols = db_->symbols();

  // Hierarchy check + derived evaluation order.
  CompiledEvents out;
  out.simplified = options_.simplify;
  out.dependencies = DependencyGraph(db_->program());
  const DependencyGraph& graph = out.dependencies;
  for (const std::vector<SymbolId>& scc : graph.SccsBottomUp()) {
    if (scc.size() > 1) {
      return InvalidArgumentError(
          StrCat("event rules require a hierarchical (non-recursive) rule "
                 "set; predicates '",
                 symbols.NameOf(scc[0]), "' and '", symbols.NameOf(scc[1]),
                 "' are mutually recursive"));
    }
    for (const DependencyGraph::Edge& edge : graph.EdgesOf(scc[0])) {
      if (edge.target == scc[0]) {
        return InvalidArgumentError(
            StrCat("event rules require a hierarchical (non-recursive) rule "
                   "set; predicate '",
                   symbols.NameOf(scc[0]), "' is recursive"));
      }
    }
    out.derived_order.push_back(scc[0]);
  }
  // Declared-but-undefined derived predicates still need (empty-bodied)
  // event machinery; append them at the end of the order.
  for (SymbolId pred : predicates.old_predicates()) {
    const PredicateInfo* info = predicates.Find(pred);
    if (info->kind == PredicateKind::kDerived &&
        !graph.IsDefined(pred)) {
      out.derived_order.push_back(pred);
    }
  }

  // Transition rules.
  Program raw_transition;
  for (const Rule& rule : db_->program().rules()) {
    DEDDB_RETURN_IF_ERROR(
        BuildTransitionRules(rule, &predicates, &raw_transition));
  }
  for (const Rule& rule : raw_transition.rules()) {
    std::vector<Literal> body = rule.body();
    if (options_.simplify && !NormalizeBody(&body)) continue;
    out.transition.AddRuleUnchecked(Rule(rule.head(), std::move(body)));
  }

  if (options_.simplify) {
    // inew$P and dcand$P need declarations even when empty, so that the
    // event rules referencing them validate; declare for every derived
    // predicate.
    for (SymbolId pred : out.derived_order) {
      const PredicateInfo* info = predicates.Find(pred);
      const std::string name = symbols.NameOf(pred);  // copy: Declare interns
      DEDDB_RETURN_IF_ERROR(
          predicates
              .Declare(StrCat(kInsNewPrefix, name), info->arity,
                       PredicateKind::kDerived, PredicateSemantics::kPlain)
              .status());
      DEDDB_RETURN_IF_ERROR(
          predicates
              .Declare(StrCat(kDeleteCandidatePrefix, name), info->arity,
                       PredicateKind::kDerived, PredicateSemantics::kPlain)
              .status());
    }
    // inew$P: transition disjuncts with at least one positive event literal
    // (the others imply P⁰ and cannot feed an insertion event).
    for (const Rule& rule : out.transition.rules()) {
      if (CountPositiveEventLiterals(rule, predicates) == 0) continue;
      const PredicateInfo* head_info =
          predicates.Find(rule.head().predicate());
      SymbolId inew = symbols.Find(
          StrCat(kInsNewPrefix, symbols.NameOf(head_info->base_symbol)));
      out.ins_new.AddRuleUnchecked(
          Rule(Atom(inew, rule.head().args()), rule.body()));
    }
    // dcand$P rules.
    for (const Rule& rule : db_->program().rules()) {
      DEDDB_RETURN_IF_ERROR(
          BuildDeleteCandidateRules(rule, &out.delete_candidates));
    }
  }

  // Event rules.
  for (SymbolId pred : out.derived_order) {
    const PredicateInfo* info = predicates.Find(pred);
    if (!options_.simplify) {
      DEDDB_RETURN_IF_ERROR(
          BuildEventRules(pred, &predicates, &symbols, &out.event_rules));
      continue;
    }
    const std::string name = symbols.NameOf(pred);  // copy: Declare interns
    SymbolId inew = symbols.Find(StrCat(kInsNewPrefix, name));
    SymbolId cand = symbols.Find(StrCat(kDeleteCandidatePrefix, name));
    DEDDB_ASSIGN_OR_RETURN(SymbolId new_sym,
                           predicates.VariantOf(pred, PredicateVariant::kNew));
    DEDDB_ASSIGN_OR_RETURN(
        SymbolId ins_sym,
        predicates.VariantOf(pred, PredicateVariant::kInsertEvent));
    DEDDB_ASSIGN_OR_RETURN(
        SymbolId del_sym,
        predicates.VariantOf(pred, PredicateVariant::kDeleteEvent));

    std::vector<Term> args;
    args.reserve(info->arity);
    for (size_t i = 0; i < info->arity; ++i) {
      args.push_back(Term::MakeVariable(symbols.FreshVar()));
    }
    // ιP(x) <- inew$P(x) & ¬P⁰(x)
    out.event_rules.AddRuleUnchecked(
        Rule(Atom(ins_sym, args), {Literal::Positive(Atom(inew, args)),
                                   Literal::Negative(Atom(pred, args))}));
    // δP(x) <- dcand$P(x) & P⁰(x) & ¬Pⁿ(x).  (The dcand body implies P⁰, but
    // the conjunct is kept so the rule is literally eq. 7 with a guard.)
    out.event_rules.AddRuleUnchecked(
        Rule(Atom(del_sym, args), {Literal::Positive(Atom(cand, args)),
                                   Literal::Positive(Atom(pred, args)),
                                   Literal::Negative(Atom(new_sym, args))}));
  }

  // Full augmented program.
  const std::vector<const Program*> parts = {
      &db_->program(), &out.transition, &out.ins_new, &out.delete_candidates,
      &out.event_rules};
  for (const Program* part : parts) {
    for (const Rule& rule : part->rules()) {
      out.augmented.AddRuleUnchecked(rule);
    }
  }
  if (span.enabled()) {
    span.AttrInt("derived", static_cast<int64_t>(out.derived_order.size()));
    span.AttrInt("transition_rules",
                 static_cast<int64_t>(out.transition.rules().size()));
    span.AttrInt("event_rules",
                 static_cast<int64_t>(out.event_rules.rules().size()));
    span.AttrInt("augmented_rules",
                 static_cast<int64_t>(out.augmented.rules().size()));
  }
  if (obs::MetricsRegistry* metrics = options_.obs.metrics;
      metrics != nullptr) {
    metrics->Add("compile.calls");
    metrics->Add("compile.transition_rules", out.transition.rules().size());
    metrics->Add("compile.event_rules", out.event_rules.rules().size());
    metrics->Add("compile.augmented_rules", out.augmented.rules().size());
  }
  return out;
}

Status EventCompiler::BuildDeleteCandidateRules(const Rule& original_rule,
                                                Program* out) {
  PredicateTable& predicates = db_->predicates();
  SymbolTable& symbols = db_->symbols();
  SymbolId cand = symbols.Find(
      StrCat(kDeleteCandidatePrefix,
             symbols.NameOf(original_rule.head().predicate())));

  // For each body literal, one candidate rule with that literal replaced by
  // the event that would break it: positive Q -> δQ, negative ¬Q -> ιQ.
  // The remaining literals stay as old-state literals: they held in the old
  // derivation being broken.
  for (size_t j = 0; j < original_rule.body().size(); ++j) {
    std::vector<Literal> body;
    for (size_t i = 0; i < original_rule.body().size(); ++i) {
      const Literal& lit = original_rule.body()[i];
      if (i != j) {
        body.push_back(lit);
        continue;
      }
      PredicateVariant variant = lit.positive()
                                     ? PredicateVariant::kDeleteEvent
                                     : PredicateVariant::kInsertEvent;
      DEDDB_ASSIGN_OR_RETURN(
          SymbolId event,
          predicates.VariantOf(lit.atom().predicate(), variant));
      body.push_back(Literal::Positive(Atom(event, lit.atom().args())));
    }
    out->AddRuleUnchecked(
        Rule(Atom(cand, original_rule.head().args()), std::move(body)));
  }
  return Status::Ok();
}

}  // namespace deddb
