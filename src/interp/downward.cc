#include "interp/downward.h"

#include <algorithm>

#include "datalog/unify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

namespace {

// How a transition-rule body literal is interpreted (paper §4.2).
enum class LitClass {
  kOld,           // query against the current state
  kBaseEvent,     // base fact update to perform / forbid
  kDerivedEvent,  // recurse into the event rules
};

}  // namespace

std::string RequestedEvent::ToString(const SymbolTable& symbols) const {
  Atom atom(predicate, args);
  return StrCat(positive ? "" : "not ", is_insert ? "ins " : "del ",
                atom.ToString(symbols));
}

std::string UpdateRequest::ToString(const SymbolTable& symbols) const {
  return StrCat("{",
                JoinMapped(events, ", ",
                           [&](const RequestedEvent& e) {
                             return e.ToString(symbols);
                           }),
                "}");
}

DownwardInterpreter::DownwardInterpreter(const Database* db,
                                         const CompiledEvents* compiled,
                                         const ActiveDomain* domain,
                                         DownwardOptions options)
    : db_(db),
      compiled_(compiled),
      domain_(*domain),
      options_(options),
      old_state_(db, options.eval) {}

EventPossibleFn DownwardInterpreter::possible_fn() const {
  const FactStore* facts = &db_->facts();
  return [facts](const BaseEventFact& ev) {
    bool holds = facts->Contains(ev.predicate, ev.tuple);
    return ev.is_insert ? !holds : holds;
  };
}

Result<Dnf> DownwardInterpreter::Interpret(const UpdateRequest& request) {
  obs::ScopedSpan span(options_.eval.obs.tracer, "downward");
  const DownwardStats before = stats_;
  if (span.enabled()) {
    span.AttrStr("request", request.ToString(db_->symbols()));
  }
  Result<Dnf> result = InterpretImpl(request);
  if (span.enabled()) {
    span.AttrInt("branches_explored",
                 static_cast<int64_t>(stats_.branches_explored -
                                      before.branches_explored));
    span.AttrInt("old_state_queries",
                 static_cast<int64_t>(stats_.old_state_queries -
                                      before.old_state_queries));
    span.AttrInt("negations",
                 static_cast<int64_t>(stats_.negations - before.negations));
    span.AttrInt("domain_enumerations",
                 static_cast<int64_t>(stats_.domain_enumerations -
                                      before.domain_enumerations));
    if (result.ok()) {
      span.AttrInt("disjuncts", static_cast<int64_t>(result->size()));
      if (result->approximate()) span.AttrInt("approximate", 1);
    }
  }
  if (obs::MetricsRegistry* metrics = options_.eval.obs.metrics;
      metrics != nullptr) {
    metrics->Add("downward.calls");
    metrics->Add("downward.branches_explored",
                 stats_.branches_explored - before.branches_explored);
    metrics->Add("downward.old_state_queries",
                 stats_.old_state_queries - before.old_state_queries);
    metrics->Add("downward.negations", stats_.negations - before.negations);
    metrics->Add("downward.domain_enumerations",
                 stats_.domain_enumerations - before.domain_enumerations);
    if (result.ok()) {
      metrics->Observe("downward.result_disjuncts",
                       static_cast<int64_t>(result->size()));
    }
  }
  return result;
}

Result<Dnf> DownwardInterpreter::InterpretImpl(const UpdateRequest& request) {
  // The request's constants join the finite domain (§2): negations and
  // instantiations must range over them even if the database has never seen
  // them (e.g. inserting a view fact about a brand-new individual).
  for (const RequestedEvent& event : request.events) {
    for (const Term& t : event.args) {
      if (t.is_constant()) domain_.AddExtra(t.constant());
    }
  }
  event_memo_.clear();  // cached results depend on the working domain
  EventPossibleFn possible = possible_fn();
  // Positive events first: their translations give the conjunction context
  // against which the negative events' factors are folded (so requirements
  // conflicting with mandatory updates prune immediately).
  std::vector<const RequestedEvent*> ordered;
  for (const RequestedEvent& event : request.events) {
    if (event.positive) ordered.push_back(&event);
  }
  for (const RequestedEvent& event : request.events) {
    if (!event.positive) ordered.push_back(&event);
  }

  Dnf acc = Dnf::True();
  for (const RequestedEvent* event : ordered) {
    obs::ScopedSpan event_span(options_.eval.obs.tracer, "down.event");
    if (event_span.enabled()) {
      event_span.AttrStr("event", event->ToString(db_->symbols()));
    }
    DEDDB_ASSIGN_OR_RETURN(Dnf d,
                           DownEvent(event->predicate, event->args,
                                     event->is_insert, /*depth=*/0));
    if (event_span.enabled()) {
      event_span.AttrInt("disjuncts", static_cast<int64_t>(d.size()));
    }
    {
      obs::ScopedSpan combine_span(options_.eval.obs.tracer, "dnf.combine");
      if (combine_span.enabled()) {
        combine_span.AttrStr("op", event->positive ? "and" : "and_negated");
        combine_span.AttrInt("lhs", static_cast<int64_t>(acc.size()));
        combine_span.AttrInt("rhs", static_cast<int64_t>(d.size()));
      }
      if (!event->positive) {
        ++stats_.negations;
        DEDDB_ASSIGN_OR_RETURN(
            acc, Dnf::AndNegated(acc, d, possible, options_.max_disjuncts,
                                 options_.eval.guard, options_.eval.obs.metrics));
      } else {
        DEDDB_ASSIGN_OR_RETURN(
            acc, Dnf::And(acc, d, possible, options_.max_disjuncts,
                          options_.eval.guard, options_.eval.obs.metrics));
      }
      if (combine_span.enabled()) {
        combine_span.AttrInt("out", static_cast<int64_t>(acc.size()));
      }
    }
    if (acc.IsFalse()) return acc;
  }
  return acc;
}

Result<Dnf> DownwardInterpreter::InterpretEvent(const RequestedEvent& event) {
  UpdateRequest request;
  request.events.push_back(event);
  return Interpret(request);
}

Result<Dnf> DownwardInterpreter::DownEvent(SymbolId pred,
                                           const std::vector<Term>& args,
                                           bool is_insert, size_t depth) {
  DEDDB_FAULT_POINT(FaultPoint::kDownwardEvent);
  DEDDB_RETURN_IF_ERROR(ResourceGuard::Check(options_.eval.guard));
  if (depth > options_.max_depth) {
    return ResourceExhaustedError(
        StrCat("downward interpretation exceeded depth ", options_.max_depth));
  }
  DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db_->predicates().Get(pred));
  if (info.variant != PredicateVariant::kOld) {
    return InvalidArgumentError(
        "requested events must name user predicates (kOld symbols)");
  }
  if (info.kind == PredicateKind::kBase) {
    return DownBaseEvent(pred, args, is_insert);
  }

  obs::ScopedSpan span(options_.eval.obs.tracer, "down.derived");
  if (span.enabled()) {
    span.AttrStr("event", StrCat(is_insert ? "ins " : "del ",
                                 Atom(pred, args).ToString(db_->symbols())));
  }

  // Ground derived events recur across disjuncts and factors; memoize.
  Atom memo_goal(pred, args);
  GroundEventKey memo_key;
  const bool memoizable = memo_goal.IsGround();
  if (memoizable) {
    memo_key =
        GroundEventKey{pred, is_insert, TupleFromAtom(memo_goal)};
    auto it = event_memo_.find(memo_key);
    if (it != event_memo_.end()) {
      if (span.enabled()) {
        span.AttrInt("memo_hit", 1);
        span.AttrInt("disjuncts", static_cast<int64_t>(it->second.size()));
      }
      return it->second;
    }
  }

  DEDDB_ASSIGN_OR_RETURN(
      SymbolId new_sym,
      db_->predicates().FindVariant(pred, PredicateVariant::kNew));

  Atom goal(pred, args);
  if (is_insert) {
    // ιP(x) -> Pⁿ(x) & ¬P⁰(x).
    if (memoizable) {
      ++stats_.old_state_queries;
      DEDDB_ASSIGN_OR_RETURN(bool holds, old_state_.Holds(goal));
      Dnf result = Dnf::False();  // already satisfied (footnote 1)
      if (!holds) {
        DEDDB_ASSIGN_OR_RETURN(
            result,
            DownNew(new_sym, pred, args, /*check_not_old=*/false, depth));
      }
      event_memo_.emplace(memo_key, result);
      if (span.enabled()) {
        span.AttrInt("disjuncts", static_cast<int64_t>(result.size()));
      }
      return result;
    }
    DEDDB_ASSIGN_OR_RETURN(
        Dnf open_result,
        DownNew(new_sym, pred, args, /*check_not_old=*/true, depth));
    if (span.enabled()) {
      span.AttrInt("disjuncts", static_cast<int64_t>(open_result.size()));
    }
    return open_result;
  }

  // δP(x) -> P⁰(x) & ¬Pⁿ(x): branch over the old instances, then negate the
  // downward interpretation of the transition rule per instance.
  ++stats_.old_state_queries;
  DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> instances, old_state_.Query(goal));
  EventPossibleFn possible = possible_fn();
  Dnf acc = Dnf::False();
  for (const Tuple& t : instances) {
    std::vector<Term> ground_args;
    ground_args.reserve(t.size());
    for (SymbolId c : t) ground_args.push_back(Term::MakeConstant(c));
    DEDDB_ASSIGN_OR_RETURN(
        Dnf dn,
        DownNew(new_sym, pred, ground_args, /*check_not_old=*/false, depth));
    ++stats_.negations;
    DEDDB_ASSIGN_OR_RETURN(Dnf neg,
                           Dnf::Negate(dn, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics));
    DEDDB_ASSIGN_OR_RETURN(acc,
                           Dnf::Or(acc, neg, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics));
  }
  if (memoizable) event_memo_.emplace(memo_key, acc);
  if (span.enabled()) {
    span.AttrInt("disjuncts", static_cast<int64_t>(acc.size()));
  }
  return acc;
}

Result<Dnf> DownwardInterpreter::DownBaseEvent(SymbolId pred,
                                               const std::vector<Term>& args,
                                               bool is_insert) {
  EventPossibleFn possible = possible_fn();
  Atom goal(pred, args);

  if (goal.IsGround()) {
    BaseEventFact ev{is_insert, pred, TupleFromAtom(goal)};
    return possible(ev) ? Dnf::Of(ev) : Dnf::False();
  }

  ++stats_.domain_enumerations;
  Dnf acc = Dnf::False();
  if (!is_insert) {
    // Deletion events exist only for stored facts: enumerate them.
    TuplePattern pattern(goal.arity());
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
    }
    Status status = Status::Ok();
    old_state_.ForEachMatch(pred, pattern, [&](const Tuple& t) {
      if (!status.ok()) return;
      Substitution subst;
      if (!MatchAtomAgainstTuple(goal, t, &subst)) return;
      Result<Dnf> merged =
          Dnf::Or(acc, Dnf::Of(BaseEventFact{false, pred, t}), possible,
                  options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
      if (!merged.ok()) {
        status = merged.status();
        return;
      }
      acc = std::move(*merged);
    });
    DEDDB_RETURN_IF_ERROR(status);
    DEDDB_RETURN_IF_ERROR(old_state_.TakeError());
    return acc;
  }

  // Insertion events over open arguments: one alternative per way to
  // instantiate over the finite (active) domain (§4.2), capped.
  size_t produced = 0;
  Status status = Status::Ok();
  std::function<void(size_t, Substitution*)> enumerate =
      [&](size_t col, Substitution* subst) {
        if (!status.ok()) return;
        if (col == goal.arity()) {
          Atom ground = subst->Apply(goal);
          BaseEventFact ev{true, pred, TupleFromAtom(ground)};
          if (!possible(ev)) return;  // fact already present
          if (++produced > options_.max_instantiations) {
            status = ResourceExhaustedError(StrCat(
                "open insertion event over '", db_->symbols().NameOf(pred),
                "' exceeded ", options_.max_instantiations,
                " domain instantiations"));
            return;
          }
          Result<Dnf> merged =
              Dnf::Or(acc, Dnf::Of(ev), possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
          if (!merged.ok()) {
            status = merged.status();
            return;
          }
          acc = std::move(*merged);
          return;
        }
        Term t = subst->Apply(goal.args()[col]);
        if (t.is_constant()) {
          enumerate(col + 1, subst);
          return;
        }
        for (SymbolId candidate : domain_.ColumnCandidates(pred, col)) {
          subst->Bind(t.variable(), Term::MakeConstant(candidate));
          enumerate(col + 1, subst);
          subst->Unbind(t.variable());
          if (!status.ok()) return;
        }
      };
  Substitution subst;
  enumerate(0, &subst);
  DEDDB_RETURN_IF_ERROR(status);
  return acc;
}

Result<Dnf> DownwardInterpreter::DownNew(SymbolId new_sym, SymbolId old_pred,
                                         const std::vector<Term>& args,
                                         bool check_not_old, size_t depth) {
  EventPossibleFn possible = possible_fn();
  Dnf acc = Dnf::False();
  Atom goal(new_sym, args);

  for (const Rule& original : compiled_->transition.RulesFor(new_sym)) {
    // Rename the rule apart so its variables cannot capture request
    // variables.
    Substitution renaming;
    for (VarId v : original.DistinctVariables()) {
      renaming.Bind(v, Term::MakeVariable(next_rename_var_++));
    }
    Rule rule = renaming.Apply(original);

    Substitution subst;
    if (!UnifyAtoms(rule.head(), goal, &subst)) continue;
    std::vector<bool> done(rule.body().size(), false);
    DEDDB_ASSIGN_OR_RETURN(
        Dnf branch,
        DownBody(rule, &subst, &done, old_pred, check_not_old, depth));
    DEDDB_ASSIGN_OR_RETURN(
        acc, Dnf::Or(acc, branch, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics));
  }
  return acc;
}

Result<Dnf> DownwardInterpreter::DownBody(const Rule& rule,
                                          Substitution* subst,
                                          std::vector<bool>* done,
                                          SymbolId old_pred,
                                          bool check_not_old, size_t depth) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::CheckTick(options_.eval.guard));
  ++stats_.branches_explored;
  EventPossibleFn possible = possible_fn();
  const PredicateTable& predicates = db_->predicates();

  // Classify and pick the next literal to interpret. Priorities: ground
  // old-state filters, ground events, variable-binding old-state queries,
  // then event instantiation (deletion events bind from stored facts;
  // insertion and derived events fall back to domain enumeration).
  int best = -1;
  int best_priority = INT32_MAX;
  size_t best_bound = 0;
  for (size_t i = 0; i < rule.body().size(); ++i) {
    if ((*done)[i]) continue;
    const Literal& lit = rule.body()[i];
    Atom atom = subst->Apply(lit.atom());
    const PredicateInfo* info = predicates.Find(atom.predicate());
    if (info == nullptr) {
      return InternalError("transition body references unknown predicate");
    }
    LitClass cls;
    bool is_insert_event = info->variant == PredicateVariant::kInsertEvent;
    if (info->variant == PredicateVariant::kOld) {
      cls = LitClass::kOld;
    } else if (info->kind == PredicateKind::kBase) {
      cls = LitClass::kBaseEvent;
    } else {
      cls = LitClass::kDerivedEvent;
    }
    bool ground = atom.IsGround();
    int priority;
    if (ground) {
      priority = cls == LitClass::kOld ? 0
                 : cls == LitClass::kBaseEvent ? 1
                                               : 3;
    } else if (cls == LitClass::kOld && lit.positive()) {
      priority = 2;
    } else if (cls == LitClass::kBaseEvent && lit.positive() &&
               !is_insert_event) {
      priority = 4;  // open deletion event: bind from stored facts
    } else if (cls == LitClass::kBaseEvent && lit.positive()) {
      priority = 5;  // open insertion event: domain enumeration
    } else if (cls == LitClass::kDerivedEvent && lit.positive()) {
      priority = 6;  // open derived event: domain enumeration
    } else {
      priority = 7;  // open negative: must wait for positives to bind
    }
    size_t bound_args = 0;
    for (const Term& t : atom.args()) bound_args += t.is_constant();
    if (priority < best_priority ||
        (priority == best_priority && bound_args > best_bound)) {
      best = static_cast<int>(i);
      best_priority = priority;
      best_bound = bound_args;
    }
  }

  if (best < 0) {
    // Body complete. For open insertion requests, enforce ¬P⁰ on the final
    // head instance (the second conjunct of the insertion event rule).
    if (check_not_old) {
      Atom head = subst->Apply(rule.head());
      if (!head.IsGround()) {
        return InternalError(
            "transition head not ground at body completion (unsafe rule?)");
      }
      ++stats_.old_state_queries;
      DEDDB_ASSIGN_OR_RETURN(
          bool holds,
          old_state_.Holds(Atom(old_pred, head.args())));
      if (holds) return Dnf::False();
    }
    return Dnf::True();
  }
  if (best_priority == 7) {
    return InternalError(
        "only open negative literals remain in transition body (rule "
        "bypassed allowedness validation?)");
  }

  size_t idx = static_cast<size_t>(best);
  const Literal& lit = rule.body()[idx];
  Atom atom = subst->Apply(lit.atom());
  const PredicateInfo* info = predicates.Find(atom.predicate());
  (*done)[idx] = true;
  // Restore `done` on exit so sibling branches re-plan from scratch.
  struct DoneGuard {
    std::vector<bool>* done;
    size_t idx;
    ~DoneGuard() { (*done)[idx] = false; }
  } guard{done, idx};

  // ---- Old-state literal --------------------------------------------------
  if (info->variant == PredicateVariant::kOld) {
    if (atom.IsGround()) {
      ++stats_.old_state_queries;
      DEDDB_ASSIGN_OR_RETURN(bool holds, old_state_.Holds(atom));
      if (holds != lit.positive()) return Dnf::False();
      return DownBody(rule, subst, done, old_pred, check_not_old, depth);
    }
    // Open positive: branch per solution.
    ++stats_.old_state_queries;
    DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> solutions,
                           old_state_.Query(atom));
    Dnf acc = Dnf::False();
    for (const Tuple& t : solutions) {
      std::vector<VarId> bound_here;
      bool ok = true;
      for (size_t i = 0; i < atom.arity() && ok; ++i) {
        Term term = subst->Apply(atom.args()[i]);
        if (term.is_constant()) {
          ok = term.constant() == t[i];
        } else {
          subst->Bind(term.variable(), Term::MakeConstant(t[i]));
          bound_here.push_back(term.variable());
        }
      }
      if (ok) {
        DEDDB_ASSIGN_OR_RETURN(
            Dnf branch,
            DownBody(rule, subst, done, old_pred, check_not_old, depth));
        DEDDB_ASSIGN_OR_RETURN(
            acc, Dnf::Or(acc, branch, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics));
      }
      for (VarId v : bound_here) subst->Unbind(v);
    }
    return acc;
  }

  const bool is_insert = info->variant == PredicateVariant::kInsertEvent;

  // ---- Base event literal -------------------------------------------------
  if (info->kind == PredicateKind::kBase) {
    if (atom.IsGround()) {
      BaseEventFact ev{is_insert, info->base_symbol, TupleFromAtom(atom)};
      if (lit.positive()) {
        if (!possible(ev)) return Dnf::False();
        DEDDB_ASSIGN_OR_RETURN(
            Dnf rest,
            DownBody(rule, subst, done, old_pred, check_not_old, depth));
        return Dnf::And(Dnf::Of(ev), rest, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
      }
      DEDDB_ASSIGN_OR_RETURN(
          Dnf rest,
          DownBody(rule, subst, done, old_pred, check_not_old, depth));
      if (!possible(ev)) return rest;  // requirement vacuously satisfied
      Dnf requirement;
      Conjunct c;
      c.Add(EventLiteral{ev, /*positive=*/false});
      requirement.AddDisjunct(std::move(c));
      return Dnf::And(requirement, rest, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
    }
    // Open positive base event: instantiate, then recurse per instance.
    ++stats_.domain_enumerations;
    Dnf acc = Dnf::False();
    Status status = Status::Ok();
    auto try_instance = [&](const Tuple& t) {
      if (!status.ok()) return;
      std::vector<VarId> bound_here;
      bool ok = true;
      for (size_t i = 0; i < atom.arity() && ok; ++i) {
        Term term = subst->Apply(atom.args()[i]);
        if (term.is_constant()) {
          ok = term.constant() == t[i];
        } else {
          subst->Bind(term.variable(), Term::MakeConstant(t[i]));
          bound_here.push_back(term.variable());
        }
      }
      if (ok) {
        BaseEventFact ev{is_insert, info->base_symbol, t};
        if (possible(ev)) {
          Result<Dnf> rest =
              DownBody(rule, subst, done, old_pred, check_not_old, depth);
          if (!rest.ok()) {
            status = rest.status();
          } else {
            Result<Dnf> combined = Dnf::And(Dnf::Of(ev), *rest, possible,
                                            options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
            if (!combined.ok()) {
              status = combined.status();
            } else {
              Result<Dnf> merged = Dnf::Or(acc, *combined, possible,
                                           options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
              if (!merged.ok()) {
                status = merged.status();
              } else {
                acc = std::move(*merged);
              }
            }
          }
        }
      }
      for (VarId v : bound_here) subst->Unbind(v);
    };

    if (!is_insert) {
      // Deletion events range over stored facts.
      TuplePattern pattern(atom.arity());
      for (size_t i = 0; i < atom.arity(); ++i) {
        if (atom.args()[i].is_constant()) {
          pattern[i] = atom.args()[i].constant();
        }
      }
      old_state_.ForEachMatch(info->base_symbol, pattern, try_instance);
      DEDDB_RETURN_IF_ERROR(status);
      DEDDB_RETURN_IF_ERROR(old_state_.TakeError());
      return acc;
    }
    // Insertion events range over the active domain.
    size_t produced = 0;
    std::function<void(size_t, Tuple*)> enumerate = [&](size_t col,
                                                        Tuple* partial) {
      if (!status.ok()) return;
      if (col == atom.arity()) {
        if (++produced > options_.max_instantiations) {
          status = ResourceExhaustedError(
              StrCat("open insertion event over '",
                     db_->symbols().NameOf(info->base_symbol), "' exceeded ",
                     options_.max_instantiations, " domain instantiations"));
          return;
        }
        try_instance(*partial);
        return;
      }
      Term term = subst->Apply(atom.args()[col]);
      if (term.is_constant()) {
        partial->push_back(term.constant());
        enumerate(col + 1, partial);
        partial->pop_back();
        return;
      }
      for (SymbolId candidate :
           domain_.ColumnCandidates(info->base_symbol, col)) {
        partial->push_back(candidate);
        enumerate(col + 1, partial);
        partial->pop_back();
        if (!status.ok()) return;
      }
    };
    Tuple partial;
    enumerate(0, &partial);
    DEDDB_RETURN_IF_ERROR(status);
    return acc;
  }

  // ---- Derived event literal ----------------------------------------------
  if (atom.IsGround()) {
    DEDDB_ASSIGN_OR_RETURN(
        Dnf sub,
        DownEvent(info->base_symbol, atom.args(), is_insert, depth + 1));
    if (!lit.positive()) {
      ++stats_.negations;
      DEDDB_ASSIGN_OR_RETURN(
          sub, Dnf::Negate(sub, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics));
    }
    if (sub.IsFalse()) return Dnf::False();
    DEDDB_ASSIGN_OR_RETURN(
        Dnf rest, DownBody(rule, subst, done, old_pred, check_not_old, depth));
    return Dnf::And(sub, rest, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
  }

  // Open positive derived event: instantiate its unbound variables over the
  // global active domain, then recurse per instance.
  ++stats_.domain_enumerations;
  std::vector<VarId> open_vars;
  for (const Term& t : atom.args()) {
    Term applied = subst->Apply(t);
    if (applied.is_variable()) open_vars.push_back(applied.variable());
  }
  std::sort(open_vars.begin(), open_vars.end());
  open_vars.erase(std::unique(open_vars.begin(), open_vars.end()),
                  open_vars.end());
  std::vector<SymbolId> candidates = domain_.GlobalCandidates();

  Dnf acc = Dnf::False();
  Status status = Status::Ok();
  size_t produced = 0;
  std::function<void(size_t)> enumerate = [&](size_t var_idx) {
    if (!status.ok()) return;
    if (var_idx == open_vars.size()) {
      if (++produced > options_.max_instantiations) {
        status = ResourceExhaustedError(
            StrCat("open derived event over '",
                   db_->symbols().NameOf(info->base_symbol), "' exceeded ",
                   options_.max_instantiations, " domain instantiations"));
        return;
      }
      Atom ground = subst->Apply(atom);
      Result<Dnf> sub =
          DownEvent(info->base_symbol, ground.args(), is_insert, depth + 1);
      if (!sub.ok()) {
        status = sub.status();
        return;
      }
      if (sub->IsFalse()) return;
      Result<Dnf> rest =
          DownBody(rule, subst, done, old_pred, check_not_old, depth);
      if (!rest.ok()) {
        status = rest.status();
        return;
      }
      Result<Dnf> combined =
          Dnf::And(*sub, *rest, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
      if (!combined.ok()) {
        status = combined.status();
        return;
      }
      Result<Dnf> merged =
          Dnf::Or(acc, *combined, possible, options_.max_disjuncts, options_.eval.guard, options_.eval.obs.metrics);
      if (!merged.ok()) {
        status = merged.status();
        return;
      }
      acc = std::move(*merged);
      return;
    }
    for (SymbolId candidate : candidates) {
      subst->Bind(open_vars[var_idx], Term::MakeConstant(candidate));
      enumerate(var_idx + 1);
      subst->Unbind(open_vars[var_idx]);
      if (!status.ok()) return;
    }
  };
  enumerate(0);
  DEDDB_RETURN_IF_ERROR(status);
  return acc;
}

}  // namespace deddb
