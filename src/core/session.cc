#include "core/session.h"

#include "util/strings.h"

namespace deddb {

SessionState::SessionState(std::shared_ptr<SessionRegistry> owner)
    : registry(std::move(owner)) {
  registry->live_versions.fetch_add(1, std::memory_order_relaxed);
}

SessionState::~SessionState() {
  // No metrics here, for the reason ~Session gives.
  registry->live_versions.fetch_sub(1, std::memory_order_relaxed);
}

Result<Atom> MakeAtomIn(const Database& db, std::string_view predicate,
                        std::vector<Term> args) {
  DEDDB_ASSIGN_OR_RETURN(SymbolId pred, db.FindPredicate(predicate));
  DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db.predicates().Get(pred));
  if (info.arity != args.size()) {
    return InvalidArgumentError(
        StrCat("predicate '", predicate, "' has arity ", info.arity, ", got ",
               args.size(), " arguments"));
  }
  return Atom(pred, std::move(args));
}

Session::Session(std::shared_ptr<const SessionState> state,
                 UpwardOptions upward, DownwardOptions downward)
    : state_(std::move(state)),
      upward_options_(upward),
      downward_options_(downward),
      view_(state_->db.get(), upward.eval) {
  state_->registry->active.fetch_add(1, std::memory_order_relaxed);
}

Session::~Session() {
  // No metrics here (determinism: destructors run at arbitrary times on
  // arbitrary threads); BeginSession reads the count.
  state_->registry->active.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t Session::version() const { return state_->version; }

const Database& Session::database() const { return *state_->db; }

Term Session::Constant(std::string_view name) const {
  return Term::MakeConstant(state_->db->symbols().Intern(name));
}

Term Session::Variable(std::string_view name) const {
  return Term::MakeVariable(state_->db->symbols().InternVar(name));
}

Result<Atom> Session::MakeAtom(std::string_view predicate,
                               std::vector<Term> args) const {
  return MakeAtomIn(*state_->db, predicate, std::move(args));
}

Result<Atom> Session::GroundAtom(
    std::string_view predicate,
    std::vector<std::string_view> constants) const {
  std::vector<Term> args;
  args.reserve(constants.size());
  for (std::string_view c : constants) args.push_back(Constant(c));
  return MakeAtom(predicate, std::move(args));
}

Result<bool> Session::Holds(const Atom& ground_atom) const {
  return view_.Holds(ground_atom);
}

Result<std::vector<Tuple>> Session::Solve(const Atom& pattern) const {
  return view_.Query(pattern);
}

void Session::set_resource_guard(const ResourceGuard* guard) {
  upward_options_.eval.guard = guard;
  downward_options_.eval.guard = guard;
  view_.set_guard(guard);
}

Result<bool> Session::IsConsistent() const {
  DEDDB_ASSIGN_OR_RETURN(
      bool violated, problems::IcHolds(*state_->db, upward_options_.eval));
  return !violated;
}

Result<const CompiledEvents*> Session::Compiled() const {
  if (state_->compiled == nullptr) {
    if (state_->compile_status.ok()) {
      return InternalError("session snapshot has no event compilation");
    }
    return state_->compile_status;
  }
  return state_->compiled.get();
}

const ActiveDomain& Session::Domain() const {
  const SessionState& state = *state_;
  std::call_once(state.domain_once, [&state] {
    state.domain.emplace(*state.db);
    for (SymbolId c : state.extra_domain_constants) state.domain->AddExtra(c);
  });
  return *state.domain;
}

Result<problems::IntegrityCheckResult> Session::CheckIntegrity(
    const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckIntegrity(*state_->db, *compiled, transaction,
                                  upward_options_);
}

Result<problems::ConsistencyRestorationResult>
Session::CheckConsistencyRestored(const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckConsistencyRestored(*state_->db, *compiled,
                                            transaction, upward_options_);
}

Result<problems::ConditionChanges> Session::MonitorConditions(
    const Transaction& transaction,
    const std::vector<SymbolId>& conditions) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::MonitorConditions(*state_->db, *compiled, transaction,
                                     conditions, upward_options_);
}

Result<DerivedEvents> Session::InducedEvents(
    const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  UpwardInterpreter upward(state_->db.get(), compiled, upward_options_);
  return upward.InducedEvents(transaction);
}

Result<problems::DownwardResult> Session::TranslateViewUpdate(
    const UpdateRequest& request) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::TranslateViewUpdate(*state_->db, *compiled, Domain(),
                                       request, downward_options_);
}

Result<bool> Session::CheckSatisfiability() const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckSatisfiability(*state_->db, *compiled, Domain(),
                                       downward_options_);
}

}  // namespace deddb
