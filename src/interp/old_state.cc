#include "interp/old_state.h"

#include <utility>

#include "datalog/unify.h"

namespace deddb {

namespace {

// Variable ids used to build query atoms for open pattern positions. These
// are never interned and never escape a single query.
constexpr VarId kScratchVarBase = 0x60000000;

Atom PatternToAtom(SymbolId predicate, const TuplePattern& pattern) {
  std::vector<Term> args;
  args.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i].has_value()) {
      args.push_back(Term::MakeConstant(*pattern[i]));
    } else {
      args.push_back(Term::MakeVariable(kScratchVarBase +VarId(i)));
    }
  }
  return Atom(predicate, std::move(args));
}

}  // namespace

OldStateView::OldStateView(const Database* db, EvaluationOptions options)
    : db_(db) {
  edb_provider_ = std::make_unique<FactStoreProvider>(&db_->facts());
  engine_ = std::make_unique<QueryEngine>(db_->program(), db_->symbols(),
                                          *edb_provider_, options);
}

void OldStateView::Invalidate() {
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  engine_->InvalidateCache();
}

void OldStateView::set_guard(const ResourceGuard* guard) {
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  engine_->set_guard(guard);
}

void OldStateView::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return;
  if (info->kind == PredicateKind::kBase) {
    edb_provider_->ForEachMatch(predicate, pattern, fn);
    return;
  }
  if (db_->IsMaterialized(predicate)) {
    const Relation* rel = db_->materialized_store().Find(predicate);
    if (rel != nullptr) rel->ForEachMatch(pattern, fn);
    return;
  }
  Result<std::vector<Tuple>> result = [&]() -> Result<std::vector<Tuple>> {
    std::lock_guard<std::recursive_mutex> lock(engine_mu_);
    if (!error_.ok()) return std::vector<Tuple>{};
    return Record(engine_->SolvePattern(PatternToAtom(predicate, pattern)));
  }();
  if (!result.ok()) return;  // kept for TakeError
  for (const Tuple& t : *result) fn(t);
}

bool OldStateView::ForEachMatchUntil(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<bool(const Tuple&)>& fn) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return false;
  if (info->kind == PredicateKind::kDerived &&
      !db_->IsMaterialized(predicate)) {
    // Stream solutions lazily through the engine; recursion falls back to
    // the strict path.
    std::lock_guard<std::recursive_mutex> lock(engine_mu_);
    if (!error_.ok()) return false;
    Result<bool> stopped = Record(
        engine_->SolveLazyPattern(PatternToAtom(predicate, pattern), fn));
    return stopped.ok() && *stopped;
  }
  return FactProvider::ForEachMatchUntil(predicate, pattern, fn);
}

bool OldStateView::Contains(SymbolId predicate, const Tuple& tuple) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return false;
  if (info->kind == PredicateKind::kBase) {
    return db_->facts().Contains(predicate, tuple);
  }
  if (db_->IsMaterialized(predicate)) {
    return db_->materialized_store().Contains(predicate, tuple);
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  if (!error_.ok()) return false;
  Result<bool> holds = Record(engine_->Holds(AtomFromTuple(predicate, tuple)));
  return holds.ok() && *holds;
}

Status OldStateView::TakeError() const {
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  return std::exchange(error_, Status::Ok());
}

size_t OldStateView::EstimateCount(SymbolId predicate) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return 0;
  if (info->kind == PredicateKind::kBase) {
    return edb_provider_->EstimateCount(predicate);
  }
  if (db_->IsMaterialized(predicate)) {
    const Relation* rel = db_->materialized_store().Find(predicate);
    return rel == nullptr ? 0 : rel->size();
  }
  return kUnknownCount;
}

Result<bool> OldStateView::Holds(const Atom& ground_atom) const {
  const PredicateInfo* info =
      db_->predicates().Find(ground_atom.predicate());
  if (info == nullptr) return false;
  if (info->kind == PredicateKind::kBase) {
    return db_->facts().Contains(ground_atom);
  }
  if (db_->IsMaterialized(ground_atom.predicate())) {
    return db_->materialized_store().Contains(ground_atom);
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  return engine_->Holds(ground_atom);
}

Result<std::vector<Tuple>> OldStateView::Query(const Atom& pattern) const {
  const PredicateInfo* info = db_->predicates().Find(pattern.predicate());
  if (info != nullptr && info->kind == PredicateKind::kDerived &&
      db_->IsMaterialized(pattern.predicate())) {
    TuplePattern tp(pattern.arity());
    for (size_t i = 0; i < pattern.arity(); ++i) {
      if (pattern.args()[i].is_constant()) {
        tp[i] = pattern.args()[i].constant();
      }
    }
    std::vector<Tuple> out;
    const Relation* rel = db_->materialized_store().Find(pattern.predicate());
    if (rel != nullptr) {
      rel->ForEachMatch(tp, [&](const Tuple& t) {
        Substitution subst;
        if (MatchAtomAgainstTuple(pattern, t, &subst)) out.push_back(t);
      });
    }
    return out;
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  return engine_->SolvePattern(pattern);
}

}  // namespace deddb
