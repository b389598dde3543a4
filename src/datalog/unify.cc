#include "datalog/unify.h"

namespace deddb {

namespace {

bool UnifyTerms(const Term& a, const Term& b, Substitution* subst) {
  Term ra = subst->Apply(a);
  Term rb = subst->Apply(b);
  if (ra == rb) return true;
  if (ra.is_variable()) {
    subst->Bind(ra.variable(), rb);
    return true;
  }
  if (rb.is_variable()) {
    subst->Bind(rb.variable(), ra);
    return true;
  }
  return false;  // two distinct constants
}

}  // namespace

bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst) {
  if (a.predicate() != b.predicate() || a.arity() != b.arity()) return false;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (!UnifyTerms(a.args()[i], b.args()[i], subst)) return false;
  }
  return true;
}

bool MatchAtomAgainstTuple(const Atom& pattern,
                           const std::vector<SymbolId>& tuple,
                           Substitution* subst) {
  if (pattern.arity() != tuple.size()) return false;
  for (size_t i = 0; i < pattern.arity(); ++i) {
    Term p = subst->Apply(pattern.args()[i]);
    if (p.is_variable()) {
      subst->Bind(p.variable(), Term::MakeConstant(tuple[i]));
    } else if (p.constant() != tuple[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace deddb
