#ifndef DEDDB_DATALOG_UNIFY_H_
#define DEDDB_DATALOG_UNIFY_H_

#include <optional>

#include "datalog/atom.h"
#include "datalog/substitution.h"

namespace deddb {

/// Attempts to unify two atoms, extending `subst` in place. Returns false
/// (leaving `subst` in an unspecified extended state — callers should discard
/// it) if the atoms do not unify. There are no function symbols, so no occurs
/// check is needed.
bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst);

/// One-sided matching of `pattern`'s arguments against a stored tuple:
/// extends `subst` so that pattern's arguments equal `tuple` under it.
/// Returns false if no match (including an arity mismatch).
bool MatchAtomAgainstTuple(const Atom& pattern,
                           const std::vector<SymbolId>& tuple,
                           Substitution* subst);

}  // namespace deddb

#endif  // DEDDB_DATALOG_UNIFY_H_
