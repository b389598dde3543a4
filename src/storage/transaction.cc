#include "storage/transaction.h"

#include <algorithm>

#include "util/strings.h"

namespace deddb {

Status Transaction::AddInsert(SymbolId predicate, const Tuple& tuple) {
  if (deletes_.Contains(predicate, tuple)) {
    return InvalidArgumentError(
        "transaction already contains the opposite deletion event for this "
        "fact");
  }
  inserts_.Add(predicate, tuple);
  return Status::Ok();
}

Status Transaction::AddInsert(const Atom& ground_atom) {
  return AddInsert(ground_atom.predicate(), TupleFromAtom(ground_atom));
}

Status Transaction::AddDelete(SymbolId predicate, const Tuple& tuple) {
  if (inserts_.Contains(predicate, tuple)) {
    return InvalidArgumentError(
        "transaction already contains the opposite insertion event for this "
        "fact");
  }
  deletes_.Add(predicate, tuple);
  return Status::Ok();
}

Status Transaction::AddDelete(const Atom& ground_atom) {
  return AddDelete(ground_atom.predicate(), TupleFromAtom(ground_atom));
}

void Transaction::Clear() {
  inserts_.Clear();
  deletes_.Clear();
}

Status Transaction::Merge(const Transaction& other) {
  Status status = Status::Ok();
  other.inserts_.ForEach([&](SymbolId pred, const Tuple& t) {
    if (status.ok()) {
      Status s = AddInsert(pred, t);
      if (!s.ok()) status = s;
    }
  });
  other.deletes_.ForEach([&](SymbolId pred, const Tuple& t) {
    if (status.ok()) {
      Status s = AddDelete(pred, t);
      if (!s.ok()) status = s;
    }
  });
  return status;
}

Status Transaction::Validate(const FactStore& current_state,
                             const PredicateTable& predicates) const {
  const SymbolTable& symbols = *predicates.symbols();
  Status status = Status::Ok();
  inserts_.ForEach([&](SymbolId pred, const Tuple& t) {
    if (status.ok() && current_state.Contains(pred, t)) {
      status = FailedPreconditionError(
          StrCat("insertion event for ", symbols.NameOf(pred),
                 TupleToString(t, symbols),
                 " is not a valid event: the fact already holds (eq. 1)"));
    }
  });
  deletes_.ForEach([&](SymbolId pred, const Tuple& t) {
    if (status.ok() && !current_state.Contains(pred, t)) {
      status = FailedPreconditionError(
          StrCat("deletion event for ", symbols.NameOf(pred),
                 TupleToString(t, symbols),
                 " is not a valid event: the fact does not hold (eq. 2)"));
    }
  });
  return status;
}

FactStore Transaction::ApplyTo(const FactStore& current_state) const {
  FactStore new_state = current_state;
  deletes_.ForEach(
      [&](SymbolId pred, const Tuple& t) { new_state.Remove(pred, t); });
  inserts_.ForEach(
      [&](SymbolId pred, const Tuple& t) { new_state.Add(pred, t); });
  return new_state;
}

std::string Transaction::ToString(const SymbolTable& symbols) const {
  std::vector<std::string> parts;
  inserts_.ForEach([&](SymbolId pred, const Tuple& t) {
    parts.push_back(
        StrCat("ins ", AtomFromTuple(pred, t).ToString(symbols)));
  });
  deletes_.ForEach([&](SymbolId pred, const Tuple& t) {
    parts.push_back(
        StrCat("del ", AtomFromTuple(pred, t).ToString(symbols)));
  });
  std::sort(parts.begin(), parts.end());
  return StrCat("{", Join(parts, ", "), "}");
}

}  // namespace deddb
