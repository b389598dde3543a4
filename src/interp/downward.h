#ifndef DEDDB_INTERP_DOWNWARD_H_
#define DEDDB_INTERP_DOWNWARD_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/substitution.h"
#include "events/event_compiler.h"
#include "interp/dnf.h"
#include "interp/domain.h"
#include "interp/old_state.h"
#include "util/status.h"

namespace deddb {

/// One requested event in a downward problem: `ιP(args)` / `δP(args)`,
/// possibly negated (negative events are requirements: the change must NOT
/// be induced — used by preventing-side-effects and maintenance problems).
/// `args` may contain variables; an open request means "for some instance"
/// when positive and "for no instance" when negative (paper §5.2.2: "we have
/// to take into account all possible values of X").
struct RequestedEvent {
  bool positive = true;
  bool is_insert = true;
  SymbolId predicate = 0;  // kOld symbol, base or derived
  std::vector<Term> args;

  std::string ToString(const SymbolTable& symbols) const;
};

/// A set of requested events, interpreted conjunctively (§4.2: "the downward
/// interpretation of a set of event facts is ... the logical conjunction of
/// the result of downward interpreting each event in the set").
struct UpdateRequest {
  std::vector<RequestedEvent> events;

  std::string ToString(const SymbolTable& symbols) const;
};

struct DownwardOptions {
  /// Maximum derived-event recursion depth.
  size_t max_depth = 64;
  /// Maximum number of disjuncts a DNF may reach.
  size_t max_disjuncts = 4096;
  /// Cap on active-domain instantiations for a single open event literal.
  size_t max_instantiations = 4096;
  EvaluationOptions eval;
};

struct DownwardStats {
  size_t branches_explored = 0;
  size_t old_state_queries = 0;
  size_t negations = 0;
  size_t domain_enumerations = 0;
};

/// The downward interpretation of the event rules (paper §4.2): given
/// requested changes on derived predicates, computes the disjunctive normal
/// form whose disjuncts are the alternative sets of base fact updates
/// (possible transactions plus requirements) that satisfy them.
class DownwardInterpreter {
 public:
  /// All pointers must outlive the interpreter; `compiled` must come from an
  /// EventCompiler over `db`; `domain` supplies instantiation candidates.
  DownwardInterpreter(const Database* db, const CompiledEvents* compiled,
                      const ActiveDomain* domain,
                      DownwardOptions options = {});

  /// Downward-interprets the whole request (conjunction of its events).
  Result<Dnf> Interpret(const UpdateRequest& request);

  /// Downward-interprets a single requested event.
  Result<Dnf> InterpretEvent(const RequestedEvent& event);

  const DownwardStats& stats() const { return stats_; }

  /// The event-possibility test (eqs. 1-2) against the current state;
  /// exposed so callers can normalize DNFs consistently.
  EventPossibleFn possible_fn() const;

 private:
  // Interpret() minus the span/metrics envelope.
  Result<Dnf> InterpretImpl(const UpdateRequest& request);
  // ιP/δP with (possibly open) args; dispatches on base vs derived.
  Result<Dnf> DownEvent(SymbolId pred, const std::vector<Term>& args,
                        bool is_insert, size_t depth);
  Result<Dnf> DownBaseEvent(SymbolId pred, const std::vector<Term>& args,
                            bool is_insert);
  // Downward interpretation of Pⁿ(args): disjunction over transition rules.
  // When `check_not_old` is true every completed branch additionally
  // requires ¬P⁰ of the final head instance (the insertion event rule's
  // second conjunct); `old_pred` names P for that check.
  Result<Dnf> DownNew(SymbolId new_sym, SymbolId old_pred,
                      const std::vector<Term>& args, bool check_not_old,
                      size_t depth);
  // Search over one transition-rule body.
  Result<Dnf> DownBody(const Rule& rule, Substitution* subst,
                       std::vector<bool>* done, SymbolId old_pred,
                       bool check_not_old, size_t depth);

  const Database* db_;
  const CompiledEvents* compiled_;
  // Per-request working copy of the caller's domain: Interpret() extends it
  // with the request's constants, so alternatives (and negations!) range
  // over them even when they do not occur in the database yet.
  ActiveDomain domain_;
  DownwardOptions options_;
  DownwardStats stats_;
  OldStateView old_state_;
  // Fresh-variable counter for renaming transition rules apart; ids start
  // far above interned variables and never escape one interpretation.
  VarId next_rename_var_ = 0x20000000;

  // Memo of ground DownEvent results (key: predicate, is_insert, tuple).
  // Valid for one Interpret call: cleared on entry because the working
  // domain may have grown.
  struct GroundEventKey {
    SymbolId predicate;
    bool is_insert;
    Tuple tuple;
    bool operator==(const GroundEventKey& other) const {
      return predicate == other.predicate && is_insert == other.is_insert &&
             tuple == other.tuple;
    }
  };
  struct GroundEventKeyHash {
    size_t operator()(const GroundEventKey& key) const {
      size_t seed = key.is_insert ? 0x2545f491u : 0x9e3779b9u;
      HashCombine(seed, key.predicate);
      for (SymbolId c : key.tuple) HashCombine(seed, c);
      return seed;
    }
  };
  std::unordered_map<GroundEventKey, Dnf, GroundEventKeyHash> event_memo_;
};

}  // namespace deddb

#endif  // DEDDB_INTERP_DOWNWARD_H_
