#ifndef DEDDB_EVAL_JOIN_PLAN_H_
#define DEDDB_EVAL_JOIN_PLAN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "datalog/rule.h"
#include "eval/fact_provider.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace deddb {

/// Which join operator a plan compiles to. Both produce the identical fact
/// set and the identical rule-firing count (a firing is a complete body
/// solution, which no join order can change); the differential plan oracle
/// (tests/join_planner_differential_test.cc) holds the engines to that.
enum class JoinStrategy {
  /// Selectivity-ordered: literals sorted by estimated matching rows under
  /// the bindings accumulated so far, index-or-scan access chosen per
  /// literal, bindings pushed into index probes.
  kPlanned,
  /// The tensorlogic-style baseline: textual literal order (negatives
  /// deferred only until ground), every positive literal a full scan with
  /// residual filtering, no bindings pushed into the probe. Kept as the
  /// oracle's second engine and for ablation benchmarks.
  kNaiveNestedLoop,
};

/// A compiled evaluation plan for one rule body: an execution order over the
/// body literals, a per-literal access path, and per-argument ops (constant
/// checks, bound-slot probes, slot bindings) over a flat row of variable
/// slots. A plan runs in one of two modes:
///  * Execute — block-at-a-time: each step maps a block of partial rows to
///    the next block in one pass, amortizing the per-tuple overhead across
///    whole blocks. Bottom-up evaluation and the upward interpreter's
///    event-rule bodies run here.
///  * ExecuteUntil — depth-first streaming: one partial row per step,
///    positive steps probed through ForEachMatchUntil, and the whole descent
///    unwinds as soon as the caller's emit returns false. Satisfiability
///    probes and lazy goal-directed queries run here, so lazily-evaluated
///    providers produce only what the join consumes.
///
/// A plan is immutable after Build and holds no provider state, so one plan
/// built on the orchestration thread can be executed concurrently by many
/// work items (each with its own providers) — this is how the parallel
/// evaluator shares one plan across delta slices.
class JoinPlan {
 public:
  /// Slot value meaning "not bound yet" (never a valid constant).
  static constexpr SymbolId kUnboundSlot = SymbolTable::kNoSymbol;

  struct Options {
    JoinStrategy strategy = JoinStrategy::kPlanned;
    /// Placed first regardless of strategy: semi-naive evaluation leads with
    /// the delta literal.
    std::optional<size_t> forced_first;
    /// Variables bound before execution starts (a partially instantiated
    /// goal); InitialRow fills their slots from head values.
    std::vector<VarId> initially_bound;
  };

  /// One execution step, in order. `access` is the build-time access-path
  /// choice with its value-independent row estimate; EXPLAIN pairs it with
  /// the actual rows from ExecStats.
  struct StepInfo {
    size_t literal = 0;  // body index
    bool negative = false;
    SymbolId predicate = 0;
    /// Columns (< Relation::kMaxMaskColumns) holding a constant or an
    /// already-bound variable when this step runs.
    Relation::Mask bound_mask = 0;
    Relation::AccessPath access;
  };

  /// Per-step actual row counts, accumulated by Execute (so slices of one
  /// plan sum into a single ExecStats at the merge). rows[i] counts the rows
  /// that survived step i.
  struct ExecStats {
    std::vector<size_t> rows;
  };

  /// Compiles a plan for `rule`. `provider_for(i)` supplies estimates and
  /// access descriptions for body literal i (the same shape Execute takes, so
  /// build and execution can use different providers — plans are built
  /// against the round-start state and run against slices of it).
  static Result<JoinPlan> Build(
      const Rule& rule,
      const std::function<const FactProvider&(size_t)>& provider_for,
      const Options& options);
  static Result<JoinPlan> Build(
      const Rule& rule,
      const std::function<const FactProvider&(size_t)>& provider_for) {
    return Build(rule, provider_for, Options());
  }

  /// Body indices in execution order.
  const std::vector<size_t>& order() const { return order_; }
  const std::vector<StepInfo>& steps() const { return steps_; }
  /// Distinct rule variables, in first-occurrence order; slot i of a row
  /// holds slot_vars()[i].
  const std::vector<VarId>& slot_vars() const { return slot_vars_; }

  /// Seeds `row` for a goal on the rule head: `head[j]` is the value of head
  /// argument j, or kUnboundSlot for an open argument. Every
  /// Options::initially_bound variable must get a value, and only they may.
  /// Returns false when the values cannot match the head (a head constant
  /// differs, or a repeated head variable gets two values): the rule derives
  /// nothing for that goal. Fails with kInvalidArgument on a wrong width or
  /// an initially-bound set the values do not cover exactly.
  Result<bool> InitialRow(const Tuple& head, std::vector<SymbolId>* row) const;

  /// Runs the plan block-at-a-time. `emit` is invoked once per complete body
  /// solution with the full slot row; use HeadTupleInto to decode it.
  /// Returns the number of emissions (the rule-firing count). `initial` must
  /// come from InitialRow (or be empty for no pre-bindings). When `guard` is
  /// non-null it is ticked per input row and per matched tuple, so a deadline
  /// or cancellation aborts a long join mid-block.
  Result<size_t> Execute(
      const std::function<const FactProvider&(size_t)>& provider_for,
      const std::function<void(const SymbolId* row)>& emit,
      const std::vector<SymbolId>& initial = {},
      const ResourceGuard* guard = nullptr, ExecStats* stats = nullptr) const;

  /// Runs the plan depth-first, streaming: `emit` gets each complete row as
  /// soon as it is found and returns false to stop the whole join. Returns
  /// whether it stopped early. `initial` and `guard` are as for Execute (the
  /// guard is ticked per partial row). `emit` runs while provider
  /// enumerations are live, so it must not mutate what the plan reads.
  Result<bool> ExecuteUntil(
      const std::function<const FactProvider&(size_t)>& provider_for,
      const std::function<bool(const SymbolId* row)>& emit,
      const std::vector<SymbolId>& initial = {},
      const ResourceGuard* guard = nullptr) const;

  /// Instantiates the rule head from a complete row into `out` (resized).
  void HeadTupleInto(const SymbolId* row, Tuple* out) const;
  SymbolId head_predicate() const { return head_predicate_; }

  /// Compact one-line rendering for EXPLAIN, e.g.
  ///   `Edge[scan ~12] -> Reaches[col1 ~3] -> !Blocked[key ~1]`
  /// (access in brackets: scan, col<i>, comp(<cols>), key, empty; `~N` is the
  /// estimated row count; `!` marks negated literals). Documented in
  /// DESIGN.md §6e.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  friend class BlockExecutor;
  friend class StreamExecutor;

  // Validates an `initial` row handed to Execute/ExecuteUntil.
  Status CheckInitial(const std::vector<SymbolId>& initial) const;

  // Per-argument compiled ops. Pattern ops fill the probe pattern before the
  // index lookup; check ops filter matches after bind ops ran; bind ops write
  // newly bound slots.
  struct PatternOp {
    size_t pos;
    bool from_slot;   // false: `value` is a constant
    size_t slot = 0;  // when from_slot
    SymbolId value = 0;
  };
  struct CheckOp {
    size_t pos;
    bool against_slot;  // false: compare to `value`
    size_t slot = 0;
    SymbolId value = 0;
  };
  struct BindOp {
    size_t pos;
    size_t slot;
  };

  struct Step {
    StepInfo info;
    std::vector<PatternOp> pattern_ops;
    std::vector<CheckOp> check_ops;
    std::vector<BindOp> bind_ops;
    size_t arity = 0;
  };

  // Head instantiation: constant, or copy from slot.
  struct HeadOp {
    bool from_slot;
    size_t slot = 0;
    SymbolId value = 0;
  };

  std::vector<size_t> order_;
  std::vector<Step> plan_steps_;
  std::vector<StepInfo> steps_;  // mirrors plan_steps_[i].info for observers
  std::vector<VarId> slot_vars_;
  std::vector<HeadOp> head_ops_;
  SymbolId head_predicate_ = 0;
  std::vector<size_t> initially_bound_slots_;
};

}  // namespace deddb

#endif  // DEDDB_EVAL_JOIN_PLAN_H_
