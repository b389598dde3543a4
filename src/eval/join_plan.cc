#include "eval/join_plan.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace deddb {

namespace {

// Blocks are row-major flat arrays; `rows` is explicit because zero-variable
// rules have width 0.
struct Block {
  std::vector<SymbolId> data;
  size_t rows = 0;

  void Clear() {
    data.clear();
    rows = 0;
  }
};

bool MaskableColumn(size_t pos) { return pos < Relation::kMaxMaskColumns; }

}  // namespace

Result<JoinPlan> JoinPlan::Build(
    const Rule& rule,
    const std::function<const FactProvider&(size_t)>& provider_for,
    const Options& options) {
  JoinPlan plan;
  plan.head_predicate_ = rule.head().predicate();
  plan.slot_vars_ = rule.DistinctVariables();
  std::unordered_map<VarId, size_t> slot_of;
  slot_of.reserve(plan.slot_vars_.size());
  for (size_t i = 0; i < plan.slot_vars_.size(); ++i) {
    slot_of.emplace(plan.slot_vars_[i], i);
  }

  std::vector<bool> bound(plan.slot_vars_.size(), false);
  for (VarId v : options.initially_bound) {
    auto it = slot_of.find(v);
    if (it == slot_of.end()) continue;  // not a variable of this rule
    if (!bound[it->second]) {
      bound[it->second] = true;
      plan.initially_bound_slots_.push_back(it->second);
    }
  }
  const std::vector<bool> initially_bound = bound;

  const std::vector<Literal>& body = rule.body();

  auto mark_bound = [&](const Atom& atom) {
    for (const Term& t : atom.args()) {
      if (t.is_variable()) bound[slot_of.at(t.variable())] = true;
    }
  };
  auto is_ground = [&](const Atom& atom) {
    for (const Term& t : atom.args()) {
      if (t.is_variable() && !bound[slot_of.at(t.variable())]) return false;
    }
    return true;
  };
  auto mask_of = [&](const Atom& atom) {
    Relation::Mask mask = 0;
    for (size_t j = 0; j < atom.arity(); ++j) {
      const Term& t = atom.args()[j];
      bool is_bound =
          t.is_constant() || bound[slot_of.at(t.variable())];
      if (is_bound && MaskableColumn(j)) mask |= Relation::Mask{1} << j;
    }
    return mask;
  };
  auto bound_args = [&](const Atom& atom) {
    size_t n = 0;
    for (const Term& t : atom.args()) {
      if (t.is_constant() || bound[slot_of.at(t.variable())]) ++n;
    }
    return n;
  };
  auto unbound_vars = [&](const Atom& atom) {
    std::unordered_set<VarId> vars;
    for (const Term& t : atom.args()) {
      if (t.is_variable() && !bound[slot_of.at(t.variable())]) {
        vars.insert(t.variable());
      }
    }
    return vars.size();
  };

  // ---- Ordering -----------------------------------------------------------
  std::vector<size_t>& order = plan.order_;
  std::vector<bool> used(body.size(), false);
  order.reserve(body.size());
  if (options.forced_first.has_value()) {
    assert(*options.forced_first < body.size());
    size_t f = *options.forced_first;
    order.push_back(f);
    used[f] = true;
    mark_bound(body[f].atom());
  }
  while (order.size() < body.size()) {
    size_t pick = body.size();
    if (options.strategy == JoinStrategy::kNaiveNestedLoop) {
      // Textual order; a negative literal waits only until it is ground.
      for (size_t i = 0; i < body.size() && pick == body.size(); ++i) {
        if (used[i]) continue;
        if (body[i].positive() || is_ground(body[i].atom())) pick = i;
      }
    } else {
      // Ground negatives are free filters: take the first one.
      for (size_t i = 0; i < body.size() && pick == body.size(); ++i) {
        if (!used[i] && body[i].negative() && is_ground(body[i].atom())) {
          pick = i;
        }
      }
      if (pick == body.size()) {
        // Cheapest positive by estimated matching rows under the current
        // bindings; ties favor more bound arguments, then fewer unbound
        // variables, then the lowest body index (strict-improvement scan).
        size_t best_cost = 0, best_bound = 0, best_unbound = 0;
        for (size_t i = 0; i < body.size(); ++i) {
          if (used[i] || body[i].negative()) continue;
          const Atom& atom = body[i].atom();
          size_t cost = provider_for(i).EstimateMatches(atom.predicate(),
                                                        mask_of(atom));
          size_t b = bound_args(atom);
          size_t u = unbound_vars(atom);
          if (pick == body.size() || cost < best_cost ||
              (cost == best_cost &&
               (b > best_bound || (b == best_bound && u < best_unbound)))) {
            pick = i;
            best_cost = cost;
            best_bound = b;
            best_unbound = u;
          }
        }
      }
    }
    if (pick == body.size()) {
      return InternalError(
          "no safe evaluation order: negative literal with unbound "
          "variables (rule bypassed allowedness validation?)");
    }
    used[pick] = true;
    order.push_back(pick);
    mark_bound(body[pick].atom());
  }
  // Reset binding state for compilation below.
  bound = initially_bound;

  // ---- Step compilation ---------------------------------------------------
  const bool naive = options.strategy == JoinStrategy::kNaiveNestedLoop;
  for (size_t idx : order) {
    const Literal& lit = body[idx];
    const Atom& atom = lit.atom();
    Step step;
    step.arity = atom.arity();
    step.info.literal = idx;
    step.info.negative = lit.negative();
    step.info.predicate = atom.predicate();
    step.info.bound_mask = mask_of(atom);
    std::unordered_set<size_t> newly_bound;  // slots bound earlier in this atom
    for (size_t j = 0; j < atom.arity(); ++j) {
      const Term& t = atom.args()[j];
      if (t.is_constant()) {
        if (naive && lit.positive()) {
          step.check_ops.push_back(CheckOp{j, false, 0, t.constant()});
        } else {
          step.pattern_ops.push_back(PatternOp{j, false, 0, t.constant()});
        }
        continue;
      }
      size_t slot = slot_of.at(t.variable());
      if (bound[slot]) {
        if (naive && lit.positive()) {
          step.check_ops.push_back(CheckOp{j, true, slot, 0});
        } else {
          step.pattern_ops.push_back(PatternOp{j, true, slot, 0});
        }
      } else {
        if (lit.negative()) {
          return InternalError(
              "negative literal reached with unbound variables during body "
              "evaluation");
        }
        if (newly_bound.insert(slot).second) {
          step.bind_ops.push_back(BindOp{j, slot});
        } else {
          // Repeated fresh variable within one atom: the bind op wrote the
          // slot, later occurrences check against it.
          step.check_ops.push_back(CheckOp{j, true, slot, 0});
        }
      }
    }
    // Access path: negatives are always a ground membership probe; naive
    // positives are always a filtered scan; planned positives ask the
    // provider what the probe pattern will hit.
    if (lit.negative()) {
      step.info.access.kind = Relation::AccessPath::Kind::kKeyLookup;
      step.info.access.estimated_rows = 1;
    } else if (naive) {
      step.info.access.kind = Relation::AccessPath::Kind::kScan;
      step.info.access.estimated_rows =
          provider_for(idx).EstimateCount(atom.predicate());
    } else {
      step.info.access = provider_for(idx).DescribeAccess(
          atom.predicate(), step.info.bound_mask);
    }
    if (lit.positive()) mark_bound(atom);
    plan.steps_.push_back(step.info);
    plan.plan_steps_.push_back(std::move(step));
  }

  // ---- Head template ------------------------------------------------------
  for (const Term& t : rule.head().args()) {
    if (t.is_constant()) {
      plan.head_ops_.push_back(HeadOp{false, 0, t.constant()});
    } else {
      auto it = slot_of.find(t.variable());
      if (it == slot_of.end() || !bound[it->second]) {
        return InternalError(
            "head variable not bound by the body (rule bypassed allowedness "
            "validation?)");
      }
      plan.head_ops_.push_back(HeadOp{true, it->second, 0});
    }
  }
  return plan;
}

Result<bool> JoinPlan::InitialRow(const Tuple& head,
                                  std::vector<SymbolId>* row) const {
  if (head.size() != head_ops_.size()) {
    return InvalidArgumentError("head values do not match the head arity");
  }
  row->assign(slot_vars_.size(), kUnboundSlot);
  for (size_t j = 0; j < head.size(); ++j) {
    if (head[j] == kUnboundSlot) continue;
    const HeadOp& op = head_ops_[j];
    if (!op.from_slot) {
      if (op.value != head[j]) return false;
      continue;
    }
    SymbolId& slot = (*row)[op.slot];
    if (slot != kUnboundSlot && slot != head[j]) return false;
    slot = head[j];
  }
  size_t seeded = 0;
  for (SymbolId value : *row) seeded += value != kUnboundSlot;
  for (size_t slot : initially_bound_slots_) {
    if ((*row)[slot] == kUnboundSlot) {
      return InvalidArgumentError(
          "initially-bound variable gets no value from the head");
    }
  }
  if (seeded != initially_bound_slots_.size()) {
    return InvalidArgumentError(
        "head value given for a variable the plan does not bind initially");
  }
  return true;
}

void JoinPlan::HeadTupleInto(const SymbolId* row, Tuple* out) const {
  out->clear();
  out->reserve(head_ops_.size());
  for (const HeadOp& op : head_ops_) {
    out->push_back(op.from_slot ? row[op.slot] : op.value);
  }
}

Status JoinPlan::CheckInitial(const std::vector<SymbolId>& initial) const {
  if (initial.empty() && !initially_bound_slots_.empty()) {
    return InvalidArgumentError(
        "plan has initially-bound variables but got no initial row (use "
        "InitialRow)");
  }
  if (!initial.empty() && initial.size() != slot_vars_.size()) {
    return InvalidArgumentError("initial row width does not match plan");
  }
  return Status::Ok();
}

// Block-at-a-time interpreter for one Execute call. Per step it keeps an
// output block, a reusable probe pattern (constants pre-filled), and one
// persistent match callback, so the per-row cost is slot copies plus the
// provider probe — no substitution maps, no atom rewrites, no per-row
// allocations. Blocks flush downstream at kFlushRows, which bounds memory at
// O(#steps x kFlushRows x width) while keeping whole-block amortization.
// Flushes happen only between input rows, so a provider enumeration is never
// live while emissions run user code (which may mutate the stores the next
// probe reads — the serial evaluator derives into the idb mid-round).
class BlockExecutor {
 public:
  BlockExecutor(const JoinPlan& plan,
                const std::function<const FactProvider&(size_t)>& provider_for,
                const std::function<void(const SymbolId* row)>& emit,
                const ResourceGuard* guard, JoinPlan::ExecStats* stats)
      : plan_(plan),
        provider_for_(provider_for),
        emit_(emit),
        guard_(guard),
        stats_(stats),
        width_(plan.slot_vars_.size()) {}

  Result<size_t> Run(const std::vector<SymbolId>& initial) {
    const auto& steps = plan_.plan_steps_;
    DEDDB_RETURN_IF_ERROR(plan_.CheckInitial(initial));
    states_.resize(steps.size());
    rows_after_.assign(steps.size(), 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      StepState& st = states_[i];
      const JoinPlan::Step& step = steps[i];
      st.pattern.assign(step.arity, std::nullopt);
      for (const JoinPlan::PatternOp& op : step.pattern_ops) {
        if (!op.from_slot) st.pattern[op.pos] = op.value;
      }
      st.callback = [this, i](const Tuple& t) { OnMatch(i, t); };
    }

    Block root;
    root.rows = 1;
    root.data = initial.empty() ? std::vector<SymbolId>(width_, 0) : initial;
    RunFrom(0, root);
    if (!error_.ok()) return error_;
    if (stats_ != nullptr) {
      if (stats_->rows.size() != rows_after_.size()) {
        stats_->rows.assign(rows_after_.size(), 0);
      }
      for (size_t i = 0; i < rows_after_.size(); ++i) {
        stats_->rows[i] += rows_after_[i];
      }
    }
    return emissions_;
  }

 private:
  // Rows per output block before it is flushed downstream. A single probe's
  // matches always land in one block, so blocks can overshoot by one probe.
  static constexpr size_t kFlushRows = 4096;

  struct StepState {
    Block out;
    TuplePattern pattern;
    Tuple probe;                 // scratch for negative ground probes
    const SymbolId* cur_row = nullptr;
    std::function<void(const Tuple&)> callback;
  };

  void RunFrom(size_t step_idx, Block& input) {
    if (!error_.ok() || input.rows == 0) return;
    const auto& steps = plan_.plan_steps_;
    if (step_idx == steps.size()) {
      for (size_t r = 0; r < input.rows; ++r) {
        if (!error_.ok()) return;
        ++emissions_;
        emit_(input.data.data() + r * width_);
      }
      return;
    }
    const JoinPlan::Step& step = steps[step_idx];
    StepState& st = states_[step_idx];
    const FactProvider& provider = provider_for_(step.info.literal);
    st.out.Clear();
    for (size_t r = 0; r < input.rows; ++r) {
      if (!error_.ok()) return;
      if (guard_ != nullptr) {
        Status ticked = guard_->CheckTick();
        if (!ticked.ok()) {
          error_ = std::move(ticked);
          return;
        }
      }
      const SymbolId* row = input.data.data() + r * width_;
      if (step.info.negative) {
        st.probe.resize(step.arity);
        for (const JoinPlan::PatternOp& op : step.pattern_ops) {
          st.probe[op.pos] = op.from_slot ? row[op.slot] : op.value;
        }
        if (!provider.Contains(step.info.predicate, st.probe)) {
          st.out.data.insert(st.out.data.end(), row, row + width_);
          ++st.out.rows;
          ++rows_after_[step_idx];
        }
      } else {
        for (const JoinPlan::PatternOp& op : step.pattern_ops) {
          if (op.from_slot) st.pattern[op.pos] = row[op.slot];
        }
        st.cur_row = row;
        provider.ForEachMatch(step.info.predicate, st.pattern, st.callback);
      }
      if (st.out.rows >= kFlushRows) {
        RunFrom(step_idx + 1, st.out);
        st.out.Clear();
        if (!error_.ok()) return;
      }
    }
    RunFrom(step_idx + 1, st.out);
    st.out.Clear();
  }

  void OnMatch(size_t step_idx, const Tuple& t) {
    if (!error_.ok()) return;
    if (guard_ != nullptr) {
      Status ticked = guard_->CheckTick();
      if (!ticked.ok()) {
        error_ = std::move(ticked);
        return;
      }
    }
    const JoinPlan::Step& step = plan_.plan_steps_[step_idx];
    StepState& st = states_[step_idx];
    size_t base = st.out.data.size();
    st.out.data.insert(st.out.data.end(), st.cur_row, st.cur_row + width_);
    SymbolId* out_row = st.out.data.data() + base;
    for (const JoinPlan::BindOp& op : step.bind_ops) {
      out_row[op.slot] = t[op.pos];
    }
    for (const JoinPlan::CheckOp& op : step.check_ops) {
      SymbolId want = op.against_slot ? out_row[op.slot] : op.value;
      if (t[op.pos] != want) {
        st.out.data.resize(base);  // reject: drop the trial row
        return;
      }
    }
    ++st.out.rows;
    ++rows_after_[step_idx];
  }

  const JoinPlan& plan_;
  const std::function<const FactProvider&(size_t)>& provider_for_;
  const std::function<void(const SymbolId* row)>& emit_;
  const ResourceGuard* guard_;
  JoinPlan::ExecStats* stats_;
  const size_t width_;
  std::vector<StepState> states_;
  std::vector<size_t> rows_after_;
  size_t emissions_ = 0;
  Status error_;
};

Result<size_t> JoinPlan::Execute(
    const std::function<const FactProvider&(size_t)>& provider_for,
    const std::function<void(const SymbolId* row)>& emit,
    const std::vector<SymbolId>& initial, const ResourceGuard* guard,
    ExecStats* stats) const {
  BlockExecutor executor(*this, provider_for, emit, guard, stats);
  return executor.Run(initial);
}

// Depth-first interpreter for one ExecuteUntil call. Row i (in one flat
// buffer) holds the partial row entering step i; each positive step streams
// its matches through ForEachMatchUntil with a persistent per-step callback,
// which writes row i+1 and descends. Returning false from any callback
// unwinds the whole descent, so a lazy provider stops producing at once.
class StreamExecutor {
 public:
  StreamExecutor(const JoinPlan& plan,
                 const std::function<const FactProvider&(size_t)>& provider_for,
                 const std::function<bool(const SymbolId* row)>& emit,
                 const ResourceGuard* guard)
      : plan_(plan),
        provider_for_(provider_for),
        emit_(emit),
        guard_(guard),
        width_(plan.slot_vars_.size()) {}

  Result<bool> Run(const std::vector<SymbolId>& initial) {
    const auto& steps = plan_.plan_steps_;
    DEDDB_RETURN_IF_ERROR(plan_.CheckInitial(initial));
    rows_.assign((steps.size() + 1) * width_, JoinPlan::kUnboundSlot);
    std::copy(initial.begin(), initial.end(), rows_.begin());
    states_.resize(steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      StepState& st = states_[i];
      st.pattern.assign(steps[i].arity, std::nullopt);
      for (const JoinPlan::PatternOp& op : steps[i].pattern_ops) {
        if (!op.from_slot) st.pattern[op.pos] = op.value;
      }
      st.callback = [this, i](const Tuple& t) { return OnMatch(i, t); };
    }
    Descend(0);
    if (!error_.ok()) return error_;
    return stopped_;
  }

 private:
  struct StepState {
    TuplePattern pattern;
    Tuple probe;  // scratch for negative ground probes
    std::function<bool(const Tuple&)> callback;
  };

  SymbolId* Row(size_t step_idx) { return rows_.data() + step_idx * width_; }

  // Runs steps step_idx.. on Row(step_idx); false unwinds the descent.
  bool Descend(size_t step_idx) {
    if (guard_ != nullptr) {
      Status ticked = guard_->CheckTick();
      if (!ticked.ok()) {
        error_ = std::move(ticked);
        return false;
      }
    }
    const SymbolId* row = Row(step_idx);
    const auto& steps = plan_.plan_steps_;
    if (step_idx == steps.size()) {
      stopped_ = !emit_(row);
      return !stopped_;
    }
    const JoinPlan::Step& step = steps[step_idx];
    StepState& st = states_[step_idx];
    const FactProvider& provider = provider_for_(step.info.literal);
    if (step.info.negative) {
      st.probe.resize(step.arity);
      for (const JoinPlan::PatternOp& op : step.pattern_ops) {
        st.probe[op.pos] = op.from_slot ? row[op.slot] : op.value;
      }
      if (provider.Contains(step.info.predicate, st.probe)) return true;
      std::copy(row, row + width_, Row(step_idx + 1));
      return Descend(step_idx + 1);
    }
    for (const JoinPlan::PatternOp& op : step.pattern_ops) {
      if (op.from_slot) st.pattern[op.pos] = row[op.slot];
    }
    provider.ForEachMatchUntil(step.info.predicate, st.pattern, st.callback);
    return error_.ok() && !stopped_;
  }

  bool OnMatch(size_t step_idx, const Tuple& t) {
    const JoinPlan::Step& step = plan_.plan_steps_[step_idx];
    const SymbolId* row = Row(step_idx);
    SymbolId* next = Row(step_idx + 1);
    std::copy(row, row + width_, next);
    for (const JoinPlan::BindOp& op : step.bind_ops) next[op.slot] = t[op.pos];
    for (const JoinPlan::CheckOp& op : step.check_ops) {
      if (t[op.pos] != (op.against_slot ? next[op.slot] : op.value)) {
        return true;  // reject this match, keep enumerating
      }
    }
    return Descend(step_idx + 1);
  }

  const JoinPlan& plan_;
  const std::function<const FactProvider&(size_t)>& provider_for_;
  const std::function<bool(const SymbolId* row)>& emit_;
  const ResourceGuard* guard_;
  const size_t width_;
  std::vector<SymbolId> rows_;
  std::vector<StepState> states_;
  bool stopped_ = false;
  Status error_;
};

Result<bool> JoinPlan::ExecuteUntil(
    const std::function<const FactProvider&(size_t)>& provider_for,
    const std::function<bool(const SymbolId* row)>& emit,
    const std::vector<SymbolId>& initial, const ResourceGuard* guard) const {
  StreamExecutor executor(*this, provider_for, emit, guard);
  return executor.Run(initial);
}

std::string JoinPlan::ToString(const SymbolTable& symbols) const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const StepInfo& step = steps_[i];
    if (i > 0) out += " -> ";
    if (step.negative) out += '!';
    out += symbols.NameOf(step.predicate);
    out += '[';
    switch (step.access.kind) {
      case Relation::AccessPath::Kind::kEmpty:
        out += "empty";
        break;
      case Relation::AccessPath::Kind::kKeyLookup:
        out += "key";
        break;
      case Relation::AccessPath::Kind::kCompositeIndex: {
        out += "comp(";
        bool first = true;
        for (size_t col = 0; col < Relation::kMaxMaskColumns; ++col) {
          if ((step.access.mask >> col) & 1) {
            if (!first) out += ',';
            out += std::to_string(col);
            first = false;
          }
        }
        out += ')';
        break;
      }
      case Relation::AccessPath::Kind::kColumnIndex:
        out += "col" + std::to_string(step.access.column);
        break;
      case Relation::AccessPath::Kind::kScan:
        out += "scan";
        break;
    }
    out += " ~";
    if (step.access.estimated_rows == FactProvider::kUnknownCount) {
      out += '?';
    } else {
      out += std::to_string(step.access.estimated_rows);
    }
    out += ']';
  }
  return out;
}

}  // namespace deddb
