#include "eval/index_advisor.h"

#include <algorithm>
#include <optional>

#include "eval/fact_provider.h"
#include "eval/join_plan.h"

namespace deddb {

namespace {

int PopCount(Relation::Mask mask) {
  int count = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++count;
  }
  return count;
}

// Records the bound-column mask of every positive step of `plan` probed
// with 2+ (but not all) columns bound.
void CollectMasks(const Rule& rule, const JoinPlan& plan,
                  std::vector<IndexAdvice>* out) {
  for (const JoinPlan::StepInfo& step : plan.steps()) {
    if (step.negative) continue;
    size_t arity = rule.body()[step.literal].atom().arity();
    size_t maskable = std::min(arity, Relation::kMaxMaskColumns);
    int bound = PopCount(step.bound_mask);
    bool full = arity <= Relation::kMaxMaskColumns &&
                static_cast<size_t>(bound) == maskable;
    if (bound >= 2 && !full) {
      out->push_back(IndexAdvice{step.predicate, step.bound_mask});
    }
  }
}

}  // namespace

std::vector<IndexAdvice> AdviseIndexes(const Program& program) {
  // No statistics: every estimate ties, so the planner's structural
  // tie-breaks (more bound arguments, fewer unbound variables, body order)
  // decide, exactly as they do at runtime between equally sized relations.
  const EmptyProvider no_stats;
  auto provider_for = [&](size_t) -> const FactProvider& { return no_stats; };
  std::vector<IndexAdvice> advice;
  for (const Rule& rule : program.rules()) {
    // Scenario 0: the unforced order (round-0 evaluation). Scenario i+1:
    // positive literal i leads (its delta leads a semi-naive round). Build
    // fails only for unsafe rules, which validation rejects upstream; such
    // scenarios are simply skipped.
    std::vector<std::optional<size_t>> scenarios;
    scenarios.push_back(std::nullopt);
    for (size_t i = 0; i < rule.body().size(); ++i) {
      if (rule.body()[i].positive()) scenarios.push_back(i);
    }
    for (const std::optional<size_t>& forced : scenarios) {
      JoinPlan::Options options;
      options.forced_first = forced;
      Result<JoinPlan> plan = JoinPlan::Build(rule, provider_for, options);
      if (!plan.ok()) continue;
      CollectMasks(rule, *plan, &advice);
    }
  }
  std::sort(advice.begin(), advice.end(),
            [](const IndexAdvice& a, const IndexAdvice& b) {
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.mask < b.mask;
            });
  advice.erase(std::unique(advice.begin(), advice.end()), advice.end());
  return advice;
}

void DeclareAdvisedIndexes(const Program& program, FactStore* store) {
  for (const IndexAdvice& advice : AdviseIndexes(program)) {
    store->DeclareIndex(advice.predicate, advice.mask);
  }
}

}  // namespace deddb
