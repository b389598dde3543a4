#include "obs/explain.h"

#include <string_view>
#include <unordered_map>

#include "util/strings.h"

namespace deddb::obs {
namespace {

// Children of each span, in id (creation) order.
std::vector<std::vector<size_t>> ChildIndex(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size() + 1);
  for (size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i);
  }
  return children;
}

std::string AttrValue(const SpanAttr& attr) {
  return attr.is_int ? StrCat(attr.int_value)
                     : StrCat("\"", attr.str_value, "\"");
}

void RenderNode(const std::vector<Span>& spans,
                const std::vector<std::vector<size_t>>& children, size_t index,
                size_t depth, const RenderOptions& options, std::string* out) {
  const Span& span = spans[index];
  out->append(depth * 2, ' ');
  if (options.include_ids) out->append(StrCat("#", span.id, " "));
  out->append(span.name);
  for (const SpanAttr& attr : span.attrs) {
    out->append(StrCat(" ", attr.key, "=", AttrValue(attr)));
  }
  if (options.include_timings) {
    out->append(StrCat(" dur_us=", (span.end_ns - span.start_ns) / 1000));
  }
  out->push_back('\n');
  for (size_t child : children[span.id]) {
    RenderNode(spans, children, child, depth + 1, options, out);
  }
}

// Prose labels for the instrumented span names; unknown names fall back to
// the raw name so the renderer never loses information.
std::string_view ProseLabel(std::string_view name) {
  static const auto* kLabels =
      new std::unordered_map<std::string_view, std::string_view>{
          {"eval", "bottom-up evaluation"},
          {"stratum", "stratum"},
          {"round", "fixpoint round"},
          {"plan", "join plan for"},
          {"compile.events", "event-rule compilation"},
          {"query.materialize", "materialize reachable predicates of"},
          {"upward", "upward interpretation"},
          {"upward.pred", "derived predicate"},
          {"downward", "downward interpretation of"},
          {"down.event", "requested event"},
          {"down.derived", "derived event"},
          {"dnf.combine", "DNF combine"},
          {"translation", "candidate translation"},
          {"problem.view_updating", "view updating:"},
          {"problem.view_validation", "view validation:"},
          {"problem.integrity_checking", "integrity checking of"},
          {"problem.consistency_restoration",
           "consistency-restoration checking of"},
          {"problem.condition_monitoring", "condition monitoring of"},
          {"problem.view_maintenance", "materialized view maintenance of"},
          {"view_maintenance.init", "view materialization"},
          {"problem.side_effects", "side-effect prevention for"},
          {"problem.repair", "database repair"},
          {"problem.satisfiability", "IC satisfiability check"},
          {"problem.violating_transactions", "violating-transaction search"},
          {"problem.integrity_maintenance", "integrity maintenance of"},
          {"problem.inconsistency_maintenance", "inconsistency maintenance of"},
          {"problem.condition_activation", "condition activation:"},
          {"problem.condition_validation", "condition validation:"},
          {"problem.condition_protection",
           "condition-activation prevention for"},
          {"problem.rule_update", "rule update simulation"},
          {"processor.transaction", "transaction"},
          {"processor.view_update", "view update request"},
          {"processor.candidate", "candidate translation"},
      };
  auto it = kLabels->find(name);
  return it == kLabels->end() ? name : it->second;
}

// Attribute keys whose (string) value names the subject of the span; shown
// inline after the label instead of as key=value noise.
bool IsSubjectKey(std::string_view key) {
  return key == "name" || key == "request" || key == "event" ||
         key == "goal" || key == "txn" || key == "problem" || key == "head";
}

void ExplainNode(const std::vector<Span>& spans,
                 const std::vector<std::vector<size_t>>& children, size_t index,
                 size_t depth, std::string* out) {
  const Span& span = spans[index];
  out->append(depth * 2, ' ');
  out->append("- ");
  out->append(ProseLabel(span.name));

  std::string details;
  std::string verdict;
  for (const SpanAttr& attr : span.attrs) {
    if (!attr.is_int && IsSubjectKey(attr.key)) {
      out->append(StrCat(" ", attr.str_value));
      continue;
    }
    if (attr.key == "accepted" && attr.is_int) {
      verdict = attr.int_value != 0 ? " => ACCEPTED" : " => REJECTED";
      continue;
    }
    if (!details.empty()) details += ", ";
    details += StrCat(attr.key, "=", AttrValue(attr));
  }
  if (!details.empty()) out->append(StrCat(" (", details, ")"));
  out->append(verdict);
  out->push_back('\n');
  for (size_t child : children[span.id]) {
    ExplainNode(spans, children, child, depth + 1, out);
  }
}

}  // namespace

std::string RenderSpanTree(const std::vector<Span>& spans,
                           const RenderOptions& options) {
  std::vector<std::vector<size_t>> children = ChildIndex(spans);
  std::string out;
  for (size_t root : children[kNoSpan]) {
    RenderNode(spans, children, root, 0, options, &out);
  }
  return out;
}

std::string RenderSpanTree(const Tracer& tracer, const RenderOptions& options) {
  return RenderSpanTree(tracer.Snapshot(), options);
}

std::string Explain(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children = ChildIndex(spans);
  std::string out;
  for (size_t root : children[kNoSpan]) {
    ExplainNode(spans, children, root, 0, &out);
  }
  return out;
}

std::string Explain(const Tracer& tracer) { return Explain(tracer.Snapshot()); }

}  // namespace deddb::obs
