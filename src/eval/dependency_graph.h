#ifndef DEDDB_EVAL_DEPENDENCY_GRAPH_H_
#define DEDDB_EVAL_DEPENDENCY_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/program.h"

namespace deddb {

/// Predicate dependency graph of a program: an edge P -> Q exists when Q
/// occurs in the body of a rule with head P, labeled negative if any such
/// occurrence is negated. Only predicates defined by rules become nodes;
/// extensional predicates are leaves and are not tracked.
class DependencyGraph {
 public:
  DependencyGraph() = default;  // the graph of the empty program
  explicit DependencyGraph(const Program& program);

  /// Predicates defined by rules, in first-definition order.
  const std::vector<SymbolId>& nodes() const { return nodes_; }

  bool IsDefined(SymbolId predicate) const {
    return node_index_.count(predicate) > 0;
  }

  struct Edge {
    SymbolId target;
    bool negative;
  };

  /// Outgoing dependencies of `predicate` (must be defined).
  const std::vector<Edge>& EdgesOf(SymbolId predicate) const;

  /// Strongly connected components, in reverse topological order of the
  /// condensation — i.e. a component appears *after* every component it
  /// depends on, so the returned order is a valid bottom-up evaluation order.
  std::vector<std::vector<SymbolId>> SccsBottomUp() const;

  /// All defined predicates reachable from `roots` (including the roots
  /// themselves when defined), following dependency edges.
  std::unordered_set<SymbolId> ReachableFrom(
      const std::vector<SymbolId>& roots) const;

 private:
  std::vector<SymbolId> nodes_;
  std::unordered_map<SymbolId, size_t> node_index_;
  std::unordered_map<SymbolId, std::vector<Edge>> edges_;
};

/// Returns the subprogram containing exactly the rules whose heads are
/// reachable from `goals` in `program`'s dependency graph. Used for
/// goal-directed evaluation.
Program RelevantSubprogram(const Program& program,
                           const std::vector<SymbolId>& goals);

}  // namespace deddb

#endif  // DEDDB_EVAL_DEPENDENCY_GRAPH_H_
