#include "decisive/oracle/paths.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "decisive/base/error.hpp"

namespace decisive::oracle {

using ssam::ComponentGraph;
using ssam::ObjectId;

std::vector<std::vector<ObjectId>> enumerate_paths(const ComponentGraph& graph,
                                                   size_t max_paths) {
  const std::set<ObjectId> goals(graph.outputs.begin(), graph.outputs.end());
  std::vector<std::vector<ObjectId>> paths;

  // Iterative backtracking DFS (explicit frame stack) so deep chains cannot
  // overflow the call stack even in the oracle.
  struct Frame {
    ObjectId node;
    size_t next = 0;  ///< index of the next successor to try
  };
  for (const ObjectId input : graph.inputs) {
    std::vector<ObjectId> current;
    std::set<ObjectId> visited;
    std::vector<Frame> stack;
    const auto push = [&](ObjectId node) {
      current.push_back(node);
      visited.insert(node);
      stack.push_back({node, 0});
    };
    const auto pop = [&] {
      visited.erase(stack.back().node);
      current.pop_back();
      stack.pop_back();
    };
    push(input);
    while (!stack.empty()) {
      const size_t depth = stack.size() - 1;
      const ObjectId node = stack[depth].node;
      if (stack[depth].next == 0 && goals.contains(node)) {
        if (paths.size() >= max_paths) {
          throw AnalysisError("path enumeration exceeded " + std::to_string(max_paths) +
                              " paths; the component graph is too dense");
        }
        paths.push_back(current);
        pop();
        continue;
      }
      const auto it = graph.edges.find(node);
      bool descended = false;
      if (it != graph.edges.end()) {
        while (stack[depth].next < it->second.size()) {
          const ObjectId next = it->second[stack[depth].next++];
          if (!visited.contains(next)) {
            push(next);
            descended = true;
            break;
          }
        }
      }
      if (!descended) pop();
    }
  }
  return paths;
}

bool on_all_paths(const ComponentGraph& graph,
                  const std::vector<std::vector<ObjectId>>& paths, ObjectId subcomponent) {
  if (paths.empty()) return false;
  for (const auto& path : paths) {
    const bool present = std::any_of(path.begin(), path.end(), [&](ObjectId node) {
      const auto it = graph.owner.find(node);
      return it != graph.owner.end() && it->second == subcomponent;
    });
    if (!present) return false;
  }
  return true;
}

}  // namespace decisive::oracle
