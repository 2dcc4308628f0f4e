#include "decisive/oracle/fta.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "decisive/obs/log.hpp"
#include "decisive/oracle/paths.hpp"
#include "decisive/ssam/graph.hpp"

namespace decisive::oracle {

using core::FaultTree;
using core::FaultTreeNode;
using core::GateKind;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

/// True when jointly removing `cut` severs every path.
bool is_cut(const std::vector<std::vector<int>>& path_members,
            const std::vector<size_t>& cut) {
  for (const auto& members : path_members) {
    bool hit = false;
    for (const size_t c : cut) {
      if (std::binary_search(members.begin(), members.end(), static_cast<int>(c))) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

bool contains_subset(const std::vector<std::vector<size_t>>& cuts,
                     const std::vector<size_t>& candidate) {
  for (const auto& cut : cuts) {
    if (std::includes(candidate.begin(), candidate.end(), cut.begin(), cut.end())) {
      return true;
    }
  }
  return false;
}

/// Exact truncation probe: after enumerating every minimal cut up to the
/// size bound, a minimal cut *above* the bound exists iff some set A of
/// components that intersects every found cut (a transversal) still carries
/// no complete path — its complement then severs all paths while containing
/// no found cut, so its minimal sub-cut is new. Minimal transversals suffice
/// (shrinking A only removes surviving paths), so the probe DFSes over the
/// found cuts, branching on which member stays alive. The `budget` counts
/// path-membership checks; exhausting it returns the conservative answer
/// (truncated = true) — the flag may over-report, never under-report.
bool probe_truncation(const std::vector<std::vector<int>>& path_members,
                      const std::vector<std::vector<size_t>>& cuts, size_t n,
                      size_t budget, bool& budget_exhausted) {
  std::vector<char> alive(n, 0);
  const std::function<bool()> dfs = [&]() -> bool {
    if (budget == 0) {
      budget_exhausted = true;
      return true;  // unknown → conservative
    }
    // First found cut with no alive member.
    const std::vector<size_t>* open = nullptr;
    for (const auto& cut : cuts) {
      if (budget > 0) --budget;
      if (std::none_of(cut.begin(), cut.end(),
                       [&](size_t m) { return alive[m] != 0; })) {
        open = &cut;
        break;
      }
    }
    if (open == nullptr) {
      // A is a transversal of every found cut: truncated iff no path
      // survives inside A.
      for (const auto& members : path_members) {
        if (budget > 0) --budget;
        if (std::all_of(members.begin(), members.end(),
                        [&](int m) { return alive[static_cast<size_t>(m)] != 0; })) {
          return false;  // a path survives; this transversal proves nothing
        }
      }
      return true;
    }
    for (const size_t m : *open) {
      alive[m] = 1;
      const bool found = dfs();
      alive[m] = 0;
      if (found) return true;
    }
    return false;
  };
  return dfs();
}

}  // namespace

FaultTree synthesize_fault_tree(const SsamModel& ssam, ObjectId component,
                                const FtaOptions& options) {
  const ssam::ComponentGraph graph = ssam::build_graph(ssam, component);
  const auto paths = enumerate_paths(graph, options.max_paths);

  // Components that participate in at least one path, in stable order.
  std::vector<ObjectId> members;
  {
    std::set<ObjectId> seen;
    for (const auto& path : paths) {
      for (const ObjectId node : path) {
        const auto it = graph.owner.find(node);
        if (it != graph.owner.end() && seen.insert(it->second).second) {
          members.push_back(it->second);
        }
      }
    }
  }

  // Per path: sorted member indices (into `members`).
  std::map<ObjectId, int> member_index;
  for (size_t i = 0; i < members.size(); ++i) {
    member_index[members[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> path_members;
  path_members.reserve(paths.size());
  for (const auto& path : paths) {
    std::set<int> indices;
    for (const ObjectId node : path) {
      const auto it = graph.owner.find(node);
      if (it != graph.owner.end()) indices.insert(member_index.at(it->second));
    }
    path_members.emplace_back(indices.begin(), indices.end());
  }

  // Enumerate minimal cut sets up to the size bound. Sizes in increasing
  // order guarantee minimality via subset screening.
  const auto next_combination = [](std::vector<size_t>& combo, size_t n) {
    const size_t k = combo.size();
    size_t i = k;
    while (i-- > 0) {
      if (combo[i] < n - k + i) {
        ++combo[i];
        for (size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  std::vector<std::vector<size_t>> cuts;
  const size_t n = members.size();
  const size_t max_size = std::min(options.max_cut_set_size, n);
  for (size_t size = 1; size <= max_size; ++size) {
    std::vector<size_t> combo(size);
    for (size_t i = 0; i < size; ++i) combo[i] = i;
    do {
      if (!contains_subset(cuts, combo) && is_cut(path_members, combo)) {
        cuts.push_back(combo);
      }
    } while (next_combination(combo, n));
  }

  // Deterministic cut order: each cut sorted by component id, cuts sorted by
  // (order, ids) — so two engines (or two platforms) render identical trees.
  std::vector<std::vector<ObjectId>> sorted_cuts;
  sorted_cuts.reserve(cuts.size());
  for (const auto& cut : cuts) {
    std::vector<ObjectId> cut_components;
    cut_components.reserve(cut.size());
    for (const size_t member : cut) cut_components.push_back(members[member]);
    std::sort(cut_components.begin(), cut_components.end());
    sorted_cuts.push_back(std::move(cut_components));
  }
  std::sort(sorted_cuts.begin(), sorted_cuts.end(),
            [](const std::vector<ObjectId>& a, const std::vector<ObjectId>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });

  // Build the tree: OR(top) over one child per cut set.
  FaultTree tree;
  if (max_size < n) {
    // The size bound may have clipped the family — probe instead of capping
    // silently (see kFtaTruncationWarning).
    bool budget_exhausted = false;
    tree.truncated = probe_truncation(path_members, cuts, n, 100000, budget_exhausted);
    if (tree.truncated) {
      obs::log(obs::LogLevel::Warn,
               "fta: max_cut_set_size=" + std::to_string(options.max_cut_set_size) +
                   (budget_exhausted
                        ? " probe budget exhausted; conservatively flagging truncation"
                        : " clipped the cut-set enumeration") +
                   "; minimal cut sets above the bound may exist");
    }
  }
  const std::string name = ssam.obj(component).get_string("name");
  tree.top_event = "loss of function of '" + name + "'";
  FaultTreeNode top;
  top.kind = GateKind::Or;
  top.label = tree.top_event;
  tree.nodes.push_back(top);

  std::map<ObjectId, size_t> basic_index;
  auto basic_for = [&](ObjectId comp) {
    const auto it = basic_index.find(comp);
    if (it != basic_index.end()) return it->second;
    FaultTreeNode basic;
    basic.kind = GateKind::Basic;
    basic.component = comp;
    basic.label = "loss of '" + ssam.obj(comp).get_string("name") + "'";
    basic.failure_rate = core::loss_failure_rate(ssam, comp);
    tree.nodes.push_back(basic);
    const size_t index = tree.nodes.size() - 1;
    basic_index[comp] = index;
    return index;
  };

  for (const auto& cut : sorted_cuts) {
    tree.cut_sets.push_back(cut);
    if (cut.size() == 1) {
      const size_t basic = basic_for(cut[0]);
      tree.nodes[0].children.push_back(basic);
    } else {
      FaultTreeNode gate;
      gate.kind = GateKind::And;
      gate.label = "joint loss of " + std::to_string(cut.size()) + " redundant components";
      // Materialise the basic events first: basic_for may grow the node
      // vector, which would invalidate a reference into it.
      for (const ObjectId member : cut) gate.children.push_back(basic_for(member));
      tree.nodes.push_back(std::move(gate));
      tree.nodes[0].children.push_back(tree.nodes.size() - 1);
    }
  }
  return tree;
}

double top_event_probability(const FaultTree& tree, double mission_hours) {
  // Map component -> failure probability over the mission.
  std::map<ObjectId, double> probability;
  for (const auto& node : tree.nodes) {
    if (node.kind == GateKind::Basic) {
      probability[node.component] = 1.0 - std::exp(-node.failure_rate * mission_hours);
    }
  }
  double total = 0.0;
  for (const auto& cut : tree.cut_sets) {
    double product = 1.0;
    for (const ObjectId member : cut) {
      const auto it = probability.find(member);
      product *= it != probability.end() ? it->second : 0.0;
    }
    total += product;
  }
  return std::min(total, 1.0);
}

}  // namespace decisive::oracle
