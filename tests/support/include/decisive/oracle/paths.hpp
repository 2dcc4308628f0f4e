// Brute-force path oracle for the graph-FMEA decision engine.
//
// Paper Algorithm 1 read literally: materialise every simple input→output
// path of a component graph, then call a subcomponent a single point when it
// owns an IONode on every path. Exponential in the architecture's branching,
// so the shipped engine (`ssam::SinglePointAnalysis`) answers the same
// question with dominators instead; the property tests and bench_graph_fmea
// hold it equal to this oracle. Test and bench targets only — never shipped.
#pragma once

#include <cstddef>
#include <vector>

#include "decisive/ssam/graph.hpp"

namespace decisive::oracle {

/// Enumerates all simple paths from any input to any output, as sequences of
/// IONodes. Throws AnalysisError when more than `max_paths` exist (guards
/// against combinatorial blow-up on dense graphs).
std::vector<std::vector<ssam::ObjectId>> enumerate_paths(const ssam::ComponentGraph& graph,
                                                         size_t max_paths = 100000);

/// True when `subcomponent` owns at least one IONode on *every* path (false
/// on an empty path set).
bool on_all_paths(const ssam::ComponentGraph& graph,
                  const std::vector<std::vector<ssam::ObjectId>>& paths,
                  ssam::ObjectId subcomponent);

}  // namespace decisive::oracle
