// Machine-readable exports of annotation results.
//
// The paper positions GANA as the front end of the ALIGN layout flow:
// "each recognition step is helpful in providing a set of substructures
// that can be transmitted to a placement/routing algorithm". These
// exporters are that hand-off surface: a JSON rendering of the hierarchy
// tree with its constraints, and a Graphviz DOT rendering of the
// annotated bipartite graph for inspection.
#pragma once

#include <string>

#include "core/batch_runner.hpp"
#include "core/pipeline.hpp"

namespace gana::core {

/// Serializes one batch run's performance observations -- wall/stage
/// seconds plus the perf-counter deltas (allocations, spmm/matmul flops,
/// sample-cache hits) -- as a flat JSON object (the `--perf-json` CLI
/// payload and the benchmark record format).
std::string batch_timings_to_json(const BatchTimings& t, std::size_t jobs,
                                  std::size_t ok, std::size_t total);

/// Serializes a hierarchy tree (names, types, constraints, children) as
/// JSON. Stable field order; no external JSON dependency.
std::string hierarchy_to_json(const HierarchyNode& root);

/// Serializes a full annotation result: hierarchy, per-vertex classes,
/// primitive instances, and stage accuracies ("accuracy":null when no
/// vertex has a ground-truth label).
std::string annotation_to_json(const AnnotateResult& result,
                               const std::vector<std::string>& class_names);

/// Graphviz DOT of the bipartite circuit graph; element vertices are
/// boxes colored by final class, nets are ellipses, edge labels show the
/// l_g l_s l_d bits.
std::string graph_to_dot(const graph::CircuitGraph& g,
                         const std::vector<int>& vertex_class,
                         const std::vector<std::string>& class_names);

}  // namespace gana::core
