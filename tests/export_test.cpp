#include <gtest/gtest.h>

#include "core/export.hpp"
#include "datagen/ota_gen.hpp"
#include "spice/parser.hpp"

namespace gana::core {
namespace {

AnnotateResult annotate_ota() {
  Rng rng(1);
  const auto circuit = datagen::generate_ota({}, rng, "export_ota");
  Annotator annotator(nullptr, {"ota", "bias"});
  return annotator.annotate_oracle(circuit, 2);
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, and no raw control characters.
bool json_balanced(const std::string& s) {
  int depth = 0, array_depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth; break;
      case '}': --depth; break;
      case '[': ++array_depth; break;
      case ']': --array_depth; break;
      default: break;
    }
    if (depth < 0 || array_depth < 0) return false;
  }
  return depth == 0 && array_depth == 0 && !in_string;
}

TEST(Export, HierarchyJsonBalancedAndComplete) {
  const auto r = annotate_ota();
  const std::string json = hierarchy_to_json(r.hierarchy);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"kind\":\"system\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"sub-block\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"element\""), std::string::npos);
  EXPECT_NE(json.find("symmetry"), std::string::npos);
}

TEST(Export, AnnotationJsonCarriesEverything) {
  const auto r = annotate_ota();
  const std::string json = annotation_to_json(r, {"ota", "bias"});
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"circuit\":\"export_ota\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\":[\"ota\",\"bias\"]"), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"primitives\""), std::string::npos);
  EXPECT_NE(json.find("\"hierarchy\""), std::string::npos);
  // Every device appears as a vertex entry.
  for (const auto& d : r.prepared.flat.devices) {
    EXPECT_NE(json.find("\"" + d.name + "\""), std::string::npos) << d.name;
  }
}

TEST(Export, AnnotationJsonAccuracyOnlyWithGroundTruth) {
  // Labeled input: the stage accuracies are reported as numbers.
  const auto labeled = annotate_ota();
  const std::string with_truth = annotation_to_json(labeled, {"ota", "bias"});
  EXPECT_NE(with_truth.find("\"accuracy\":{\"gcn\":"), std::string::npos);
  EXPECT_EQ(with_truth.find("\"accuracy\":null"), std::string::npos);

  // Bare netlist: no vertex is labeled, so accuracy is unknown, not 1.
  Rng rng(1);
  const auto circuit = datagen::generate_ota({}, rng, "bare_ota");
  const Annotator annotator(nullptr, {"ota", "bias"});
  const auto bare = annotator.annotate(circuit.netlist, "bare_ota");
  ASSERT_FALSE(bare.prepared.labels.empty());
  for (const int label : bare.prepared.labels) EXPECT_LT(label, 0);
  const std::string no_truth = annotation_to_json(bare, {"ota", "bias"});
  EXPECT_TRUE(json_balanced(no_truth));
  EXPECT_NE(no_truth.find("\"accuracy\":null,"), std::string::npos);
  EXPECT_EQ(no_truth.find("\"gcn\":"), std::string::npos);
}

TEST(Export, JsonEscapesSpecialCharacters) {
  HierarchyNode node;
  node.kind = HierarchyNode::Kind::Element;
  node.name = "weird\"name\\with\nstuff";
  node.type = "nmos";
  const std::string json = hierarchy_to_json(node);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(Export, DotContainsVerticesEdgesAndLabels) {
  const auto r = annotate_ota();
  const std::string dot =
      graph_to_dot(r.prepared.graph, r.final_class, {"ota", "bias"});
  EXPECT_NE(dot.find("graph circuit {"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  // Edge-label bits appear (some MOS edge).
  EXPECT_NE(dot.find("label=\"0"), std::string::npos);
  // One node per vertex.
  std::size_t nodes = 0;
  for (std::size_t pos = 0; (pos = dot.find("  v", pos)) != std::string::npos;
       ++pos) {
    ++nodes;
  }
  EXPECT_GE(nodes, r.prepared.graph.vertex_count());
}

TEST(Export, DotHandlesUnclassifiedVertices) {
  const auto n = spice::parse_netlist("r1 a b 1k\n.end\n");
  Annotator annotator(nullptr, {"x"});
  const auto r = annotator.annotate(n, "tiny");
  std::vector<int> no_classes(r.prepared.graph.vertex_count(), -1);
  const std::string dot = graph_to_dot(r.prepared.graph, no_classes, {"x"});
  EXPECT_NE(dot.find("#cccccc"), std::string::npos);  // neutral fill
}

}  // namespace
}  // namespace gana::core
