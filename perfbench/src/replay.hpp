// Stage-by-stage replay of Annotator::try_annotate on netlist text.
//
// Calls the public entry point of every layer in pipeline order --
// spice parse, core prepare, features, GCN sample prep (through a
// SamplePrepCache), inference (through an InferenceCache), CCC, VF2
// primitive annotation (through an AnnotationCache), postprocessing I
// and II, hierarchy, export -- with a span around each call. The
// exported bytes must equal the program's for the same input; the
// benchmark checks that on every replayed operation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"
#include "gcn/inference_cache.hpp"
#include "gcn/sample_cache.hpp"
#include "primitives/annotation_cache.hpp"
#include "trace.hpp"

namespace pb {

class Replayer {
 public:
  /// `model` is borrowed. Caches start empty (like a fresh process).
  Replayer(const gana::gcn::GcnModel* model,
           std::vector<std::string> class_names);

  /// One traced annotation. Returns false when any stage threw; `json`
  /// then stays empty. `result` keeps the intermediate classes.
  bool annotate(std::string_view text, const std::string& name,
                Tracer& tracer, std::uint64_t op, std::string* json,
                gana::core::AnnotateResult* result);

  [[nodiscard]] const gana::core::Annotator& annotator() const {
    return annotator_;
  }

 private:
  const gana::gcn::GcnModel* model_;
  std::vector<std::string> class_names_;
  gana::core::Annotator annotator_;  ///< vocabulary, library, options
  std::uint64_t fingerprint_;
  gana::gcn::SamplePrepCache sample_cache_;
  gana::gcn::InferenceCache inference_cache_;
  gana::primitives::AnnotationCache annotation_cache_;
};

}  // namespace pb
