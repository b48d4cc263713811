#include "replay.hpp"

#include <cmath>
#include <exception>

#include "core/export.hpp"
#include "core/features.hpp"
#include "core/hierarchy.hpp"
#include "core/postprocess.hpp"
#include "gcn/layers.hpp"
#include "gcn/sample.hpp"
#include "gcn/workspace.hpp"
#include "graph/ccc.hpp"
#include "graph/laplacian.hpp"
#include "graph/structural_hash.hpp"
#include "primitives/annotator.hpp"
#include "spice/parser.hpp"
#include "util/thread_pool.hpp"

namespace pb {

using namespace gana;

Replayer::Replayer(const gcn::GcnModel* model,
                   std::vector<std::string> class_names)
    : model_(model),
      class_names_(class_names),
      annotator_(model, std::move(class_names)),
      fingerprint_(model->weights_fingerprint()) {}

namespace {

bool all_finite(const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) return false;
    }
  }
  return true;
}

}  // namespace

bool Replayer::annotate(std::string_view text, const std::string& name,
                        Tracer& tracer, std::uint64_t op, std::string* json,
                        core::AnnotateResult* out) {
  json->clear();
  core::AnnotateResult& r = *out;
  r = core::AnnotateResult{};
  try {
    spice::Netlist netlist;
    {
      Scope s(tracer, "spice.parse", op);
      auto parsed = spice::parse_netlist_result(text);
      if (!parsed.ok()) return false;
      netlist = parsed.take();
    }
    {
      Scope s(tracer, "core.prepare", op);
      r.prepared = core::prepare_netlist(netlist, class_names_, name,
                                         annotator_.prepare_options());
    }
    const graph::CircuitGraph& g = r.prepared.graph;

    // GCN stage, exactly as Annotator::compute_probabilities runs it.
    const int pool_levels = model_->config().required_pool_levels();
    Matrix features;
    std::uint64_t prep_seed = 0, sample_key = 0, infer_key = 0;
    {
      Scope s(tracer, "core.features", op);
      prep_seed = graph::hash_combine(core::kDefaultSampleSeed,
                                      graph::structural_hash(g));
      sample_key = graph::hash_combine(prep_seed,
                                       static_cast<std::uint64_t>(pool_levels));
      features = core::build_features(g);
      infer_key = graph::hash_combine(
          graph::hash_combine(sample_key, fingerprint_),
          core::features_fingerprint(features));
    }
    std::shared_ptr<const Matrix> cached;
    {
      Scope s(tracer, "gcn.infer", op);
      cached = inference_cache_.find(infer_key);
    }
    if (cached != nullptr) {
      r.probabilities = *cached;
    } else {
      gcn::GraphSample sample;
      {
        Scope s(tracer, "gcn.sample", op);
        std::shared_ptr<const gcn::SamplePrep> prep = sample_cache_.find(sample_key);
        if (prep == nullptr) {
          Rng rng(prep_seed);
          prep = sample_cache_.insert(
              sample_key, std::make_shared<gcn::SamplePrep>(gcn::make_sample_prep(
                              graph::adjacency(g), pool_levels, rng)));
        }
        sample = gcn::sample_from_prep(*prep, std::move(features),
                                       r.prepared.labels, r.prepared.name);
        if (!all_finite(sample.features)) return false;
      }
      Scope s(tracer, "gcn.infer", op);
      thread_local gcn::InferWorkspace ws;
      r.probabilities = gcn::softmax(model_->infer(sample, ws));
      if (!all_finite(r.probabilities)) return false;
      inference_cache_.insert(infer_key, std::make_shared<Matrix>(r.probabilities));
    }
    {
      Scope s(tracer, "gcn.infer", op);
      const std::size_t n = g.vertex_count();
      r.gcn_class.assign(n, -1);
      for (std::size_t v = 0; v < n; ++v) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < r.probabilities.cols(); ++c) {
          if (r.probabilities(v, c) > r.probabilities(v, best)) best = c;
        }
        r.gcn_class[v] = static_cast<int>(best);
      }
    }
    {
      Scope s(tracer, "graph.ccc", op);
      r.ccc = graph::channel_connected_components(g);
    }
    primitives::AnnotateOutcome outcome;
    {
      Scope s(tracer, "primitives.vf2", op);
      primitives::AnnotateOptions options;
      options.pool = compute_pool();
      options.cache = &annotation_cache_;
      outcome = primitives::annotate_primitives_guarded(g, annotator_.library(),
                                                        options);
    }
    {
      Scope s(tracer, "core.postprocess", op);
      r.post = core::postprocess_stage1_with_annotation(
          g, r.ccc, r.probabilities, class_names_, std::move(outcome));
      r.post1_class = core::vertex_classes(g, r.ccc, r.post.cluster_class);
      core::postprocess_stage2(g, r.ccc, class_names_, r.post);
      r.final_class = core::vertex_classes(g, r.ccc, r.post.cluster_class);
      r.acc_gcn = core::accuracy(r.gcn_class, r.prepared.labels);
      r.acc_post1 = core::accuracy(r.post1_class, r.prepared.labels);
      r.acc_post2 = core::accuracy(r.final_class, r.prepared.labels);
    }
    {
      Scope s(tracer, "core.hierarchy", op);
      r.hierarchy = core::build_hierarchy(g, r.ccc, r.post, class_names_,
                                          r.prepared.name);
    }
    Scope s(tracer, "core.export", op);
    *json = core::annotation_to_json(r, class_names_);
    return true;
  } catch (const std::exception&) {
    json->clear();
    return false;
  }
}

}  // namespace pb
