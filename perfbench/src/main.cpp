// gana_bench: load generator, output checker and traced replay of the
// GANA end-to-end benchmark. perfbench/run.py drives it; see README.md.
//
//   gana_bench setup --workload W --model PATH --work DIR [--reps N]
//       Trains, packs and loads the workload's model (and for serve
//       starts the daemon until it answers ping) N times; prints the
//       seconds of each repetition as {"setup_s": [...]}.
//   gana_bench run --workload W --model PATH --work DIR --seed S
//                  --seconds T --trace 0|1
//       Runs one workload on the model and prints the result line:
//       end-to-end metrics with --trace 0, per-layer metrics with 1,
//       plus a "valid" key (see Outcome::valid) that run.py strips.
//       Exits 3 when an output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/export.hpp"
#include "spice/parser.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* span;  ///< span whose self time the metric reports, or null
};

constexpr LayerSpec kLayers[] = {
    {"spice.parse_ms", "ms", "spice.parse"},
    {"core.prepare_ms", "ms", "core.prepare"},
    {"core.features_ms", "ms", "core.features"},
    {"gcn.sample_ms", "ms", "gcn.sample"},
    {"gcn.sample_cache_hit_frac", "frac", nullptr},
    {"gcn.infer_ms", "ms", "gcn.infer"},
    {"gcn.matmul_mflop_per_op", "MFLOP", nullptr},
    {"gcn.matmul_gflops", "GFLOP/s", nullptr},
    {"gcn.infer_cache_hit_frac", "frac", nullptr},
    {"gcn.acc", "frac", nullptr},
    {"core.post1_acc", "frac", nullptr},
    {"graph.ccc_ms", "ms", "graph.ccc"},
    {"primitives.vf2_ms", "ms", "primitives.vf2"},
    {"primitives.vf2_states_per_op", "count", nullptr},
    {"primitives.annotation_cache_hit_frac", "frac", nullptr},
    {"core.postprocess_ms", "ms", "core.postprocess"},
    {"core.hierarchy_ms", "ms", "core.hierarchy"},
    {"core.export_ms", "ms", "core.export"},
    {"core.export_kb_per_op", "KiB", nullptr},
    {"incremental.reuse_ms", "ms", nullptr},
    {"incremental.recompute_ms", "ms", nullptr},
    {"incremental.structural_ms", "ms", nullptr},
    {"incremental.result_reuse_frac", "frac", nullptr},
    {"incremental.region_reuse_frac", "frac", nullptr},
    {"shard.startup_s", "s", nullptr},
    {"shard.outside_worker_frac", "frac", nullptr},
    {"shard.output_mb", "MB", nullptr},
    {"serve.overhead_ms", "ms", nullptr},
    {"serve.shed_frac", "frac", nullptr},
    {"serve.protocol_ms", "ms", "serve.protocol"},
    {"loadgen.late_p99_ms", "ms", nullptr},
    {"unaccounted_frac", "frac", nullptr},
    {"trace.overhead_frac", "frac", nullptr},
};

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const LayerSpec& l : kLayers) metrics_.push_back({l.name, 0.0, l.unit});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  die("unknown per-layer metric " + name);
}

void attach_caches(gana::core::Annotator& a) {
  a.set_sample_cache(std::make_shared<gana::gcn::SamplePrepCache>());
  a.set_annotation_cache(std::make_shared<gana::primitives::AnnotationCache>());
  a.set_inference_cache(std::make_shared<gana::gcn::InferenceCache>());
}

const char* session_path(const gana::incremental::SessionStats& st) {
  if (st.result_reused) return "incremental.reuse";
  if (st.full_prepare || st.structure_changed) return "incremental.structural";
  return "incremental.recompute";
}

SessionEdit session_edit(gana::incremental::AnnotationSession& session,
                         const std::string& text, const std::string& name,
                         const std::vector<std::string>& classes, Tracer& tracer,
                         std::uint64_t op_id, std::string* json,
                         gana::core::AnnotateResult* keep) {
  SessionEdit edit;
  gana::spice::Netlist netlist;
  {
    Scope s(tracer, "spice.parse", op_id);
    auto parsed = gana::spice::parse_netlist_result(text);
    if (!parsed.ok()) return edit;
    netlist = parsed.take();
  }
  const int span = tracer.enabled() ? tracer.begin("incremental.reannotate", op_id) : -1;
  auto r = session.reannotate(netlist, name);
  edit.path = session_path(session.last_stats());
  if (span >= 0) {
    tracer.rename(span, edit.path);
    tracer.end(span);
  }
  if (!r.ok()) return edit;
  {
    Scope s(tracer, "core.export", op_id);
    *json = gana::core::annotation_to_json(r.value(), classes);
  }
  {
    Scope s(tracer, edit.path, op_id);
    gana::core::AnnotateResult done = r.take();
    if (keep != nullptr) *keep = std::move(done);
  }
  {
    Scope s(tracer, "spice.parse", op_id);
    netlist = gana::spice::Netlist{};
  }
  edit.ok = true;
  return edit;
}

void LayerMetrics::from_trace(const Tracer& t, std::size_t ops,
                              const gana::PerfSnapshot& p) {
  const auto self = t.self_seconds();
  const double n = static_cast<double>(ops);
  for (const LayerSpec& l : kLayers) {
    if (l.span == nullptr) continue;
    const auto it = self.find(l.span);
    if (it != self.end()) set(l.name, ratio(it->second * 1e3, n));
  }
  const auto ops_with = [&](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  };
  set("gcn.sample_cache_hit_frac", ops_with(p.sample_cache_hits, p.sample_cache_misses));
  set("gcn.infer_cache_hit_frac",
      ops_with(p.inference_cache_hits, p.inference_cache_misses));
  set("primitives.annotation_cache_hit_frac",
      ops_with(p.annotation_cache_hits, p.annotation_cache_misses));
  set("gcn.matmul_mflop_per_op", ratio(static_cast<double>(p.matmul_flops) / 1e6, n));
  const auto infer = self.find("gcn.infer");
  if (infer != self.end()) {
    set("gcn.matmul_gflops", ratio(static_cast<double>(p.matmul_flops) / 1e9, infer->second));
  }
  set("primitives.vf2_states_per_op", ratio(static_cast<double>(p.vf2_states), n));
  set("unaccounted_frac", t.unaccounted_frac());
}

}  // namespace pb

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: gana_bench setup --workload W --model PATH --work DIR "
               "[--reps N]\n"
               "       gana_bench run --workload W --model PATH --work DIR "
               "--seed S --seconds T --trace 0|1\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  pb::start_spawner();
  if (argc < 2) usage();
  const std::string mode = argv[1];
  pb::Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") o.workload = v;
    else if (key == "--model") o.model = v;
    else if (key == "--work") o.work = v;
    else if (key == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(v);
    else if (key == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (key == "--reps") o.reps = std::atoi(v);
    else usage();
  }
  if (o.workload == "corpus" || o.workload == "serve") {
    o.domain = "ota";
  } else if (o.workload == "sizing_loop") {
    o.domain = "rf";
  } else {
    usage();
  }
  if (o.model.empty() || o.work.empty()) usage();
  pb::make_dirs(o.work);
  if (mode == "setup") return pb::run_setup(o);
  if (mode != "run") usage();

  pb::Outcome out;
  if (o.workload == "corpus") {
    out = pb::run_corpus(o);
  } else if (o.workload == "sizing_loop") {
    out = pb::run_sizing(o);
  } else {
    out = pb::run_serve(o);
  }
  if (!out.valid) {
    std::fprintf(stderr, "gana_bench: %s: INVALID measurement (see the checks above)\n",
                 o.workload.c_str());
  }
  pb::print_result(out.checks_ok && out.failed == 0, out.attempted, out.failed,
                   out.metrics, out.valid);
  return out.checks_ok && out.failed == 0 ? 0 : 3;
}
