// sizing_loop: one designer editing RF designs (phased-array variants and
// receivers), as a closed loop with one client. Each edit is netlist text
// in; the timed operation is spice parse -> AnnotationSession::reannotate
// -> core::annotation_to_json, in-process, with the trained rf model.
// Nineteen edits in twenty change one device's value; every twentieth
// toggles a load capacitor, which changes the graph structure. Each design's cold first
// revision is opened before timing starts.
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/export.hpp"
#include "inputs.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

using namespace gana;

namespace {

constexpr std::size_t kEditsPerDesign = 25;  ///< edits before the designer moves on
constexpr std::size_t kStructuralEvery = 20;  ///< every twentieth edit is structural
constexpr std::size_t kCheckEvery = 53;       ///< sampled value edits checked cold
constexpr std::size_t kMinOps = 2000;         ///< >= 10 samples beyond the p99
constexpr std::size_t kTracedOps = 1500;
/// Latency limit of slo_frac: about 1.6x the p99 on the reference box
/// (5 ms), so the share within it moves when the heavy edits slow down.
constexpr double kSloMs = 8.0;
constexpr const char* kLoadCap = "cbench_load";

struct Design {
  std::string name;
  spice::Netlist netlist;  ///< current revision
  std::string cap_net;     ///< net the structural edit loads
  bool cap_on = false;
  Truth truth;
};

/// The designer: a seeded stream of edits over the designs.
class Designer {
 public:
  explicit Designer(std::uint64_t seed) : rng_(stream_seed(seed, 3)) {
    for (datagen::LabeledCircuit& c : sizing_designs(seed)) {
      Design d;
      d.name = c.name;
      d.truth = truth_of(c);
      // The load goes on the drain net of a transistor, never on a rail.
      std::vector<std::string> drains;
      for (const spice::Device& dev : c.netlist.devices) {
        if (spice::is_mos(dev.type) && dev.pins[0].find('!') == std::string::npos) {
          drains.push_back(dev.pins[0]);
        }
      }
      d.cap_net = drains[rng_.index(drains.size())];
      d.netlist = std::move(c.netlist);
      designs_.push_back(std::move(d));
    }
  }

  [[nodiscard]] std::vector<Design>& designs() { return designs_; }

  /// Applies edit `step` and returns the edited design.
  Design& edit(std::size_t step, bool* structural) {
    Design& d = designs_[(step / kEditsPerDesign) % designs_.size()];
    *structural = step % kStructuralEvery == kStructuralEvery - 1;
    auto& devices = d.netlist.devices;
    if (*structural) {
      if (d.cap_on) {
        devices.pop_back();
      } else {
        spice::Device cap;
        cap.name = kLoadCap;
        cap.type = spice::DeviceType::Capacitor;
        cap.pins = {d.cap_net, "gnd!"};
        cap.value = 50e-15;
        devices.push_back(cap);
      }
      d.cap_on = !d.cap_on;
      return d;
    }
    value_edit(d.netlist, devices.size() - (d.cap_on ? 1 : 0), rng_);
    return d;
  }

 private:
  Rng rng_;
  std::vector<Design> designs_;
};

struct Op {
  double ms = 0.0;
  bool ok = false;
  const char* path = "";  ///< incremental path the session took
};

/// The in-process system under test: one annotator (with the caches the
/// CLI and daemon attach) and one session per design.
struct Loop {
  Loop(const gcn::GcnModel* model, const std::vector<std::string>& classes,
       std::vector<Design>& designs)
      : annotator(model, classes) {
    attach_caches(annotator);
    for (std::size_t i = 0; i < designs.size(); ++i) {
      sessions.push_back(std::make_unique<incremental::AnnotationSession>(&annotator));
    }
  }

  /// One timed edit; `json` receives the exported bytes.
  Op run(std::size_t session, const std::string& text, const std::string& name,
         Tracer& tracer, std::uint64_t op_id, std::string* json,
         core::AnnotateResult* keep = nullptr) {
    Op op;
    const double t0 = now();
    {
      Scope root(tracer, "op", op_id);
      const SessionEdit e = session_edit(*sessions[session], text, name,
                                         annotator.class_names(), tracer, op_id, json, keep);
      op.path = e.path;
      if (!e.ok) return op;
    }
    op.ms = (now() - t0) * 1e3;
    op.ok = true;
    return op;
  }

  core::Annotator annotator;
  std::vector<std::unique_ptr<incremental::AnnotationSession>> sessions;
};

/// Opens every design's cold first revision (untimed warm-up).
bool warm_up(Loop& loop, std::vector<Design>& designs) {
  Tracer off(false);
  std::string json;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (!loop.run(i, spice::write_netlist(designs[i].netlist), designs[i].name, off, 0,
                  &json)
             .ok) {
      return false;
    }
  }
  return true;
}

/// An edit whose output is checked after the loop: its step in the edit
/// stream and the hash of the session's bytes. The revision text is
/// rebuilt then by replaying the stream, so the session process holds
/// no copies of checked netlists while it is measured.
struct Pending {
  std::size_t step = 0;
  std::uint64_t hash = 0;
};

/// Checks queued revisions against a cold, cache-free annotator.
std::uint64_t check_cold(const gcn::GcnModel* model,
                         const std::vector<std::string>& classes,
                         std::uint64_t seed, const std::vector<Pending>& pending) {
  const core::Annotator cold(model, classes);
  Designer designer(seed);
  std::uint64_t bad = 0;
  std::size_t step = 0;
  for (const Pending& p : pending) {
    bool structural = false;
    const Design* d = nullptr;
    for (; step <= p.step; ++step) d = &designer.edit(step, &structural);
    auto parsed = spice::parse_netlist_result(spice::write_netlist(d->netlist));
    if (!parsed.ok()) {
      ++bad;
      continue;
    }
    auto r = cold.try_annotate(parsed.value(), d->name);
    if (!r.ok() || fnv1a(core::annotation_to_json(r.value(), classes)) != p.hash) ++bad;
  }
  return bad;
}

std::size_t design_index(std::vector<Design>& designs, const Design& d) {
  return static_cast<std::size_t>(&d - designs.data());
}

Outcome untraced(const Options& o) {
  Outcome out;
  const auto model = load_model(o.model);
  const std::vector<std::string> classes = domain_classes(o.domain);
  Designer designer(o.seed);
  auto& designs = designer.designs();
  Loop loop(model.get(), classes, designs);
  if (!warm_up(loop, designs)) die("a sizing design failed its cold open");

  Tracer off(false);
  std::vector<double> ms;
  std::vector<Pending> pending;
  Score score;
  std::string json;
  const double t0 = now();
  for (std::size_t step = 0; step < kMinOps || now() - t0 < o.seconds; ++step) {
    bool structural = false;
    Design& d = designer.edit(step, &structural);
    const std::string text = spice::write_netlist(d.netlist);
    const Op op = loop.run(design_index(designs, d), text, d.name, off, step, &json);
    ++out.attempted;
    if (!op.ok || !score_annotation(json, d.truth, score)) {
      ++out.failed;
      continue;
    }
    ms.push_back(op.ms);
    if (structural || step % kCheckEvery == 0) {
      pending.push_back({step, fnv1a(json)});
    }
  }
  const double rss = self_maxrss_mb();
  const std::uint64_t bad = check_cold(model.get(), classes, o.seed, pending);
  if (bad != 0) {
    std::fprintf(stderr, "gana_bench: %llu of %zu checked revisions differ from a cold "
                 "annotate\n", static_cast<unsigned long long>(bad), pending.size());
    out.failed += bad;
    out.checks_ok = false;
  }
  out.valid = check_p99("sizing_loop", ms);
  double total = 0.0;
  for (double x : ms) total += x;
  const auto in_slo = std::count_if(ms.begin(), ms.end(), [](double x) { return x <= kSloMs; });
  out.metrics = {{"ops_per_s", ratio(static_cast<double>(ms.size()), total / 1e3), "1/s"},
                 {"p50_ms", quantile(ms, 0.5), "ms"},
                 {"p99_ms", quantile(ms, 0.99), "ms"},
                 {"peak_rss_mb", rss, "MB"},
                 {"acc_final", score.frac(), "frac"},
                 {"slo_frac", ratio(static_cast<double>(in_slo),
                                    static_cast<double>(out.attempted)), "frac"}};
  return out;
}

/// One pass of kTracedOps edits from a fresh designer and fresh
/// sessions; returns the summed op time in ms.
double traced_pass(const Options& o, const gcn::GcnModel* model, Tracer& tracer,
                   std::vector<std::uint64_t>& hashes, Outcome& out,
                   std::map<std::string, std::vector<double>>* by_path,
                   Score* gcn, Score* post1, double* export_bytes,
                   std::vector<Pending>* pending) {
  const std::vector<std::string> classes = domain_classes(o.domain);
  Designer designer(o.seed);
  auto& designs = designer.designs();
  Loop loop(model, classes, designs);
  if (!warm_up(loop, designs)) die("a sizing design failed its cold open");
  const bool first = hashes.empty();
  double total = 0.0;
  std::string json;
  core::AnnotateResult r;
  for (std::size_t step = 0; step < kTracedOps; ++step) {
    bool structural = false;
    Design& d = designer.edit(step, &structural);
    const std::string text = spice::write_netlist(d.netlist);
    const Op op = loop.run(design_index(designs, d), text, d.name, tracer, step, &json,
                           gcn != nullptr ? &r : nullptr);
    total += op.ms;
    const std::uint64_t h = op.ok ? fnv1a(json) : 0;
    if (first) {
      hashes.push_back(h);
      ++out.attempted;
      if (!op.ok) ++out.failed;
    } else if (hashes[step] != h) {
      ++out.failed;
      out.checks_ok = false;
    }
    if (!op.ok) continue;
    if (by_path != nullptr) (*by_path)[op.path].push_back(op.ms);
    if (gcn != nullptr) {
      score_classes(r.prepared.graph, r.gcn_class, classes, d.truth, *gcn);
      score_classes(r.prepared.graph, r.post1_class, classes, d.truth, *post1);
      *export_bytes += static_cast<double>(json.size());
    }
    if (pending != nullptr && (structural || step % kCheckEvery == 0)) {
      pending->push_back({step, h});
    }
  }
  return total;
}

Outcome traced(const Options& o) {
  Outcome out;
  LayerMetrics layers;
  const auto model = load_model(o.model);
  std::vector<std::uint64_t> hashes;
  Tracer off(false);
  Tracer on(true);
  std::vector<Pending> pending;
  std::map<std::string, std::vector<double>> by_path;
  Score gcn, post1;
  double export_bytes = 0.0;
  const double plain = traced_pass(o, model.get(), off, hashes, out, nullptr, nullptr,
                                   nullptr, nullptr, &pending);
  const PerfSnapshot before = perf_snapshot();
  const double timed = traced_pass(o, model.get(), on, hashes, out, &by_path, &gcn,
                                   &post1, &export_bytes, nullptr);
  const PerfSnapshot delta = perf_snapshot() - before;
  const std::uint64_t bad =
      check_cold(model.get(), domain_classes(o.domain), o.seed, pending);
  if (bad != 0) {
    out.failed += bad;
    out.checks_ok = false;
  }
  layers.from_trace(on, kTracedOps, delta);
  const auto self = on.self_seconds();
  for (const char* path : {"incremental.reuse", "incremental.recompute",
                           "incremental.structural"}) {
    const auto it = self.find(path);
    const double calls = static_cast<double>(by_path[path].size());
    layers.set(std::string(path) + "_ms",
               it == self.end() ? 0.0 : ratio(it->second * 1e3, calls));
  }
  layers.set("incremental.result_reuse_frac",
             ratio(static_cast<double>(by_path["incremental.reuse"].size()), kTracedOps));
  layers.set("incremental.region_reuse_frac",
             ratio(static_cast<double>(delta.incr_region_reuses),
                   static_cast<double>(delta.incr_regions)));
  layers.set("gcn.acc", gcn.frac());
  layers.set("core.post1_acc", post1.frac());
  layers.set("core.export_kb_per_op", export_bytes / 1024.0 / kTracedOps);
  layers.set("trace.overhead_frac", timed / plain - 1.0);
  out.valid = on.unaccounted_frac() <= kMaxUnaccounted;
  on.write_chrome_trace(o.work + "/trace_sizing_loop.json");
  out.metrics = layers.list();
  return out;
}

}  // namespace

Outcome run_sizing(const Options& o) { return o.trace ? traced(o) : untraced(o); }

}  // namespace pb
