// The three workloads and the set-up step of gana_bench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "incremental/session.hpp"
#include "trace.hpp"
#include "util/perf.hpp"

namespace pb {

struct Options {
  std::string workload;  ///< corpus | sizing_loop | serve
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;      ///< scratch directory of this run
  std::string model;     ///< model artifact path
  std::string domain;    ///< model vocabulary: ota | rf
  int reps = 3;          ///< set-up repetitions
};

/// Outcome of one workload run: the result-line fields.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< every output check passed
  /// The measurement is valid: the reported p99, a median over passes or
  /// windows, comes from a majority of passes or windows whose p99 has
  /// at least 10 samples beyond it and sits inside one latency mode, and
  /// the traced run's unaccounted_frac is at most kMaxUnaccounted. An
  /// invalid run still prints its result; run.py --steady counts it as
  /// failed.
  bool valid = true;
  std::vector<Metric> metrics;
};

/// Largest share of op wall time the layer spans may leave uncovered.
constexpr double kMaxUnaccounted = 0.05;

int run_setup(const Options& o);
Outcome run_corpus(const Options& o);
Outcome run_sizing(const Options& o);
Outcome run_serve(const Options& o);

/// Starts gana_serve with 2 jobs on `model`. Admission allows 1024
/// requests in flight, so a burst queues (and shows in latency) instead
/// of being shed.
Child start_server(const std::string& socket, const std::string& model,
                   const std::string& domain);
bool wait_for_ping(const std::string& socket, double timeout);

/// Every per-layer metric of the traced run, in BENCHMARK.json order,
/// preset to 0 (a layer a workload does not exercise reads 0).
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  /// Fills the span-derived metrics: per-op self time of each layer
  /// span, unaccounted_frac, and the perf-counter ratios in `perf`.
  void from_trace(const Tracer& t, std::size_t ops, const gana::PerfSnapshot& perf);
  [[nodiscard]] std::vector<Metric> list() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Attaches the sample-prep, annotation and inference caches the CLI
/// and the daemon attach (after the model is in place).
void attach_caches(gana::core::Annotator& a);

/// Span name of the path the session's last reannotate() took:
/// incremental.reuse (stored result re-emitted), .structural (full
/// prepare or changed structure) or .recompute (value patch).
const char* session_path(const gana::incremental::SessionStats& st);

/// One session edit as the traced loops time it: spice parse ->
/// AnnotationSession::reannotate -> core::annotation_to_json, each in its
/// own span. The reannotate span is named after the path the session
/// took (session_path). Freeing the revision's result and parsed netlist
/// is charged to the layers that built them; `keep`, when given,
/// receives the result instead.
struct SessionEdit {
  bool ok = false;
  const char* path = "";  ///< session_path(), or "" when parsing failed
};
SessionEdit session_edit(gana::incremental::AnnotationSession& session,
                         const std::string& text, const std::string& name,
                         const std::vector<std::string>& classes, Tracer& tracer,
                         std::uint64_t op_id, std::string* json,
                         gana::core::AnnotateResult* keep = nullptr);

/// Ratio that reads 0 when the denominator is 0.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace pb
