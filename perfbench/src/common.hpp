// Shared helpers of gana_bench: clocks, order statistics, child
// processes, the result line, and ground-truth scoring of annotation
// JSON.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datagen/sizing.hpp"
#include "gcn/model.hpp"
#include "graph/circuit_graph.hpp"

namespace pb {

/// Monotonic seconds.
double now();

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Checks that the p99 of `v` sits inside one latency mode: at least
/// ten samples lie above it, and the quantiles 0.5 percent either side
/// of it differ by less than 2x (a wider jump marks a mode boundary,
/// where the p99 would flip between modes from run to run). Writes a
/// one-line verdict to stderr and returns it.
bool check_p99(const std::string& label, const std::vector<double>& v);

std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view data);
void make_dirs(const std::string& path);
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull);

/// Directory holding this executable (the build tree: gana_shard and
/// gana_serve sit next to gana_bench).
std::string exe_dir();

/// A child process started by spawn().
struct Child {
  pid_t pid = -1;
  double start = 0.0;
};
/// Forks the helper process that starts and reaps every child (see
/// common.cpp). Call first thing in main, before the benchmark grows.
void start_spawner();
/// Starts argv[0] with the given arguments; stdout goes to `stdout_path`
/// when non-empty (else /dev/null), stderr is inherited.
Child spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path = "");
struct Exit {
  int status = -1;        ///< raw wait status
  double wall = 0.0;      ///< seconds from spawn to exit
  double maxrss_mb = 0.0; ///< peak RSS of the child and its reaped children
  [[nodiscard]] bool ok() const;
};
Exit wait_child(const Child& c);
/// SIGTERM, then SIGKILL after `grace` seconds; always reaps.
Exit stop_child(const Child& c, double grace = 5.0);
/// Peak RSS of this process, MB.
double self_maxrss_mb();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
/// Prints the result object as the last stdout line, with a "valid"
/// key beside the four keys of the result contract.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, bool valid);

/// Ground truth of one circuit: vertex name -> class name, for every
/// vertex core::prepare_circuit labels (rails and unlabeled devices are
/// absent, so they are never scored).
using Truth = std::unordered_map<std::string, std::string>;
Truth truth_of(const gana::datagen::LabeledCircuit& c);

/// Labeled vertices seen and matched.
struct Score {
  std::uint64_t labeled = 0;
  std::uint64_t correct = 0;
  [[nodiscard]] double frac() const {
    return labeled == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(labeled);
  }
};
/// Scores the final vertex classes of an annotation JSON document
/// (core::annotation_to_json bytes) against `truth`. Returns false when
/// the document has no vertex list.
bool score_annotation(std::string_view json, const Truth& truth, Score& out);
/// Ground truth compact enough to keep for every request of a long run:
/// sorted (fnv1a of vertex name, fnv1a of class name) pairs.
using HashedTruth = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
HashedTruth hashed(const Truth& truth);
bool score_annotation(std::string_view json, const HashedTruth& truth, Score& out);
/// Scores per-vertex class ids of `g` against `truth`.
void score_classes(const gana::graph::CircuitGraph& g,
                   const std::vector<int>& classes,
                   const std::vector<std::string>& class_names,
                   const Truth& truth, Score& out);

/// Loads a model artifact; exits the process on failure.
std::unique_ptr<gana::gcn::GcnModel> load_model(const std::string& path);

/// Class vocabulary of a model domain ("ota" or "rf").
std::vector<std::string> domain_classes(const std::string& domain);

/// Prints a message to stderr and exits with status 2 (a harness fault,
/// not an output-check failure).
[[noreturn]] void die(const std::string& message);

}  // namespace pb
