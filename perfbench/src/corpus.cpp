// corpus: a seeded labeled OTA + SC-filter corpus on disk, annotated by
// `gana_shard --shards 2 --jobs 1` with the trained ota model. Closed-loop
// batch: the same corpus is run again and again for the measuring time
// and the median pass is reported. Latency is per circuit: the time from
// a pass's start until its record reaches the merged output stream.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <sstream>

#include "core/pipeline.hpp"
#include "inputs.hpp"
#include "replay.hpp"
#include "shard/manifest.hpp"
#include "spice/writer.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace pb {

using namespace gana;

namespace {

constexpr std::size_t kCircuits = 2000;
constexpr int kMinPasses = 3;
/// slo_frac counts records that reach the stream within this many ms of
/// their pass's start: about 1.9x a pass on the reference box (1.05 s).
/// A 2x slower pass shows; a slow spell of the host (up to 30%) does not.
constexpr double kSloMs = 2000.0;

struct Corpus {
  std::string manifest;
  std::vector<std::string> names;  ///< manifest entries
  std::vector<std::string> paths;  ///< files on disk
  std::vector<Truth> truth;
};

Corpus write_inputs(const Options& o) {
  Corpus c;
  const std::string dir = o.work + "/corpus";
  make_dirs(dir);
  for (std::size_t i = 0; i < kCircuits; ++i) {
    const datagen::LabeledCircuit circuit = mix_circuit(o.seed, i);
    char name[32];
    std::snprintf(name, sizeof(name), "c%05zu.sp", i);
    c.names.push_back(name);
    c.paths.push_back(dir + "/" + name);
    write_file(c.paths.back(), spice::write_netlist(circuit.netlist));
    c.truth.push_back(truth_of(circuit));
  }
  c.manifest = dir + "/manifest.txt";
  write_file(c.manifest, shard::write_manifest(c.names));
  return c;
}

/// One gana_shard pass, its merged stream read from a FIFO as it is
/// written. `done_ms` receives, per record, the milliseconds from the
/// pass's start until the record arrived: the time a consumer of the
/// stream waits for each circuit.
Exit run_shard(const Options& o, const Corpus& c, const std::string& perf,
               std::string* merged, std::vector<double>* done_ms) {
  const std::string fifo = o.work + "/merged.fifo";
  if (access(fifo.c_str(), F_OK) != 0 && mkfifo(fifo.c_str(), 0600) != 0) {
    die("cannot create " + fifo);
  }
  std::vector<std::string> argv = {
      exe_dir() + "/gana_shard", "--manifest", c.manifest, "--shards", "2",
      "--jobs", "1", "--load-model", o.model, "--domain", o.domain, "--quiet"};
  if (!perf.empty()) {
    argv.push_back("--perf-json");
    argv.push_back(perf);
  }
  const Child child = spawn(argv, fifo);
  const int fd = open(fifo.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) die("cannot open " + fifo);
  merged->clear();
  done_ms->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const double ms = (now() - child.start) * 1e3;
    const auto lines = std::count(buf, buf + n, '\n');
    done_ms->insert(done_ms->end(), static_cast<std::size_t>(lines), ms);
    merged->append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return wait_child(child);
}

/// Splits merged JSONL into per-slot annotation payloads; a slot whose
/// record is missing, out of order or not ok keeps an empty payload.
std::vector<std::string> read_records(const std::string& merged, std::size_t n) {
  std::vector<std::string> payloads(n);
  std::istringstream in(merged);
  std::string line;
  std::size_t slot = 0;
  while (std::getline(in, line) && slot < n) {
    const auto v = json::parse(line);
    if (v.has_value()) {
      const json::Value* index = v->get("index");
      const json::Value* ok = v->get("ok");
      const json::Value* ann = v->get("annotation");
      if (index != nullptr && index->is_number() &&
          static_cast<std::size_t>(index->as_double()) == slot &&
          ok != nullptr && ok->is_bool() && ok->as_bool() && ann != nullptr &&
          ann->is_string()) {
        payloads[slot] = ann->as_string();
      }
    }
    ++slot;
  }
  return payloads;
}

/// Scores every slot; returns the number of failed slots.
std::uint64_t check_records(const std::vector<std::string>& payloads,
                            const Corpus& c, Score& score) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i].empty() || !score_annotation(payloads[i], c.truth[i], score)) {
      ++failed;
    }
  }
  return failed;
}

Outcome untraced(const Options& o, const Corpus& c) {
  Outcome out;
  std::vector<double> rates, rss, p50, p99;
  std::uint64_t reference = 0, in_slo = 0;
  std::size_t one_mode = 0;  ///< passes whose p99 passes check_p99
  Score score;
  const double t0 = now();
  std::string merged;
  std::vector<double> done_ms;
  for (int pass = 0; pass < kMinPasses || now() - t0 < o.seconds; ++pass) {
    const Exit e = run_shard(o, c, "", &merged, &done_ms);
    out.attempted += kCircuits;
    if (!e.ok()) {
      std::fprintf(stderr, "gana_bench: gana_shard exited with status %d\n", e.status);
      out.failed += kCircuits;
      out.checks_ok = false;
      continue;
    }
    rates.push_back(static_cast<double>(kCircuits) / e.wall);
    rss.push_back(e.maxrss_mb);
    p50.push_back(quantile(done_ms, 0.5));
    p99.push_back(quantile(done_ms, 0.99));
    if (check_p99("corpus pass " + std::to_string(pass), done_ms)) ++one_mode;
    const std::uint64_t h = fnv1a(merged);
    if (pass == 0) {
      reference = h;
      out.failed += check_records(read_records(merged, kCircuits), c, score);
    } else if (h != reference) {
      std::fprintf(stderr, "gana_bench: pass %d output differs from pass 0\n", pass);
      out.failed += kCircuits;
      out.checks_ok = false;
      continue;
    }
    in_slo += static_cast<std::uint64_t>(
        std::count_if(done_ms.begin(), done_ms.end(), [](double ms) { return ms <= kSloMs; }));
  }
  out.valid = 2 * one_mode > p99.size();
  out.metrics = {{"ops_per_s", median(rates), "1/s"},
                 {"p50_ms", median(p50), "ms"},
                 {"p99_ms", median(p99), "ms"},
                 {"peak_rss_mb", median(rss), "MB"},
                 {"acc_final", score.frac(), "frac"},
                 {"slo_frac", ratio(static_cast<double>(in_slo),
                                    static_cast<double>(out.attempted)), "frac"}};
  return out;
}

/// One replay pass over the corpus files; returns its wall seconds.
double replay_pass(const Options& o, const Corpus& c, const gcn::GcnModel& model,
                   Tracer& tracer, const std::vector<std::string>& expected,
                   std::uint64_t* mismatches, Score* gcn, Score* post1,
                   double* export_bytes) {
  Replayer replayer(&model, domain_classes(o.domain));
  std::string json;
  core::AnnotateResult r;
  const double t0 = now();
  for (std::size_t i = 0; i < kCircuits; ++i) {
    Scope op(tracer, "op", i);
    std::string text;
    {
      Scope s(tracer, "io.read", i);
      text = read_file(c.paths[i]);
    }
    const bool ok = replayer.annotate(text, c.names[i], tracer, i, &json, &r);
    if (!ok || json != expected[i]) ++*mismatches;
    if (gcn != nullptr && ok) {
      score_classes(r.prepared.graph, r.gcn_class, replayer.annotator().class_names(),
                    c.truth[i], *gcn);
      score_classes(r.prepared.graph, r.post1_class,
                    replayer.annotator().class_names(), c.truth[i], *post1);
      *export_bytes += static_cast<double>(json.size());
    }
  }
  return now() - t0;
}

Outcome traced(const Options& o, const Corpus& c) {
  Outcome out;
  LayerMetrics layers;
  const std::string perf_path = o.work + "/shard_perf.json";
  std::string merged;
  std::vector<double> done_ms;
  const Exit e = run_shard(o, c, perf_path, &merged, &done_ms);
  out.attempted = kCircuits;
  if (!e.ok()) die("gana_shard failed in the traced run");
  const std::vector<std::string> expected = read_records(merged, kCircuits);
  Score final_score;
  out.failed += check_records(expected, c, final_score);

  // Shard layer: process wall against the workers' own summaries.
  const auto perf = json::parse(read_file(perf_path));
  double startup = 0.0, busy = 0.0;
  std::size_t workers = 0;
  if (perf.has_value() && perf->is_array()) {
    for (const json::Value& w : perf->as_array()) {
      const json::Value* s = w.get("startup_seconds");
      const json::Value* p = w.get("perf");
      const json::Value* wall = p != nullptr ? p->get("wall_seconds") : nullptr;
      if (s == nullptr || wall == nullptr) continue;
      startup += s->as_double();
      busy += s->as_double() + wall->as_double();
      ++workers;
    }
  }
  layers.set("shard.startup_s", ratio(startup, static_cast<double>(workers)));
  layers.set("shard.outside_worker_frac",
             1.0 - ratio(busy / static_cast<double>(std::max<std::size_t>(workers, 1)),
                         e.wall));
  layers.set("shard.output_mb", static_cast<double>(merged.size()) / 1e6);

  // In-process replay: untraced, traced, untraced, traced.
  const auto model = load_model(o.model);
  std::uint64_t mismatches = 0;
  std::vector<double> plain, timed;
  Tracer off(false);
  Tracer on(true);
  Score gcn, post1;
  double export_bytes = 0.0;
  PerfSnapshot delta;
  for (int round = 0; round < 2; ++round) {
    plain.push_back(replay_pass(o, c, *model, off, expected, &mismatches, nullptr,
                                nullptr, nullptr));
    if (round == 0) {
      const PerfSnapshot before = perf_snapshot();
      timed.push_back(replay_pass(o, c, *model, on, expected, &mismatches, &gcn,
                                  &post1, &export_bytes));
      delta = perf_snapshot() - before;
    } else {
      Tracer again(true);
      timed.push_back(replay_pass(o, c, *model, again, expected, &mismatches,
                                  nullptr, nullptr, nullptr));
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "gana_bench: %llu replayed circuits differ from gana_shard\n",
                 static_cast<unsigned long long>(mismatches));
    out.checks_ok = false;
  }
  layers.from_trace(on, kCircuits, delta);
  layers.set("gcn.acc", gcn.frac());
  layers.set("core.post1_acc", post1.frac());
  layers.set("core.export_kb_per_op", export_bytes / 1024.0 / kCircuits);
  layers.set("trace.overhead_frac", *std::min_element(timed.begin(), timed.end()) /
                                        *std::min_element(plain.begin(), plain.end()) - 1.0);
  out.valid = on.unaccounted_frac() <= kMaxUnaccounted;
  on.write_chrome_trace(o.work + "/trace_corpus.json");
  out.metrics = layers.list();
  return out;
}

}  // namespace

Outcome run_corpus(const Options& o) {
  const Corpus c = write_inputs(o);
  return o.trace ? traced(o, c) : untraced(o, c);
}

}  // namespace pb
