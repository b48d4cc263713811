// Pins the id-space front end's equivalence contract: for every parsed
// netlist, intern_netlist -> flatten_interned -> preprocess_interned ->
// build_graph(InternedNetlist) (the path core::prepare_circuit runs)
// must produce bit-identical results to the string stages (flatten ->
// preprocess -> build_graph(Netlist)) -- same flattened netlist bytes,
// same PreprocessReport, same graph vertices/edges -- and must reject bad
// hierarchies with the same structured Diag. The parser's rejections are
// pinned to the reference Diags (code, stage, line, message) that both
// the throwing and the Result entry point must produce. Also covers the
// SymbolTable
// determinism properties the batch runner's bit-identical guarantee
// rests on, and the single-read file loader's up-front size limit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "gcn/sample_cache.hpp"
#include "graph/builder.hpp"
#include "spice/flatten.hpp"
#include "spice/interned.hpp"
#include "spice/parser.hpp"
#include "spice/preprocess.hpp"
#include "spice/symbol_table.hpp"
#include "spice/writer.hpp"
#include "util/rng.hpp"

namespace gana::spice {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(GANA_TEST_FIXTURE_DIR) + "/" + name;
}

// A hierarchical netlist exercising nesting, continuation lines,
// .param arithmetic inputs, rails, globals, and port labels.
constexpr const char* kOta = R"(* two-stage ota, hierarchical
.global vbias
.portlabel in1 input
.portlabel out output
.param wn=2u wp=4u
.subckt inv in out
m0 out in gnd! gnd! nmos w=wn l=0.18u
m1 out in vdd! vdd! pmos w=wp l=0.18u
.ends
.subckt diffpair inp inn tail op on
m0 op inp tail gnd! nmos w=wn
+ l=0.18u
m1 on inn tail gnd! nmos w=wn l=0.18u
.ends
.subckt ota inp inn out
xdp inp inn tail o1 o2 diffpair
m2 tail vbias gnd! gnd! nmos w=wn l=0.36u
m3 o1 o1 vdd! vdd! pmos w=wp l=0.18u
m4 o2 o1 vdd! vdd! pmos w=wp l=0.18u
xinv o2 out inv
c0 out gnd! 1p
.ends
x0 in1 in2 out ota
r1 out mid 10k
c1 mid gnd! 100f
.end
)";

// Flat netlist that triggers every preprocessing pass: parallel MOS,
// a series MOS stack, parallel resistors/caps, a dummy and a decap.
constexpr const char* kMergeable = R"(* preprocess workout
m1 out in mid gnd! nmos w=1u l=1u
m2 out in mid gnd! nmos w=1u l=1u
m3 mid in s gnd! nmos w=1u l=2u
m4 s in gnd! gnd! nmos w=1u l=2u
md gnd! gnd! gnd! gnd! nmos w=1u l=1u
cd vdd! gnd! 1p
r1 a b 2k
r2 a b 2k
r3 b c 1k
r4 c d 1k
c1 x y 1p
c2 x y 2p
v1 vdd! gnd! 1.8
.end
)";

struct ReferenceRun {
  Netlist flat;
  PreprocessReport report;
  graph::CircuitGraph graph;
};

struct InternedRun {
  Netlist flat;  ///< materialized at the boundary
  PreprocessReport report;
  graph::CircuitGraph graph;
};

ReferenceRun run_reference(const std::string& text, bool preprocess_pass) {
  ReferenceRun out;
  out.flat = flatten(parse_netlist(text));
  if (preprocess_pass) out.report = preprocess(out.flat);
  out.graph = graph::build_graph(out.flat);
  return out;
}

InternedRun run_interned(const std::string& text, bool preprocess_pass) {
  InternedRun out;
  auto flat = flatten_interned(intern_netlist(parse_netlist(text)));
  if (preprocess_pass) out.report = preprocess_interned(flat);
  out.graph = graph::build_graph(flat);
  out.flat = materialize_netlist(flat);
  return out;
}

void expect_same_graph(const graph::CircuitGraph& a,
                       const graph::CircuitGraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.element_count(), b.element_count());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    SCOPED_TRACE("vertex " + std::to_string(v));
    const auto& x = a.vertex(v);
    const auto& y = b.vertex(v);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.dtype, y.dtype);
    EXPECT_EQ(x.value, y.value);  // exact doubles, not approximate
    EXPECT_EQ(x.hier_depth, y.hier_depth);
    EXPECT_EQ(x.device_index, y.device_index);
    EXPECT_EQ(x.role, y.role);
  }
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    SCOPED_TRACE("edge " + std::to_string(e));
    EXPECT_EQ(a.edge(e).element, b.edge(e).element);
    EXPECT_EQ(a.edge(e).net, b.edge(e).net);
    EXPECT_EQ(a.edge(e).label, b.edge(e).label);
  }
}

void expect_same_report(const PreprocessReport& a, const PreprocessReport& b) {
  EXPECT_EQ(a.merged_parallel, b.merged_parallel);
  EXPECT_EQ(a.merged_series, b.merged_series);
  EXPECT_EQ(a.removed_dummies, b.removed_dummies);
  EXPECT_EQ(a.removed_decaps, b.removed_decaps);
  EXPECT_EQ(a.alias, b.alias);
}

void expect_equivalent(const std::string& text, bool preprocess_pass) {
  const auto ref = run_reference(text, preprocess_pass);
  const auto fast = run_interned(text, preprocess_pass);
  // Byte-identical flattened netlist through the writer.
  EXPECT_EQ(write_netlist(ref.flat), write_netlist(fast.flat));
  expect_same_report(ref.report, fast.report);
  expect_same_graph(ref.graph, fast.graph);
}

TEST(FrontEndEquivalence, HierarchicalOta) {
  expect_equivalent(kOta, /*preprocess_pass=*/false);
  expect_equivalent(kOta, /*preprocess_pass=*/true);
}

TEST(FrontEndEquivalence, PreprocessMergesBitIdentical) {
  expect_equivalent(kMergeable, /*preprocess_pass=*/true);
}

TEST(FrontEndEquivalence, GoldenFixturesBitIdentical) {
  for (const char* fixture :
       {"two_stage_ota", "nested_buffer", "rc_filter", "lna_portlabels",
        "torture_hierarchy"}) {
    SCOPED_TRACE(fixture);
    const std::string path = fixture_path(std::string(fixture) + ".sp");
    const auto parsed = parse_netlist_file(path);
    const auto ref = flatten(parsed);
    const auto fast = flatten_interned(intern_netlist(parsed));
    EXPECT_EQ(write_netlist(ref), write_netlist(materialize_netlist(fast)));
    expect_same_graph(graph::build_graph(ref), graph::build_graph(fast));
  }
}

TEST(FrontEndEquivalence, InternMaterializeRoundTrips) {
  const auto parsed = parse_netlist(kOta);
  EXPECT_EQ(write_netlist(materialize_netlist(intern_netlist(parsed))),
            write_netlist(parsed));
}

// --- Error paths: the parser matches the reference Diags, and both
// flatteners reject with the same Diag. -----------------------------------

Diag capture_diag(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DiagError& e) {
    return e.diag();
  }
  ADD_FAILURE() << "expected a DiagError";
  return {};
}

// One malformed input and the exact Diag the parser rejects it with.
// No source name is given, so every Diag has an empty file; none carries
// notes.
struct RejectionCase {
  const char* text;
  ParseLimits limits;
  DiagCode code;
  Stage stage;
  std::size_t line;
  const char* message;
};

void expect_rejection(const RejectionCase& c) {
  SCOPED_TRACE(std::string("input: ") + c.text);
  ParseOptions options;
  options.limits = c.limits;
  const Diag thrown =
      capture_diag([&] { (void)parse_netlist(c.text, options); });
  const auto result = parse_netlist_result(c.text, options);
  ASSERT_FALSE(result.ok());
  for (const Diag* d : {&thrown, &result.diag()}) {
    EXPECT_EQ(d->code, c.code);
    EXPECT_EQ(d->stage, c.stage);
    EXPECT_EQ(d->loc.line, c.line);
    EXPECT_EQ(d->message, c.message);
    EXPECT_EQ(d->loc.file, "");
    EXPECT_TRUE(d->notes.empty());
  }
}

TEST(FrontEndEquivalence, ParseRejectionsMatchReference) {
  // A title line first where the card is short: on line 1 it would be
  // taken as the netlist title instead (see Parser.ShortFirstLineIsTheTitle).
  const RejectionCase cases[] = {
      {"* t\nm1 d g s\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 2,
       "MOS card needs name, 4 nets, and a model [m1 d g s]"},
      {"r1 a b 1.5kk\n.end\n", {}, DiagCode::BadValue, Stage::Parse, 1,
       "bad value '1.5kk' [r1 a b 1.5kk]"},
      {"* t\nm1 d g s b\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 2,
       "MOS card needs name, 4 nets, and a model [m1 d g s b]"},
      {"* t\nr1 a b\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 2,
       "passive card needs name, 2 nets, value [r1 a b]"},
      {"* t\nx0 a\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 2,
       "instance card needs nets and a subckt [x0 a]"},
      {"* t\nv1 p\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 2,
       "source card needs name and 2 nets [v1 p]"},
      {".subckt\n.ends\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 1,
       ".subckt needs a name [.subckt]"},
      {".subckt a p\n.subckt b q\n", {}, DiagCode::SyntaxError, Stage::Parse,
       2, "nested .subckt definitions are not supported [.subckt b q]"},
      {".ends\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 1,
       ".ends without .subckt [.ends]"},
      {".subckt a p\nr1 p q 1k\n.end\n", {}, DiagCode::SyntaxError,
       Stage::Parse, 1, "unterminated .subckt a"},
      {".bogus x y\n.end\n", {}, DiagCode::UnknownDirective, Stage::Parse, 1,
       "unsupported directive '.bogus' [.bogus x y]"},
      {".param q\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 1,
       "malformed .param entry 'q' [.param q]"},
      {"r1 a b 1k\nr1 a b 2k\n.end\n", {}, DiagCode::DuplicateName,
       Stage::Validate, 2, "duplicate device name r1 in top level"},
      {"x0 a b missing\n.end\n", {}, DiagCode::UndefinedSubckt,
       Stage::Validate, 1,
       "instance x0 in top level references undefined subckt missing"},
      {"+ w=1\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse, 1,
       "continuation with no preceding card"},
  };
  for (const auto& c : cases) expect_rejection(c);
}

TEST(FrontEndEquivalence, LimitRejectionsMatchReference) {
  const RejectionCase cases[] = {
      {"r1 a b 1k\nr2 b c 1k\nr3 c d 1k\n.end\n",
       {.max_lines = 2}, DiagCode::LimitExceeded, Stage::Parse, 3,
       "more than 2 lines of input"},
      {"r1 a b 1k\nrlonger a b 1k\n.end\n",
       {.max_line_length = 8}, DiagCode::LimitExceeded, Stage::Parse, 1,
       "line is 9 bytes, limit 8"},
      {"r1 a b 1k\nr2 b c 1k\n.end\n",
       {.max_input_bytes = 16}, DiagCode::LimitExceeded, Stage::Parse, 0,
       "input is 25 bytes, limit 16"},
  };
  for (const auto& c : cases) expect_rejection(c);
}

TEST(FrontEndEquivalence, FlattenRejectionsMatchReference) {
  const std::string recursive =
      ".subckt a p\nxb p b\n.ends\n.subckt b p\nxa p a\n.ends\nx0 t a\n.end\n";
  const Diag ref =
      capture_diag([&] { (void)flatten(parse_netlist(recursive)); });
  const Diag fast = capture_diag([&] {
    (void)flatten_interned(intern_netlist(parse_netlist(recursive)));
  });
  EXPECT_EQ(ref.code, fast.code);
  EXPECT_EQ(DiagCode::RecursiveSubckt, fast.code);
  EXPECT_EQ(ref.message, fast.message);
  EXPECT_EQ(ref.notes, fast.notes);

  // The parser already rejects a port-count mismatch, so drop a net from
  // a parsed instance to reach the flatteners' own check.
  Netlist mismatch =
      parse_netlist(".subckt cell p q\nr1 p q 1k\n.ends\nx0 a b cell\n.end\n");
  mismatch.instances[0].nets.pop_back();
  const Diag ref2 = capture_diag([&] { (void)flatten(mismatch); });
  const Diag fast2 =
      capture_diag([&] { (void)flatten_interned(intern_netlist(mismatch)); });
  EXPECT_EQ(ref2.code, fast2.code);
  EXPECT_EQ(DiagCode::PortMismatch, fast2.code);
  EXPECT_EQ(ref2.message, fast2.message);
}

// --- Pipeline-level determinism: the prepared circuit matches the
// string stages, and annotations match across 1/2/8 jobs with the sample
// cache on and off. -------------------------------------------------------

core::BatchResult run_batch(const std::vector<Netlist>& batch,
                            const std::vector<std::string>& names,
                            std::size_t jobs, bool cache) {
  core::Annotator annotator(nullptr, {"a", "b"},
                            primitives::PrimitiveLibrary::standard());
  if (cache) {
    annotator.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());
  }
  const core::BatchRunner runner(annotator, {.jobs = jobs});
  return runner.run(batch, names);
}

TEST(FrontEndDeterminism, BatchBitIdenticalAcrossJobsAndCache) {
  std::vector<Netlist> batch;
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(parse_netlist(i % 2 == 0 ? kOta : kMergeable));
    names.push_back("fe/" + std::to_string(i));
  }

  // Sequential, uncached: every prepared circuit must equal the string
  // stages run on the same netlist.
  const auto ref = run_batch(batch, names, 1, false);
  ASSERT_EQ(ref.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("circuit " + std::to_string(i));
    const auto& prepared = ref.results[i].prepared;
    Netlist flat = flatten(batch[i], names[i]);
    const PreprocessReport report = preprocess(flat);
    EXPECT_EQ(write_netlist(flat), write_netlist(prepared.flat));
    expect_same_report(report, prepared.preprocess_report);
    expect_same_graph(graph::build_graph(flat), prepared.graph);
  }

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    for (const bool cache : {false, true}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " cache=" + (cache ? "on" : "off"));
      const auto got = run_batch(batch, names, jobs, cache);
      ASSERT_EQ(got.results.size(), ref.results.size());
      for (std::size_t i = 0; i < got.results.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        const auto& a = ref.results[i];
        const auto& b = got.results[i];
        EXPECT_EQ(a.final_class, b.final_class);
        EXPECT_EQ(to_string(a.hierarchy), to_string(b.hierarchy));
      }
    }
  }
}

// --- SymbolTable properties. ------------------------------------------

std::string random_name(Rng& rng) {
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789_/!";
  const std::size_t len = 1 + rng.next_u64() % 12;
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlpha[rng.next_u64() % (sizeof(kAlpha) - 1)];
  }
  return out;
}

TEST(SymbolTableProperty, RoundTripDenseStableDeterministic) {
  Rng rng(20260806);
  std::vector<std::string> sequence;
  sequence.reserve(5000);
  for (int i = 0; i < 5000; ++i) sequence.push_back(random_name(rng));

  SymbolTable a;
  SymbolTable b;
  std::vector<SymbolId> first_ids;
  first_ids.reserve(sequence.size());
  for (const auto& name : sequence) {
    const SymbolId id = a.intern(name);
    first_ids.push_back(id);
    // Dense: an id never exceeds the number of distinct symbols seen.
    EXPECT_LT(id, a.size());
    // Two tables fed the same sequence assign identical ids.
    EXPECT_EQ(b.intern(name), id);
  }
  EXPECT_EQ(a.size(), b.size());

  for (std::size_t i = 0; i < sequence.size(); ++i) {
    // Round-trip: every id resolves back to the exact bytes.
    EXPECT_EQ(a.name(first_ids[i]), sequence[i]);
    // Stable: re-interning never mints a new id.
    EXPECT_EQ(a.intern(sequence[i]), first_ids[i]);
    // find() agrees and never mutates.
    EXPECT_EQ(a.find(sequence[i]), first_ids[i]);
  }
  const std::size_t size_before = a.size();
  EXPECT_EQ(a.find("never-interned-name"), kNoSymbol);
  EXPECT_EQ(a.size(), size_before);

  // Ids are dense 0..size-1: every id in range resolves to a name that
  // interns back to itself.
  for (SymbolId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.intern(a.name(id)), id);
  }
}

TEST(SymbolTableProperty, ViewsSurviveRehashAndArenaGrowth) {
  SymbolTable t;
  const std::string_view early = t.name(t.intern("anchor"));
  // Force many rehashes and multiple arena chunks.
  for (int i = 0; i < 20000; ++i) {
    t.intern("sym/" + std::to_string(i) + std::string(16, 'x'));
  }
  EXPECT_EQ(early, "anchor");
  EXPECT_EQ(t.find("anchor"), SymbolId{0});
  EXPECT_GT(t.arena_bytes(), std::size_t{1} << 16);
}

// --- Single-read file loader. -----------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = ::testing::TempDir() + "frontend_test_input.sp";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ReadNetlistText, LoadsWholeFileInOneRead) {
  const std::string text = "r1 a b 1k\n.end\n";
  TempFile file(text);
  EXPECT_EQ(read_netlist_text(file.path()), text);
}

TEST(ReadNetlistText, SizeLimitCheckedUpFront) {
  TempFile file("r1 a b 1k\nr2 b c 1k\nr3 c d 1k\n.end\n");
  ParseLimits limits;
  limits.max_input_bytes = 8;
  const Diag diag =
      capture_diag([&] { (void)read_netlist_text(file.path(), limits); });
  EXPECT_EQ(diag.code, DiagCode::LimitExceeded);
  EXPECT_EQ(diag.loc.file, file.path());
  // The limit fires before any line parsing: the message reports the
  // whole file size, not a line count.
  EXPECT_NE(diag.message.find("limit 8"), std::string::npos);
}

TEST(ReadNetlistText, MissingFileIsAnIoError) {
  const Diag diag = capture_diag(
      [] { (void)read_netlist_text("/nonexistent/gana/input.sp"); });
  EXPECT_EQ(diag.code, DiagCode::IoError);
}

TEST(ReadNetlistText, FileParsersShareTheLoader) {
  // The throwing and the Result file parsers read through the same
  // loader and parse exactly what the text parser does.
  TempFile file(kOta);
  const std::string expected = write_netlist(parse_netlist(kOta));
  EXPECT_EQ(write_netlist(parse_netlist_file(file.path())), expected);
  auto result = parse_netlist_file_result(file.path());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(write_netlist(result.take()), expected);
}

}  // namespace
}  // namespace gana::spice
