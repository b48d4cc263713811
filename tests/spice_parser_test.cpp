#include <gtest/gtest.h>

#include <sstream>

#include "spice/number.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"

namespace gana::spice {
namespace {

TEST(Number, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_number("10"), 10.0);
  EXPECT_DOUBLE_EQ(*parse_number("1e-12"), 1e-12);
  EXPECT_DOUBLE_EQ(*parse_number("-2.5"), -2.5);
}

TEST(Number, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(*parse_number("2k"), 2e3);
  EXPECT_DOUBLE_EQ(*parse_number("10MEG"), 10e6);
  EXPECT_DOUBLE_EQ(*parse_number("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(*parse_number("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(*parse_number("7p"), 7e-12);
  EXPECT_DOUBLE_EQ(*parse_number("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(*parse_number("4m"), 4e-3);
  EXPECT_DOUBLE_EQ(*parse_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(*parse_number("2t"), 2e12);
}

TEST(Number, UnitLettersIgnored) {
  EXPECT_DOUBLE_EQ(*parse_number("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(*parse_number("2kohm"), 2e3);
  EXPECT_DOUBLE_EQ(*parse_number("1.2v"), 1.2);
}

TEST(Number, Invalid) {
  EXPECT_FALSE(parse_number("abc").has_value());
  EXPECT_FALSE(parse_number("").has_value());
}

TEST(Number, ExponentVsMegVsMilli) {
  // The three classic confusables: an exponent, the "meg" word, and the
  // single-letter milli suffix.
  EXPECT_DOUBLE_EQ(*parse_number("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(*parse_number("1m"), 1e-3);
  // "meg" must win over a bare 'm' followed by unit letters.
  EXPECT_DOUBLE_EQ(*parse_number("1megohm"), 1e6);
  EXPECT_DOUBLE_EQ(*parse_number("1mv"), 1e-3);
}

TEST(Number, UppercaseSuffixes) {
  EXPECT_DOUBLE_EQ(*parse_number("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(*parse_number("2K"), 2e3);
  EXPECT_DOUBLE_EQ(*parse_number("3U"), 3e-6);
  EXPECT_DOUBLE_EQ(*parse_number("4M"), 4e-3);
  EXPECT_DOUBLE_EQ(*parse_number("5G"), 5e9);
  EXPECT_DOUBLE_EQ(*parse_number("1.5E3"), 1500.0);
  EXPECT_DOUBLE_EQ(*parse_number("10PF"), 10e-12);
}

TEST(Number, TrailingGarbageRejected) {
  // A doubled suffix is not "the first suffix plus noise" -- it must be
  // rejected outright, never silently read as 1.5k.
  EXPECT_FALSE(parse_number("1.5kk").has_value());
  EXPECT_FALSE(parse_number("1megmeg").has_value());
  EXPECT_FALSE(parse_number("2kx").has_value());
  EXPECT_FALSE(parse_number("3u7").has_value());
  EXPECT_FALSE(parse_number("1.0e3garbage").has_value());
  EXPECT_FALSE(parse_number("10p!").has_value());
  // But recognized unit words after a suffix still pass.
  EXPECT_DOUBLE_EQ(*parse_number("2kohms"), 2e3);
  EXPECT_DOUBLE_EQ(*parse_number("0.18um"), 0.18e-6);
  EXPECT_DOUBLE_EQ(*parse_number("1nH"), 1e-9);
}

TEST(Parser, MinimalMos) {
  const auto n = parse_netlist(R"(
* test
m0 d g s b nmos w=1u l=45n
.end
)");
  ASSERT_EQ(n.devices.size(), 1u);
  const Device& d = n.devices[0];
  EXPECT_EQ(d.name, "m0");
  EXPECT_EQ(d.type, DeviceType::Nmos);
  ASSERT_EQ(d.pins.size(), 4u);
  EXPECT_EQ(d.pins[kDrain], "d");
  EXPECT_EQ(d.pins[kGate], "g");
  EXPECT_EQ(d.pins[kSource], "s");
  EXPECT_EQ(d.pins[kBody], "b");
  EXPECT_DOUBLE_EQ(d.params.at("w"), 1e-6);
  EXPECT_DOUBLE_EQ(d.params.at("l"), 45e-9);
}

TEST(Parser, PmosFromModelName) {
  const auto n = parse_netlist("m1 d g s b pch_lvt\n.end\n");
  EXPECT_EQ(n.devices[0].type, DeviceType::Pmos);
}

TEST(Parser, ModelCardOverridesHeuristic) {
  const auto n = parse_netlist(R"(
.model weird nmos
m1 d g s b weird
.end
)");
  EXPECT_EQ(n.devices[0].type, DeviceType::Nmos);
}

TEST(Parser, Passives) {
  const auto n = parse_netlist(R"(
r1 a b 10k
c1 a 0 2p
l1 b 0 3n
.end
)");
  ASSERT_EQ(n.devices.size(), 3u);
  EXPECT_EQ(n.devices[0].type, DeviceType::Resistor);
  EXPECT_DOUBLE_EQ(n.devices[0].value, 10e3);
  EXPECT_EQ(n.devices[1].type, DeviceType::Capacitor);
  EXPECT_DOUBLE_EQ(n.devices[1].value, 2e-12);
  EXPECT_EQ(n.devices[2].type, DeviceType::Inductor);
}

TEST(Parser, Sources) {
  const auto n = parse_netlist(R"(
v1 vdd! 0 dc 1.2
i1 vdd! nb 10u
.end
)");
  EXPECT_EQ(n.devices[0].type, DeviceType::VSource);
  EXPECT_DOUBLE_EQ(n.devices[0].value, 1.2);
  EXPECT_EQ(n.devices[1].type, DeviceType::ISource);
  EXPECT_DOUBLE_EQ(n.devices[1].value, 10e-6);
}

TEST(Parser, Continuations) {
  const auto n = parse_netlist("m0 d g\n+ s b\n+ nmos w=1u\n.end\n");
  ASSERT_EQ(n.devices.size(), 1u);
  EXPECT_EQ(n.devices[0].model, "nmos");
}

TEST(Parser, CommentsStripped) {
  const auto n = parse_netlist(R"(
* full line comment
r1 a b 1k $ inline comment
r2 a b 2k ; another style
.end
)");
  EXPECT_EQ(n.devices.size(), 2u);
  EXPECT_DOUBLE_EQ(n.devices[1].value, 2e3);
}

TEST(Parser, SubcktRoundTrip) {
  const auto n = parse_netlist(R"(
.subckt myota inp inn out
m0 out inp tail gnd! nmos
m1 x inn tail gnd! nmos
.ends
x0 a b c myota
.end
)");
  ASSERT_EQ(n.subckts.size(), 1u);
  const auto& def = n.subckts.at("myota");
  EXPECT_EQ(def.ports.size(), 3u);
  EXPECT_EQ(def.devices.size(), 2u);
  ASSERT_EQ(n.instances.size(), 1u);
  EXPECT_EQ(n.instances[0].subckt, "myota");
  EXPECT_EQ(n.instances[0].nets.size(), 3u);
}

TEST(Parser, PortLabels) {
  const auto n = parse_netlist(R"(
.portlabel rfin antenna
.portlabel lo1 lo
.portlabel vb bias
r1 rfin lo1 50
.end
)");
  EXPECT_EQ(n.port_labels.at("rfin"), PortLabel::Antenna);
  EXPECT_EQ(n.port_labels.at("lo1"), PortLabel::LocalOsc);
  EXPECT_EQ(n.port_labels.at("vb"), PortLabel::Bias);
}

TEST(Parser, ParamSubstitution) {
  const auto n = parse_netlist(R"(
.param wn=2u rload=10k
m0 d g s b nmos w=wn l=100n
r1 d g rload
.end
)");
  EXPECT_DOUBLE_EQ(n.devices[0].params.at("w"), 2e-6);
  EXPECT_DOUBLE_EQ(n.devices[1].value, 10e3);
}

TEST(Parser, ParamReferencesEarlierParam) {
  const auto n = parse_netlist(R"(
.param base=1k
.param big=base
r1 a b big
.end
)");
  EXPECT_DOUBLE_EQ(n.devices[0].value, 1e3);
}

TEST(Parser, ParamQuotedReference) {
  const auto n = parse_netlist(R"(
.param cw=4u
m0 d g s b nmos w={cw}
.end
)");
  EXPECT_DOUBLE_EQ(n.devices[0].params.at("w"), 4e-6);
}

TEST(Parser, UndefinedParamIsError) {
  EXPECT_THROW(parse_netlist("* t\nr1 a b nosuchparam\n.end\n"), ParseError);
}

TEST(Parser, MalformedParamDirective) {
  EXPECT_THROW(parse_netlist("* t\n.param justname\n.end\n"), ParseError);
}

TEST(Parser, GlobalNets) {
  const auto n = parse_netlist(".global vdd! gnd!\nr1 vdd! gnd! 1k\n.end\n");
  EXPECT_TRUE(n.globals.count("vdd!"));
  EXPECT_TRUE(n.globals.count("gnd!"));
}

TEST(Parser, TitleLine) {
  const auto n = parse_netlist("my amazing circuit\nr1 a b 1\n.end\n");
  EXPECT_EQ(n.title, "my amazing circuit");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("* title\nr1 a b\n.end\n");  // missing value on line 2
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("<input>:2:"), std::string::npos);
    EXPECT_EQ(e.diag().loc.line, 2u);
    EXPECT_EQ(e.diag().stage, gana::Stage::Parse);
  }
}

TEST(Parser, RejectsUnknownCard) {
  // The q card is on line 2, past the title position.
  EXPECT_THROW(parse_netlist("* title\nq1 a b c pnp\n.end\n"), ParseError);
}

TEST(Parser, ProseTitleStartingWithDeviceLetter) {
  // "my amazing circuit" starts with 'm' but has too few tokens to be a
  // MOS card: treated as the title.
  const auto n = parse_netlist("my amazing circuit v2\nr1 a b 1k\n.end\n");
  EXPECT_EQ(n.title, "my amazing circuit v2");
  EXPECT_EQ(n.devices.size(), 1u);
}

TEST(Parser, RejectsUnterminatedSubckt) {
  EXPECT_THROW(parse_netlist(".subckt foo a\nr1 a b 1\n.end\n"), ParseError);
}

TEST(Parser, RejectsBadPortLabel) {
  EXPECT_THROW(parse_netlist(".portlabel x banana\n.end\n"), ParseError);
}

TEST(Parser, RejectsInstanceOfUndefinedSubckt) {
  EXPECT_THROW(parse_netlist("x0 a b nosuch\n.end\n"), NetlistError);
}

TEST(Parser, RejectsPortCountMismatch) {
  EXPECT_THROW(parse_netlist(R"(
.subckt two a b
r1 a b 1k
.ends
x0 n1 two
.end
)"),
               NetlistError);
}

TEST(Parser, ShortFirstLineIsTheTitle) {
  // Too few tokens for the card its letter names: line 1 is the title,
  // not a malformed card, and the netlist has no devices.
  for (const char* title : {"m1 d g s", "r1 a b", "x0 a"}) {
    SCOPED_TRACE(title);
    const auto n = parse_netlist(std::string(title) + "\n.end\n");
    EXPECT_EQ(n.title, title);
    EXPECT_TRUE(n.devices.empty());
    EXPECT_TRUE(n.instances.empty());
    EXPECT_EQ(write_netlist(n), std::string(title) + "\n.end\n");
  }
}

TEST(Writer, RoundTripPreservesStructure) {
  const auto original = parse_netlist(R"(
.global vdd!
.portlabel in input
.subckt inv in out
m0 out in gnd! gnd! nmos w=1u l=50n
m1 out in vdd! vdd! pmos w=2u l=50n
.ends
x0 in mid inv
x1 mid out inv
c1 out 0 10f
.end
)");
  const auto reparsed = parse_netlist(write_netlist(original));
  EXPECT_EQ(reparsed.subckts.size(), original.subckts.size());
  EXPECT_EQ(reparsed.instances.size(), original.instances.size());
  EXPECT_EQ(reparsed.devices.size(), original.devices.size());
  EXPECT_EQ(reparsed.port_labels.size(), original.port_labels.size());
  EXPECT_EQ(reparsed.globals, original.globals);
  EXPECT_EQ(reparsed.subckts.at("inv").devices[0].params.at("w"), 1e-6);
}

TEST(Netlist, ConnectivityMap) {
  const auto n = parse_netlist("r1 a b 1k\nr2 b c 1k\n.end\n");
  const auto conn = n.connectivity();
  EXPECT_EQ(conn.at("b").size(), 2u);
  EXPECT_EQ(conn.at("a").size(), 1u);
}

TEST(Netlist, NetsSorted) {
  const auto n = parse_netlist("r1 z a 1k\nr2 a m 1k\n.end\n");
  const auto nets = n.nets();
  ASSERT_EQ(nets.size(), 3u);
  EXPECT_EQ(nets[0], "a");
  EXPECT_EQ(nets[2], "z");
}

// ---------------------------------------------------------------------
// Edge cases: inputs real netlists throw at parsers -- continuations in
// awkward places, mixed case, degenerate subckts, name collisions.

TEST(ParserEdge, ContinuationSplitsOneCardAcrossManyLines) {
  const auto n = parse_netlist(
      "m0 d g\n"
      "+ s b\n"
      "+ nmos\n"
      "+ w=2u l=180n\n"
      ".end\n");
  ASSERT_EQ(n.devices.size(), 1u);
  EXPECT_EQ(n.devices[0].pins, (std::vector<std::string>{"d", "g", "s", "b"}));
  EXPECT_DOUBLE_EQ(n.devices[0].params.at("w"), 2e-6);
}

TEST(ParserEdge, ContinuationSkipsInterveningComments) {
  // A full-line comment between a card and its continuation is dropped;
  // the continuation still attaches to the card before the comment.
  const auto n = parse_netlist(
      "m0 d g s b nmos\n"
      "* sizing chosen by the optimizer\n"
      "+ w=1u\n"
      ".end\n");
  ASSERT_EQ(n.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(n.devices[0].params.at("w"), 1e-6);
}

TEST(ParserEdge, LeadingContinuationIsAnErrorNotACrash) {
  EXPECT_THROW(parse_netlist("+ m0 d g s b nmos\n.end\n"), ParseError);
}

TEST(ParserEdge, ContinuationWithOnlyPlusIsHarmless) {
  const auto n = parse_netlist("r1 a b 1k\n+\n.end\n");
  ASSERT_EQ(n.devices.size(), 1u);
}

TEST(ParserEdge, MixedCaseCardsAreNormalized) {
  const auto n = parse_netlist(
      "M1 D G S B NMOS W=2U\n"
      "R1 A B 1K\n"
      "X0 A B MyCell\n"
      ".SUBCKT MyCell p q\n"
      "C1 p q 1P\n"
      ".ENDS\n"
      ".END\n");
  ASSERT_EQ(n.devices.size(), 2u);
  EXPECT_EQ(n.devices[0].name, "m1");
  EXPECT_EQ(n.devices[0].type, DeviceType::Nmos);
  EXPECT_EQ(n.devices[0].pins[0], "d");
  EXPECT_DOUBLE_EQ(n.devices[0].params.at("w"), 2e-6);
  ASSERT_EQ(n.instances.size(), 1u);
  EXPECT_EQ(n.instances[0].subckt, "mycell");
  EXPECT_EQ(n.subckts.count("mycell"), 1u);
}

TEST(ParserEdge, EmptySubcktParsesToZeroDevices) {
  const auto n = parse_netlist(
      ".subckt stub a b\n"
      ".ends\n"
      "x0 p q stub\n"
      ".end\n");
  ASSERT_EQ(n.subckts.count("stub"), 1u);
  EXPECT_TRUE(n.subckts.at("stub").devices.empty());
  EXPECT_TRUE(n.subckts.at("stub").instances.empty());
}

TEST(ParserEdge, CommentOnlySubcktParsesToZeroDevices) {
  const auto n = parse_netlist(
      ".subckt todo in out\n"
      "* placeholder -- devices arrive in a later revision\n"
      "; nothing here either\n"
      ".ends\n"
      ".end\n");
  EXPECT_TRUE(n.subckts.at("todo").devices.empty());
}

TEST(ParserEdge, DuplicateDeviceNamesRejected) {
  EXPECT_THROW(parse_netlist("r1 a b 1k\nr1 b c 2k\n.end\n"), NetlistError);
}

TEST(ParserEdge, DuplicateInstanceNamesRejected) {
  EXPECT_THROW(parse_netlist(
                   ".subckt cell a\nr0 a gnd! 1k\n.ends\n"
                   "x0 p cell\n"
                   "x0 q cell\n"
                   ".end\n"),
               NetlistError);
}

TEST(ParserEdge, DuplicateNamesInsideSubcktRejected) {
  EXPECT_THROW(parse_netlist(
                   ".subckt cell a b\n"
                   "m0 a b gnd! gnd! nmos\n"
                   "m0 b a gnd! gnd! nmos\n"
                   ".ends\n.end\n"),
               NetlistError);
}

TEST(ParserEdge, DeviceAndInstanceSharingANameRejected) {
  // Unreachable through the parser (card letters differ), but netlists
  // built programmatically can collide; validate() must catch it.
  Netlist n;
  SubcktDef cell;
  cell.name = "cell";
  cell.ports = {"a"};
  n.subckts["cell"] = cell;
  Device d;
  d.name = "x0";
  d.type = DeviceType::Resistor;
  d.pins = {"p", "q"};
  n.devices.push_back(d);
  n.instances.push_back({"x0", "cell", {"p"}});
  EXPECT_THROW(n.validate(), NetlistError);
}

TEST(ParserEdge, SameDeviceNameInDifferentScopesAllowed) {
  // Scoping makes these distinct after flattening ("x0/m0", "x1/m0").
  const auto n = parse_netlist(
      ".subckt a p\nm0 p p gnd! gnd! nmos\n.ends\n"
      ".subckt b p\nm0 p p vdd! vdd! pmos\n.ends\n"
      "x0 n1 a\n"
      "x1 n1 b\n"
      "m0 n1 n1 gnd! gnd! nmos\n"
      ".end\n");
  EXPECT_EQ(n.devices.size(), 1u);
  EXPECT_EQ(n.subckts.size(), 2u);
}

TEST(ParserEdge, UnterminatedSubcktIsAnError) {
  EXPECT_THROW(parse_netlist(".subckt open a b\nr1 a b 1k\n"), ParseError);
}

TEST(Netlist, RailClassification) {
  EXPECT_TRUE(is_supply_net("vdd!"));
  EXPECT_TRUE(is_supply_net("VDD"));
  EXPECT_TRUE(is_supply_net("avdd2"));
  EXPECT_TRUE(is_ground_net("0"));
  EXPECT_TRUE(is_ground_net("gnd!"));
  EXPECT_TRUE(is_ground_net("vss"));
  EXPECT_FALSE(is_supply_net("vout"));
  EXPECT_FALSE(is_ground_net("vin"));
}

// read_netlist_text sizes its buffer from a pre-read tellg probe; a
// file that changes size between probe and read must be diagnosed, not
// parsed as a torn prefix. read_probed_text is the probe-vs-read
// verification seam with the stream injectable.
TEST(ReadProbedText, ExactSizeRoundTrips) {
  std::istringstream in("m0 d g s b nmos\n");
  EXPECT_EQ(read_probed_text(in, 16, "x.sp"), "m0 d g s b nmos\n");
}

TEST(ReadProbedText, ShrunkenFileIsIoError) {
  // Probe said 32 bytes, only 10 arrive: without the check the buffer
  // would be a NUL-padded torn prefix.
  std::istringstream in("r1 a b 10k");
  try {
    (void)read_probed_text(in, 32, "shrunk.sp");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::IoError);
    EXPECT_EQ(e.diag().stage, Stage::Io);
    EXPECT_NE(e.diag().message.find("shrank"), std::string::npos)
        << e.diag().message;
    EXPECT_NE(e.diag().message.find("shrunk.sp"), std::string::npos);
  }
}

TEST(ReadProbedText, GrownFileIsIoError) {
  // Probe said 5 bytes but more follow: without the trailing-bytes
  // check the parse would silently see a truncated netlist.
  std::istringstream in("r1 a b 10k\nc1 b 0 1p\n");
  try {
    (void)read_probed_text(in, 5, "grown.sp");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::IoError);
    EXPECT_NE(e.diag().message.find("grew"), std::string::npos)
        << e.diag().message;
    EXPECT_NE(e.diag().message.find("grown.sp"), std::string::npos);
  }
}

TEST(ReadProbedText, ZeroProbeWithContentIsGrowth) {
  std::istringstream in("x");
  EXPECT_THROW((void)read_probed_text(in, 0, "z.sp"), ParseError);
  std::istringstream empty("");
  EXPECT_EQ(read_probed_text(empty, 0, "e.sp"), "");
}

}  // namespace
}  // namespace gana::spice
