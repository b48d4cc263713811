#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "spice/number.hpp"
#include "util/deadline.hpp"
#include "util/perf.hpp"
#include "util/strings.hpp"

namespace gana::spice {

namespace {

/// True if a normalized (trimmed, lower-cased) logical line is a device,
/// instance, or directive card rather than free-form title prose.
bool looks_like_card(const std::string& s) {
  if (s.empty()) return false;
  const char c = s.front();
  if (c == '.') return true;
  // A device/instance card: recognized leading letter and the minimum
  // token count for that card type (so prose titles like "my amplifier"
  // are not mistaken for MOS cards).
  const std::size_t tokens = split_ws(s).size();
  switch (c) {
    case 'm': return tokens >= 6;
    case 'r':
    case 'c':
    case 'l': return tokens >= 4;
    case 'v':
    case 'i':
    case 'x': return tokens >= 3;
    default: return false;
  }
}

struct Line {
  std::string text;
  std::size_t number;  // 1-based line number of the first physical line
};

/// Splits "key=value" tokens; tolerates spaces around '=' having been
/// collapsed by tokenization ("w = 1u" arrives as "w", "=", "1u").
std::vector<std::string> normalize_param_tokens(std::vector<std::string> t) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] == "=" && !out.empty() && i + 1 < t.size()) {
      ++i;
      out.back() += "=" + t[i];
    } else if (ends_with(t[i], "=") && i + 1 < t.size()) {
      std::string merged = t[i];
      ++i;
      merged += t[i];
      out.push_back(std::move(merged));
    } else if (starts_with(t[i], "=") && !out.empty()) {
      out.back() += t[i];
    } else {
      out.push_back(t[i]);
    }
  }
  return out;
}

bool is_param_token(const std::string& t) {
  return t.find('=') != std::string::npos;
}

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Netlist run() {
    perf::count_parse_bytes(text_.size());
    // Per-request deadline / fault-injection site at parse entry; the
    // loop below re-checks the deadline every 256 logical lines so a
    // huge input cannot overstay its budget by a whole parse.
    checkpoint(Stage::Parse);
    split_lines();
    std::size_t i = 0;
    // Only the physically-first line can be a title (SPICE convention);
    // anything later that fails to parse is an error, not a title.
    if (!lines_.empty() && lines_[0].number == 1 &&
        !looks_like_card(lines_[0].text)) {
      netlist_.title = lines_[0].text;
      i = 1;
    }
    // First pass: collect .model cards so device typing is order-independent.
    for (std::size_t j = i; j < lines_.size(); ++j) {
      const auto tokens = split_ws(lines_[j].text);
      if (!tokens.empty() && tokens[0] == ".model" && tokens.size() >= 3) {
        if (tokens[2] == "pmos") models_[tokens[1]] = DeviceType::Pmos;
        if (tokens[2] == "nmos") models_[tokens[1]] = DeviceType::Nmos;
      }
    }
    for (; i < lines_.size(); ++i) {
      if ((i & 255u) == 0) check_deadline(Stage::Parse);
      parse_card(lines_[i]);
    }
    if (current_subckt_ != nullptr) {
      throw ParseError(make_diag(
          DiagCode::SyntaxError, Stage::Parse,
          "unterminated .subckt " + current_subckt_->name,
          loc(current_subckt_->src_line)));
    }
    netlist_.validate(options_.source);
    return std::move(netlist_);
  }

 private:
  [[nodiscard]] SourceLoc loc(std::size_t line_number) const {
    return SourceLoc{options_.source, line_number};
  }

  [[noreturn]] void fail(const Line& line, DiagCode code,
                         const std::string& what) const {
    std::string shown = line.text;
    if (shown.size() > 120) shown = shown.substr(0, 117) + "...";
    throw ParseError(make_diag(code, Stage::Parse,
                               what + " [" + shown + "]", loc(line.number)));
  }

  [[noreturn]] void fail_limit(std::size_t line_number,
                               const std::string& what) const {
    throw ParseError(make_diag(DiagCode::LimitExceeded, Stage::Parse, what,
                               loc(line_number)));
  }

  /// Joins continuation lines, strips comments, lower-cases, and applies
  /// the input-size guards.
  void split_lines() {
    const ParseLimits& lim = options_.limits;
    if (lim.max_input_bytes != 0 && text_.size() > lim.max_input_bytes) {
      fail_limit(0, "input is " + std::to_string(text_.size()) +
                        " bytes, limit " + std::to_string(lim.max_input_bytes));
    }
    std::size_t lineno = 0;
    std::istringstream in{std::string(text_)};
    std::string raw;
    while (std::getline(in, raw)) {
      ++lineno;
      if (lim.max_lines != 0 && lineno > lim.max_lines) {
        fail_limit(lineno, "more than " + std::to_string(lim.max_lines) +
                               " lines of input");
      }
      if (lim.max_line_length != 0 && raw.size() > lim.max_line_length) {
        fail_limit(lineno, "line is " + std::to_string(raw.size()) +
                               " bytes, limit " +
                               std::to_string(lim.max_line_length));
      }
      // Strip inline comments ('$' or ';' to end of line).
      for (const char marker : {'$', ';'}) {
        auto pos = raw.find(marker);
        if (pos != std::string::npos) raw.erase(pos);
      }
      std::string s{trim(raw)};
      if (s.empty()) continue;
      if (s.front() == '*') continue;  // full-line comment
      s = to_lower(s);
      if (s.front() == '+') {
        if (lines_.empty()) {
          throw ParseError(make_diag(DiagCode::SyntaxError, Stage::Parse,
                                     "continuation with no preceding card",
                                     loc(lineno)));
        }
        Line& prev = lines_.back();
        if (lim.max_logical_line_length != 0 &&
            prev.text.size() + s.size() > lim.max_logical_line_length) {
          fail_limit(lineno, "continuation chain exceeds " +
                                 std::to_string(lim.max_logical_line_length) +
                                 " bytes");
        }
        prev.text.push_back(' ');
        prev.text.append(s, 1, std::string::npos);
      } else {
        lines_.push_back({std::move(s), lineno});
      }
    }
  }

  DeviceType mos_type_from_model(const std::string& model,
                                 const Line& line) const {
    auto it = models_.find(model);
    if (it != models_.end()) return it->second;
    // Heuristic fallback on the model name, as used by common PDKs.
    if (model.find("pmos") != std::string::npos ||
        model.find("pch") != std::string::npos ||
        model.find("pfet") != std::string::npos || starts_with(model, "p")) {
      return DeviceType::Pmos;
    }
    if (model.find("nmos") != std::string::npos ||
        model.find("nch") != std::string::npos ||
        model.find("nfet") != std::string::npos || starts_with(model, "n")) {
      return DeviceType::Nmos;
    }
    fail(line, DiagCode::BadValue,
         "cannot infer NMOS/PMOS from model '" + model + "'");
  }

  void parse_card(const Line& line) {
    auto tokens = normalize_param_tokens(split_ws(line.text));
    if (tokens.empty()) return;
    const std::string& head = tokens[0];

    if (head.front() == '.') {
      parse_directive(line, tokens);
      return;
    }
    switch (head.front()) {
      case 'm': parse_mos(line, tokens); break;
      case 'r': parse_two_pin(line, tokens, DeviceType::Resistor); break;
      case 'c': parse_two_pin(line, tokens, DeviceType::Capacitor); break;
      case 'l': parse_two_pin(line, tokens, DeviceType::Inductor); break;
      case 'v': parse_source(line, tokens, DeviceType::VSource); break;
      case 'i': parse_source(line, tokens, DeviceType::ISource); break;
      case 'x': parse_instance(line, tokens); break;
      default:
        fail(line, DiagCode::SyntaxError, "unrecognized card '" + head + "'");
    }
  }

  void parse_directive(const Line& line, const std::vector<std::string>& t) {
    const std::string& d = t[0];
    if (d == ".subckt") {
      if (current_subckt_ != nullptr) {
        fail(line, DiagCode::SyntaxError,
             "nested .subckt definitions are not supported");
      }
      if (t.size() < 2) fail(line, DiagCode::SyntaxError, ".subckt needs a name");
      SubcktDef def;
      def.name = t[1];
      def.src_line = line.number;
      for (std::size_t i = 2; i < t.size(); ++i) {
        if (is_param_token(t[i])) break;  // parameter defaults: ignored
        def.ports.push_back(t[i]);
      }
      auto [it, inserted] = netlist_.subckts.emplace(def.name, std::move(def));
      if (!inserted) {
        fail(line, DiagCode::DuplicateName, "duplicate subckt " + t[1]);
      }
      current_subckt_ = &it->second;
    } else if (d == ".ends") {
      if (current_subckt_ == nullptr) {
        fail(line, DiagCode::SyntaxError, ".ends without .subckt");
      }
      current_subckt_ = nullptr;
    } else if (d == ".global") {
      for (std::size_t i = 1; i < t.size(); ++i) netlist_.globals.insert(t[i]);
    } else if (d == ".portlabel") {
      if (t.size() < 3) {
        fail(line, DiagCode::SyntaxError, ".portlabel needs <net> <label>");
      }
      auto label = port_label_from_string(t[2]);
      if (!label) {
        fail(line, DiagCode::BadValue, "unknown port label '" + t[2] + "'");
      }
      netlist_.port_labels[t[1]] = *label;
    } else if (d == ".param") {
      // .param name=value [name=value ...]; values may reference
      // previously defined parameters.
      for (std::size_t i = 1; i < t.size(); ++i) {
        const auto kv = split(t[i], '=');
        if (kv.size() != 2 || kv[0].empty()) {
          fail(line, DiagCode::SyntaxError,
               "malformed .param entry '" + t[i] + "'");
        }
        const auto v = resolve_value(kv[1]);
        if (!v) {
          fail(line, DiagCode::BadValue,
               "unresolvable .param value '" + t[i] + "'");
        }
        check_finite(*v, line, t[i]);
        params_[kv[0]] = *v;
      }
    } else if (d == ".model" || d == ".end" ||
               d == ".option" || d == ".options" || d == ".temp" ||
               d == ".include" || d == ".lib" || d == ".op" || d == ".tran" ||
               d == ".ac" || d == ".dc") {
      // Simulation/bookkeeping directives are irrelevant to recognition.
    } else {
      fail(line, DiagCode::UnknownDirective,
           "unsupported directive '" + d + "'");
    }
  }

  std::vector<Device>& device_sink() {
    return current_subckt_ ? current_subckt_->devices : netlist_.devices;
  }
  std::vector<Instance>& instance_sink() {
    return current_subckt_ ? current_subckt_->instances : netlist_.instances;
  }

  /// Numeric literal, or a name defined by a prior .param, or a literal
  /// wrapped in quotes/braces ("{2*w}" is NOT evaluated -- expressions
  /// beyond direct references are unsupported).
  std::optional<double> resolve_value(const std::string& token) const {
    if (auto v = parse_number(token)) return v;
    std::string name = token;
    if (name.size() >= 2 && ((name.front() == '\'' && name.back() == '\'') ||
                             (name.front() == '{' && name.back() == '}'))) {
      name = name.substr(1, name.size() - 2);
    }
    auto it = params_.find(name);
    if (it != params_.end()) return it->second;
    return std::nullopt;
  }

  /// Rejects overflowed literals like 1e999 right at the card: a single
  /// Inf would otherwise propagate through features into every GCN
  /// activation of the circuit.
  void check_finite(double v, const Line& line,
                    const std::string& token) const {
    if (!std::isfinite(v)) {
      fail(line, DiagCode::NonFinite, "non-finite value '" + token + "'");
    }
  }

  void parse_params(const std::vector<std::string>& t, std::size_t from,
                    const Line& line, Device& dev) {
    for (std::size_t i = from; i < t.size(); ++i) {
      if (!is_param_token(t[i])) {
        fail(line, DiagCode::SyntaxError, "unexpected token '" + t[i] + "'");
      }
      const auto kv = split(t[i], '=');
      if (kv.size() != 2 || kv[0].empty()) {
        fail(line, DiagCode::SyntaxError,
             "malformed parameter '" + t[i] + "'");
      }
      auto v = resolve_value(kv[1]);
      if (!v) {
        fail(line, DiagCode::BadValue,
             "non-numeric parameter value '" + t[i] + "'");
      }
      check_finite(*v, line, t[i]);
      dev.params[kv[0]] = *v;
    }
  }

  void parse_mos(const Line& line, const std::vector<std::string>& t) {
    // Mname d g s b model [params...]
    if (t.size() < 6) {
      fail(line, DiagCode::SyntaxError,
           "MOS card needs name, 4 nets, and a model");
    }
    Device dev;
    dev.name = t[0];
    dev.src_line = line.number;
    dev.pins = {t[1], t[2], t[3], t[4]};
    dev.model = t[5];
    if (is_param_token(dev.model)) {
      fail(line, DiagCode::SyntaxError, "MOS card is missing its model name");
    }
    dev.type = mos_type_from_model(dev.model, line);
    parse_params(t, 6, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_two_pin(const Line& line, const std::vector<std::string>& t,
                     DeviceType type) {
    // Rname n1 n2 value [params...]
    if (t.size() < 4) {
      fail(line, DiagCode::SyntaxError,
           "passive card needs name, 2 nets, value");
    }
    Device dev;
    dev.name = t[0];
    dev.type = type;
    dev.src_line = line.number;
    dev.pins = {t[1], t[2]};
    auto v = resolve_value(t[3]);
    if (!v) fail(line, DiagCode::BadValue, "bad value '" + t[3] + "'");
    check_finite(*v, line, t[3]);
    dev.value = *v;
    parse_params(t, 4, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_source(const Line& line, const std::vector<std::string>& t,
                    DeviceType type) {
    // Vname n+ n- [dc] value  |  Vname n+ n-
    if (t.size() < 3) {
      fail(line, DiagCode::SyntaxError, "source card needs name and 2 nets");
    }
    Device dev;
    dev.name = t[0];
    dev.type = type;
    dev.src_line = line.number;
    dev.pins = {t[1], t[2]};
    std::size_t i = 3;
    if (i < t.size() && t[i] == "dc") ++i;
    if (i < t.size() && !is_param_token(t[i])) {
      auto v = parse_number(t[i]);
      if (!v) {
        fail(line, DiagCode::BadValue, "bad source value '" + t[i] + "'");
      }
      check_finite(*v, line, t[i]);
      dev.value = *v;
      ++i;
    }
    parse_params(t, i, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_instance(const Line& line, const std::vector<std::string>& t) {
    // Xname net1 ... netN subcktname [params...]
    if (t.size() < 3) {
      fail(line, DiagCode::SyntaxError, "instance card needs nets and a subckt");
    }
    Instance inst;
    inst.name = t[0];
    inst.src_line = line.number;
    std::size_t end = t.size();
    while (end > 1 && is_param_token(t[end - 1])) --end;  // drop params
    if (end < 3) {
      fail(line, DiagCode::SyntaxError,
           "instance card needs at least one net");
    }
    inst.subckt = t[end - 1];
    inst.nets.assign(t.begin() + 1, t.begin() + static_cast<std::ptrdiff_t>(end - 1));
    instance_sink().push_back(std::move(inst));
  }

  std::string_view text_;
  const ParseOptions& options_;
  std::vector<Line> lines_;
  Netlist netlist_;
  SubcktDef* current_subckt_ = nullptr;
  std::map<std::string, DeviceType> models_;
  std::map<std::string, double> params_;  ///< .param definitions
};

}  // namespace

Netlist parse_netlist(std::string_view text, const ParseOptions& options) {
  return Parser(text, options).run();
}

std::string read_netlist_text(const std::string& path,
                              const ParseLimits& limits) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot open file: " + path,
                               SourceLoc{path, 0}));
  }
  in.seekg(0, std::ios::end);
  const auto size_pos = in.tellg();
  if (size_pos < 0) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot determine size of file: " + path,
                               SourceLoc{path, 0}));
  }
  const std::size_t size = static_cast<std::size_t>(size_pos);
  // Same rejection the parser itself would issue, but before a single
  // byte of an oversized file has been read into memory.
  if (limits.max_input_bytes != 0 && size > limits.max_input_bytes) {
    throw ParseError(make_diag(
        DiagCode::LimitExceeded, Stage::Parse,
        "input is " + std::to_string(size) + " bytes, limit " +
            std::to_string(limits.max_input_bytes),
        SourceLoc{path, 0}));
  }
  in.seekg(0, std::ios::beg);
  return read_probed_text(in, size, path);
}

std::string read_probed_text(std::istream& in, std::size_t probed_size,
                             const std::string& path) {
  std::string text(probed_size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(probed_size));
  const std::size_t got = static_cast<std::size_t>(std::max<std::streamsize>(
      in.gcount(), 0));
  if (in.bad() || (got != probed_size && !in.eof())) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot read file: " + path,
                               SourceLoc{path, 0}));
  }
  // The buffer was sized from a pre-read tellg probe; a file that
  // changes size between probe and read would otherwise be parsed as a
  // torn prefix (shrink -> short read padded with NULs, grow -> probed
  // prefix only). Verify the read delivered exactly the probed bytes
  // and that nothing trails them.
  if (got != probed_size) {
    throw ParseError(make_diag(
        DiagCode::IoError, Stage::Io,
        "file shrank while being read: " + path + " (expected " +
            std::to_string(probed_size) + " bytes, got " +
            std::to_string(got) + ")",
        SourceLoc{path, 0}));
  }
  in.clear();  // reading exactly to EOF may have latched eofbit
  if (in.peek() != std::istream::traits_type::eof()) {
    throw ParseError(make_diag(
        DiagCode::IoError, Stage::Io,
        "file grew while being read: " + path + " (trailing bytes after the " +
            std::to_string(probed_size) + "-byte size probe)",
        SourceLoc{path, 0}));
  }
  return text;
}

Netlist parse_netlist_file(const std::string& path, const ParseLimits& limits) {
  const std::string text = read_netlist_text(path, limits);
  ParseOptions options;
  options.source = path;
  options.limits = limits;
  return parse_netlist(text, options);
}

Result<Netlist> parse_netlist_result(std::string_view text,
                                     const ParseOptions& options) {
  try {
    return parse_netlist(text, options);
  } catch (const NetlistError& e) {
    return e.diag();
  } catch (const DiagError& e) {
    // Checkpoint aborts (expired deadline, injected fault) already carry
    // a structured Diag; pass it through rather than wrapping as
    // Internal.
    return e.diag();
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, Stage::Parse, e.what(),
                     SourceLoc{options.source, 0});
  }
}

Result<Netlist> parse_netlist_file_result(const std::string& path,
                                          const ParseLimits& limits) {
  try {
    return parse_netlist_file(path, limits);
  } catch (const NetlistError& e) {
    return e.diag();
  } catch (const DiagError& e) {
    return e.diag();
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, Stage::Parse, e.what(),
                     SourceLoc{path, 0});
  }
}

}  // namespace gana::spice
