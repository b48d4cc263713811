// Id-space netlist representation used by the production front end.
//
// `InternedNetlist` mirrors `Netlist` with every name replaced by a
// dense `SymbolId` into an owned `SymbolTable`, pins stored inline, and
// parameters as a small flat vector instead of `std::map`. Parsing stays
// in string space (`parse_netlist`); `core::prepare_circuit` then runs
//   intern_netlist -> flatten_interned -> preprocess_interned ->
//   graph::build_graph(const InternedNetlist&) -> materialize_netlist,
// so flatten, preprocess and graph build work on ids and names are
// materialized back into a string `Netlist` only at the boundary.
//
// Equivalence contract: for every parsed netlist on which the string
// stages (`flatten`, `preprocess`, `graph::build_graph(const Netlist&)`)
// succeed, the id-space stages produce a bit-identical flattened
// `Netlist`, `PreprocessReport`, and `CircuitGraph` -- same device
// order, same bytes, same vertex/edge ids. Netlists the string stages
// reject are rejected with the same DiagCode and message. The contract
// is pinned by tests/frontend_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/preprocess.hpp"
#include "spice/symbol_table.hpp"

namespace gana::spice {

/// One `key=value` device parameter; keys are interned names.
struct InternedParam {
  SymbolId key = kNoSymbol;
  double value = 0.0;
};

/// Inline pin storage: MOS devices have 4 pins, everything else 2, so
/// a fixed array avoids one heap allocation per device.
struct PinArray {
  std::array<SymbolId, 4> ids{kNoSymbol, kNoSymbol, kNoSymbol, kNoSymbol};
  std::uint8_t count = 0;

  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] SymbolId operator[](std::size_t i) const { return ids[i]; }
  SymbolId& operator[](std::size_t i) { return ids[i]; }
  void push_back(SymbolId id) { ids[count++] = id; }
};

/// Element card in id space; field-for-field parallel to `Device`.
struct InternedDevice {
  SymbolId name = kNoSymbol;
  DeviceType type = DeviceType::Nmos;
  SymbolId model = kNoSymbol;  ///< kNoSymbol when the model name is empty
  PinArray pins;
  double value = 0.0;
  /// Insertion-ordered; at most a handful of entries, so linear scans
  /// beat any map. Materialization sorts by key name via std::map.
  std::vector<InternedParam> params;
  int hier_depth = 0;
  std::size_t src_line = 0;

  [[nodiscard]] const double* find_param(SymbolId key) const {
    for (const auto& p : params) {
      if (p.key == key) return &p.value;
    }
    return nullptr;
  }
  double& param(SymbolId key) {
    for (auto& p : params) {
      if (p.key == key) return p.value;
    }
    params.push_back({key, 0.0});
    return params.back().value;
  }
};

/// Subcircuit instantiation in id space.
struct InternedInstance {
  SymbolId name = kNoSymbol;
  SymbolId subckt = kNoSymbol;
  std::vector<SymbolId> nets;
  std::size_t src_line = 0;
};

/// .subckt definition in id space.
struct InternedSubckt {
  SymbolId name = kNoSymbol;
  std::vector<SymbolId> ports;
  std::vector<InternedDevice> devices;
  std::vector<InternedInstance> instances;
  std::size_t src_line = 0;
};

/// A full netlist in id space, owning its symbol table. Movable only
/// (the table's arena is not copyable); stages hand the value through
/// `intern_netlist` -> `flatten_interned` -> `preprocess_interned`
/// -> `graph::build_graph` / `materialize_netlist`.
struct InternedNetlist {
  std::string title;
  std::vector<InternedDevice> devices;
  std::vector<InternedInstance> instances;
  std::vector<InternedSubckt> subckts;  ///< definition order (parse order)
  std::vector<std::pair<SymbolId, PortLabel>> port_labels;  ///< insertion order
  std::vector<SymbolId> globals;                            ///< insertion order
  SymbolTable syms;

  [[nodiscard]] bool is_flat() const { return instances.empty(); }
  [[nodiscard]] std::string_view name(SymbolId id) const {
    return syms.name(id);
  }
  /// Definition index for a subckt name, or npos.
  [[nodiscard]] std::size_t find_subckt(SymbolId name) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Converts a string netlist into id space, interning every name once.
/// The inverse of `materialize_netlist` (round-trips exactly).
[[nodiscard]] InternedNetlist intern_netlist(const Netlist& netlist);

/// Materializes the string `Netlist` at the front-end boundary. Device
/// order is preserved; params/subckts/port_labels/globals land in their
/// sorted containers exactly as the string stages produce them.
[[nodiscard]] Netlist materialize_netlist(const InternedNetlist& netlist);

/// Id-space equivalent of `Netlist::validate`: checks the same
/// invariants in the same order and throws a NetlistError carrying the
/// same Diag `Netlist::validate` would produce. Names are materialized
/// only for the error message.
void validate_interned(const InternedNetlist& netlist,
                       const std::string& source = {});

/// Id-space hierarchy expansion: all instance-path prefixing happens in
/// the symbol table's arena; behavior (and failure Diags) match
/// `flatten`. Takes the netlist by value -- the symbol table moves into
/// the flattened result and is extended with the prefixed names.
[[nodiscard]] InternedNetlist flatten_interned(InternedNetlist netlist,
                                               const std::string& source = {});

/// Id-space preprocessing: parallel/series merging and dummy/decap
/// removal on ids, with net iteration ordered by name so the merge
/// sequence (and therefore the surviving devices, values, and aliases)
/// is bit-identical to `preprocess`.
PreprocessReport preprocess_interned(InternedNetlist& netlist,
                                     const PreprocessOptions& options = {});

/// Per-symbol classification used by flatten/preprocess/graph-build so
/// `is_supply_net`/`is_ground_net` run once per distinct name instead of
/// once per reference. Lazily grown; safe to query any id of `syms`.
class NetClassCache {
 public:
  explicit NetClassCache(const SymbolTable& syms) : syms_(&syms) {}

  [[nodiscard]] bool supply(SymbolId id) { return flags(id) & kSupply; }
  [[nodiscard]] bool ground(SymbolId id) { return flags(id) & kGround; }
  [[nodiscard]] bool rail(SymbolId id) {
    return flags(id) & (kSupply | kGround);
  }

 private:
  static constexpr std::uint8_t kKnown = 1, kSupply = 2, kGround = 4;
  std::uint8_t flags(SymbolId id);

  const SymbolTable* syms_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace gana::spice
