#include "inputs.hpp"

#include <iterator>

#include "datagen/ota_gen.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "datagen/sc_filter.hpp"
#include "graph/structural_hash.hpp"

namespace pb {

using namespace gana::datagen;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  return gana::graph::hash_combine(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull,
                                   tag);
}

void value_edit(gana::spice::Netlist& n, std::size_t devices, gana::Rng& rng) {
  static constexpr double kScale[] = {0.9, 0.95, 1.05, 1.1};
  gana::spice::Device& d = n.devices[rng.index(devices)];
  const double s = kScale[rng.index(std::size(kScale))];
  auto w = d.params.find("w");
  if (gana::spice::is_mos(d.type) && w != d.params.end()) {
    w->second *= s;
  } else {
    d.value *= s;
  }
}

LabeledCircuit mix_circuit(std::uint64_t seed, std::size_t index) {
  gana::Rng rng(stream_seed(seed, 0x10000000ull + index));
  const std::string name = "c" + std::to_string(index);
  if (rng.chance(0.15)) {
    ScFilterOptions opt;
    opt.cap_banks = rng.range(1, 3);
    opt.port_labels = rng.chance(0.7);
    LabeledCircuit c = generate_sc_filter(opt, rng);
    c.name = name;
    return c;
  }
  OtaOptions opt;
  opt.topology = kAllOtaTopologies[rng.index(std::size(kAllOtaTopologies))];
  opt.bias = kAllBiasStyles[rng.index(std::size(kAllBiasStyles))];
  opt.pmos_input = rng.chance(0.3);
  opt.cascode_tail = rng.chance(0.3);
  opt.output_buffer = rng.chance(0.2);
  opt.with_dummies = rng.chance(0.2);
  opt.with_stacking = rng.chance(0.2);
  opt.bias_decap = rng.chance(0.3);
  opt.sc_input = rng.chance(0.2);
  opt.load_caps = rng.chance(0.4);
  opt.input_coupling = rng.chance(0.2);
  opt.bias_startup = rng.chance(0.2);
  opt.port_labels = rng.chance(0.7);
  return generate_ota(opt, rng, name);
}

std::vector<LabeledCircuit> sizing_designs(std::uint64_t seed) {
  gana::Rng rng(stream_seed(seed, 0x20000000ull));
  std::vector<LabeledCircuit> out;
  const PhasedArrayOptions arrays[] = {
      {.channels = 2, .lna_stages = 2, .if_amps = 1, .iq_mixers = true},
      {.channels = 2, .lna_stages = 3, .if_amps = 2, .iq_mixers = false},
      {.channels = 2, .lna_stages = 2, .if_amps = 2, .iq_mixers = true},
  };
  for (std::size_t i = 0; i < std::size(arrays); ++i) {
    LabeledCircuit c = generate_phased_array(arrays[i], rng);
    c.name = "array" + std::to_string(i);
    out.push_back(std::move(c));
  }
  const ReceiverOptions receivers[] = {
      {.lna = LnaKind::InductiveDegen, .mixer = MixerKind::Gilbert,
       .osc = OscKind::CrossCoupledLc, .lna_stages = 2, .iq = true},
      {.lna = LnaKind::CommonGate, .mixer = MixerKind::SingleBalanced,
       .osc = OscKind::Ring3, .lna_stages = 1},
      {.lna = LnaKind::Differential, .mixer = MixerKind::PassiveRing,
       .osc = OscKind::Colpitts, .lna_stages = 3, .iq = true},
  };
  for (std::size_t i = 0; i < std::size(receivers); ++i) {
    out.push_back(
        generate_receiver(receivers[i], rng, "receiver" + std::to_string(i)));
  }
  return out;
}

}  // namespace pb
