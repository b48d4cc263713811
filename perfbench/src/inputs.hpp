// Seeded workload inputs, generated from the gana datagen generators.
//
// Ground truth stays here: the programs under test only ever receive
// netlist bytes (files for gana_shard, request frames for gana_serve,
// text for the in-process session), while the benchmark keeps each
// circuit's LabeledCircuit to score the output against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/sizing.hpp"
#include "util/rng.hpp"

namespace pb {

/// Circuit `index` of the labeled OTA + SC-filter mix: about 85% OTAs
/// (every topology, bias style and design variation, telescopic
/// included) and 15% switched-capacitor filters. A pure function of
/// (seed, index).
gana::datagen::LabeledCircuit mix_circuit(std::uint64_t seed,
                                          std::size_t index);

/// The sizing-loop designs: a fixed set of phased-array variants and
/// RF receivers. The seed moves device sizings only, so every seed sees
/// the same topologies and the same amount of work per edit.
std::vector<gana::datagen::LabeledCircuit> sizing_designs(std::uint64_t seed);

/// Mixes a workload seed with a stream tag into an Rng seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

/// A designer's sizing edit: scales the width (MOS) or value (others)
/// of one of the first `devices` devices of `n` by 0.9, 0.95, 1.05 or
/// 1.1.
void value_edit(gana::spice::Netlist& n, std::size_t devices, gana::Rng& rng);

}  // namespace pb
