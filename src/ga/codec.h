// The input-sequence chromosome codec shared by every GA over test
// sequences (state justification, output justification, simulation-based
// generation): gene t * num_pi + i is primary input i's value in vector t,
// one byte per gene.  Only this file knows the layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "ga/genetic.h"
#include "sim/seqsim.h"

namespace gatpg::ga {

/// The first `length` vectors of `chromosome`, over `num_pi` inputs.
inline sim::Sequence decode(const Chromosome& chromosome, std::size_t num_pi,
                            unsigned length) {
  sim::Sequence seq(length, sim::Vector3(num_pi));
  for (unsigned t = 0; t < length; ++t) {
    for (std::size_t i = 0; i < num_pi; ++i) {
      seq[t][i] = chromosome[t * num_pi + i] ? sim::V3::k1 : sim::V3::k0;
    }
  }
  return seq;
}

/// A chromosome of `length` vectors over `num_pi` inputs holding `seq`:
/// each 1 of `seq` is a 1 gene; 0, X and genes past `seq`'s end are 0.
inline Chromosome encode(const sim::Sequence& seq, std::size_t num_pi,
                         unsigned length) {
  Chromosome chromosome(length * num_pi, 0);
  const std::size_t tmax = std::min<std::size_t>(seq.size(), length);
  for (std::size_t t = 0; t < tmax; ++t) {
    const std::size_t width = std::min(num_pi, seq[t].size());
    for (std::size_t i = 0; i < width; ++i) {
      if (seq[t][i] == sim::V3::k1) chromosome[t * num_pi + i] = 1;
    }
  }
  return chromosome;
}

/// Vector `t` of up to 64 individuals as bit-parallel inputs: slot s of
/// `pi_words[i]` is individual s's gene for input i (slots past the batch
/// read 0).  Runs once per GA fitness frame.
inline void pack_frame(std::span<const Chromosome> batch, std::size_t num_pi,
                       unsigned t, std::span<sim::PackedV3> pi_words) {
  for (std::size_t i = 0; i < num_pi; ++i) {
    const std::size_t gene = t * num_pi + i;
    std::uint64_t ones = 0;
    for (std::size_t s = 0; s < batch.size(); ++s) {
      ones |= static_cast<std::uint64_t>(batch[s][gene]) << s;
    }
    pi_words[i] = {ones, ~ones};
  }
}

}  // namespace gatpg::ga
