// Three-valued (0/1/X) logic: scalar and 64-way bit-parallel.
//
// Packed encoding follows the paper (two machine words per node): bit i of
// plane `v1` is set when slot i carries logic 1, bit i of plane `v0` when it
// carries logic 0, and neither for X.  (v1 & v0) != 0 is invalid by
// construction.  The paper used 32-bit words; we use 64-bit words, so 64
// candidate sequences (GA fitness) or 64 faults (fault simulation) are
// evaluated per pass.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "netlist/gate.h"

namespace gatpg::sim {

/// Scalar ternary value.
enum class V3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

constexpr V3 v3_not(V3 a) {
  if (a == V3::k0) return V3::k1;
  if (a == V3::k1) return V3::k0;
  return V3::kX;
}

constexpr V3 v3_and(V3 a, V3 b) {
  if (a == V3::k0 || b == V3::k0) return V3::k0;
  if (a == V3::k1 && b == V3::k1) return V3::k1;
  return V3::kX;
}

constexpr V3 v3_or(V3 a, V3 b) {
  if (a == V3::k1 || b == V3::k1) return V3::k1;
  if (a == V3::k0 && b == V3::k0) return V3::k0;
  return V3::kX;
}

constexpr V3 v3_xor(V3 a, V3 b) {
  if (a == V3::kX || b == V3::kX) return V3::kX;
  return a == b ? V3::k0 : V3::k1;
}

constexpr char v3_char(V3 a) {
  return a == V3::k0 ? '0' : (a == V3::k1 ? '1' : 'X');
}

/// 64 ternary values packed in two planes.
struct PackedV3 {
  std::uint64_t v1 = 0;
  std::uint64_t v0 = 0;

  static constexpr PackedV3 all_x() { return {0, 0}; }
  static constexpr PackedV3 broadcast(V3 v) {
    switch (v) {
      case V3::k0:
        return {0, ~0ULL};
      case V3::k1:
        return {~0ULL, 0};
      default:
        return {0, 0};
    }
  }

  V3 get(unsigned slot) const {
    const std::uint64_t m = 1ULL << slot;
    if (v1 & m) return V3::k1;
    if (v0 & m) return V3::k0;
    return V3::kX;
  }

  void set(unsigned slot, V3 v) {
    const std::uint64_t m = 1ULL << slot;
    v1 &= ~m;
    v0 &= ~m;
    if (v == V3::k1) {
      v1 |= m;
    } else if (v == V3::k0) {
      v0 |= m;
    }
  }

  /// Slots holding a defined (non-X) value.
  std::uint64_t defined() const { return v1 | v0; }

  friend constexpr bool operator==(const PackedV3&, const PackedV3&) = default;
};

inline constexpr PackedV3 p_not(PackedV3 a) { return {a.v0, a.v1}; }

inline constexpr PackedV3 p_and(PackedV3 a, PackedV3 b) {
  return {a.v1 & b.v1, a.v0 | b.v0};
}

inline constexpr PackedV3 p_or(PackedV3 a, PackedV3 b) {
  return {a.v1 | b.v1, a.v0 & b.v0};
}

inline constexpr PackedV3 p_xor(PackedV3 a, PackedV3 b) {
  return {(a.v1 & b.v0) | (a.v0 & b.v1), (a.v1 & b.v1) | (a.v0 & b.v0)};
}

// -- Branchless per-type gate kernels (64-bit path) --------------------------
//
// One accumulation function per gate type, indexed by GateType, so the type
// dispatch happens once per gate evaluation and the fanin loop carries no
// switch.  `vals[idx[i]]` is fanin i's packed value: the fast simulator path
// passes (values array, fanin-id span) directly, the fault-injection slow
// path passes (gathered scratch, identity indices) — one preallocated
// scratch span, never reallocated.
using PackedGateFn = PackedV3 (*)(const PackedV3* vals,
                                  const netlist::NodeId* idx, std::size_t nf);

namespace detail {

inline PackedV3 pg_buf(const PackedV3* v, const netlist::NodeId* x,
                       std::size_t) {
  return v[x[0]];
}
inline PackedV3 pg_not(const PackedV3* v, const netlist::NodeId* x,
                       std::size_t) {
  return p_not(v[x[0]]);
}
template <bool kInvert>
PackedV3 pg_and(const PackedV3* v, const netlist::NodeId* x, std::size_t nf) {
  PackedV3 acc = v[x[0]];
  for (std::size_t i = 1; i < nf; ++i) acc = p_and(acc, v[x[i]]);
  return kInvert ? p_not(acc) : acc;
}
template <bool kInvert>
PackedV3 pg_or(const PackedV3* v, const netlist::NodeId* x, std::size_t nf) {
  PackedV3 acc = v[x[0]];
  for (std::size_t i = 1; i < nf; ++i) acc = p_or(acc, v[x[i]]);
  return kInvert ? p_not(acc) : acc;
}
template <bool kInvert>
PackedV3 pg_xor(const PackedV3* v, const netlist::NodeId* x, std::size_t nf) {
  PackedV3 acc = v[x[0]];
  for (std::size_t i = 1; i < nf; ++i) acc = p_xor(acc, v[x[i]]);
  return kInvert ? p_not(acc) : acc;
}

}  // namespace detail

/// The per-type kernel table; entries for non-combinational types are null.
inline constexpr std::array<PackedGateFn, 12> kPackedGateTable = {
    nullptr,                    // kInput
    &detail::pg_buf,            // kBuf
    &detail::pg_not,            // kNot
    &detail::pg_and<false>,     // kAnd
    &detail::pg_and<true>,      // kNand
    &detail::pg_or<false>,      // kOr
    &detail::pg_or<true>,       // kNor
    &detail::pg_xor<false>,     // kXor
    &detail::pg_xor<true>,      // kXnor
    nullptr,                    // kDff
    nullptr,                    // kConst0
    nullptr,                    // kConst1
};

inline PackedGateFn packed_gate_fn(netlist::GateType type) {
  return kPackedGateTable[static_cast<std::size_t>(type)];
}

/// Evaluates one combinational gate over packed fanin values fetched through
/// `value(NodeId)`.  `Fetch` is any callable NodeId -> PackedV3.
template <typename Fetch>
PackedV3 eval_gate_packed(netlist::GateType type,
                          std::span<const netlist::NodeId> fanins,
                          Fetch&& value) {
  using netlist::GateType;
  PackedV3 acc = value(fanins[0]);
  switch (type) {
    case GateType::kBuf:
      return acc;
    case GateType::kNot:
      return p_not(acc);
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t i = 1; i < fanins.size(); ++i) {
        acc = p_and(acc, value(fanins[i]));
      }
      return type == GateType::kNand ? p_not(acc) : acc;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t i = 1; i < fanins.size(); ++i) {
        acc = p_or(acc, value(fanins[i]));
      }
      return type == GateType::kNor ? p_not(acc) : acc;
    case GateType::kXor:
    case GateType::kXnor:
      for (std::size_t i = 1; i < fanins.size(); ++i) {
        acc = p_xor(acc, value(fanins[i]));
      }
      return type == GateType::kXnor ? p_not(acc) : acc;
    default:
      assert(false && "eval_gate_packed on non-combinational node");
      return PackedV3::all_x();
  }
}

/// Position-indexed scalar gate evaluation: `value(i)` fetches fanin i by
/// its pin position.  Lets callers force a faulted pin by position without
/// materializing a gather buffer.
template <typename Fetch>
V3 eval_gate_scalar_pos(netlist::GateType type, std::size_t fanin_count,
                        Fetch&& value) {
  using netlist::GateType;
  V3 acc = value(std::size_t{0});
  switch (type) {
    case GateType::kBuf:
      return acc;
    case GateType::kNot:
      return v3_not(acc);
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t i = 1; i < fanin_count; ++i) {
        acc = v3_and(acc, value(i));
      }
      return type == GateType::kNand ? v3_not(acc) : acc;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t i = 1; i < fanin_count; ++i) {
        acc = v3_or(acc, value(i));
      }
      return type == GateType::kNor ? v3_not(acc) : acc;
    case GateType::kXor:
    case GateType::kXnor:
      for (std::size_t i = 1; i < fanin_count; ++i) {
        acc = v3_xor(acc, value(i));
      }
      return type == GateType::kXnor ? v3_not(acc) : acc;
    default:
      assert(false && "eval_gate_scalar on non-combinational node");
      return V3::kX;
  }
}

/// Scalar gate evaluation (used at the fault site of the deterministic
/// engine's frame model and by property tests).
template <typename Fetch>
V3 eval_gate_scalar(netlist::GateType type,
                    std::span<const netlist::NodeId> fanins, Fetch&& value) {
  return eval_gate_scalar_pos(type, fanins.size(),
                              [&](std::size_t i) { return value(fanins[i]); });
}

}  // namespace gatpg::sim
