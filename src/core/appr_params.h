// Parameters and node layout of an Approximate Code instance.
//
// APPR.<Family>(k, r, g, h, structure):
//   - h local stripes, each with k data nodes + r local parity nodes;
//   - g global parity nodes protecting only the *important* data;
//   - important data is a 1/h fraction of all data: spread uniformly over
//     every data node (Even) or concentrated in stripe 0 (Uneven).
//
// Node numbering: stripe s occupies [s*(k+r), (s+1)*(k+r)) with data first,
// then local parities; global parities occupy the last g slots.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "codes/code_family.h"
#include "common/error.h"

namespace approx::core {

enum class Structure { Even, Uneven };

inline const char* structure_name(Structure s) {
  return s == Structure::Even ? "Even" : "Uneven";
}

struct ApprParams {
  codes::Family family = codes::Family::RS;
  int k = 4;  // data nodes per local stripe
  int r = 1;  // local parity nodes per stripe
  int g = 2;  // global parity nodes
  int h = 4;  // local stripes per global stripe (important ratio = 1/h)
  Structure structure = Structure::Uneven;

  int nodes_per_stripe() const { return k + r; }
  int total_nodes() const { return h * (k + r) + g; }
  int total_data_nodes() const { return h * k; }
  int total_parity_nodes() const { return h * r + g; }

  // The one gate for code parameters: the CLI, the coordinator's volume
  // create, manifest and superblock parsing and ApproximateCode all call
  // it.  With a block size it also checks the element layout.
  void validate(std::optional<std::size_t> block = std::nullopt) const {
    APPROX_REQUIRE(k >= 1 && r >= 1 && g >= 1 && h >= 1, "k, r, g, h must be >= 1");
    APPROX_REQUIRE(r + g <= 3, "families provide at most 3 parity levels (3DFT)");
    APPROX_REQUIRE(codes::family_supports(family, k),
                   codes::family_name(family) + " does not support k=" + std::to_string(k));
    if (block.has_value()) {
      APPROX_REQUIRE(*block > 0, "block size must be positive");
      APPROX_REQUIRE(structure != Structure::Even ||
                         *block % static_cast<std::size_t>(h) == 0,
                     "Even structure needs block size divisible by h");
    }
  }

  std::string name() const {
    return "APPR." + codes::family_name(family) + "(" + std::to_string(k) + "," +
           std::to_string(r) + "," + std::to_string(g) + "," + std::to_string(h) +
           "," + structure_name(structure) + ")";
  }
};

// Role of a node in the layout.
struct NodeRole {
  enum class Kind { Data, LocalParity, GlobalParity } kind;
  int stripe;  // -1 for global parities
  int index;   // data index / local parity index / global parity index
};

inline NodeRole node_role(const ApprParams& p, int node) {
  APPROX_REQUIRE(node >= 0 && node < p.total_nodes(), "node out of range");
  const int per = p.nodes_per_stripe();
  if (node >= p.h * per) {
    return {NodeRole::Kind::GlobalParity, -1, node - p.h * per};
  }
  const int stripe = node / per;
  const int off = node % per;
  if (off < p.k) return {NodeRole::Kind::Data, stripe, off};
  return {NodeRole::Kind::LocalParity, stripe, off - p.k};
}

inline int data_node_id(const ApprParams& p, int stripe, int index) {
  return stripe * p.nodes_per_stripe() + index;
}
inline int local_parity_node_id(const ApprParams& p, int stripe, int index) {
  return stripe * p.nodes_per_stripe() + p.k + index;
}
inline int global_parity_node_id(const ApprParams& p, int index) {
  return p.h * p.nodes_per_stripe() + index;
}

}  // namespace approx::core
