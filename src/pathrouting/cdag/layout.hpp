// Vertex addressing for the recursive CDAG G_r (Section 3).
//
// G_r for a base algorithm <n0,n0,n0;b>, a = n0^2, has three layers:
//
//   encoding side X in {A, B}, ranks t = 0..r:
//       vertex (q⃗ ∈ [b]^t, p⃗ ∈ [a]^{r-t});  rank 0 = the a^r inputs of X.
//   decoding side, ranks t = 0..r:
//       vertex (q⃗ ∈ [b]^{r-t}, p⃗ ∈ [a]^t);  rank 0 = the b^r products,
//       rank r = the a^r outputs.
//
// q⃗ is the recursion path (digit 0 = outermost level); p⃗ is the Morton
// position within the current operand block (digit 0 = outermost level,
// each digit d ≅ (i,j) with d = i*n0 + j). Edges (see builder.cpp):
//
//   enc:  (q⃗, d·p⃗) -> (q⃗·q, p⃗)    iff U[q,d] != 0   (resp. V),
//   mult: encA(r, q⃗), encB(r, q⃗) -> dec(0, q⃗),
//   dec:  (q⃗·q, p⃗) -> (q⃗, d·p⃗)    iff W[d,q] != 0.
//
// Ids are dense uint32, laid out encA rank 0..r, encB rank 0..r, dec
// rank 0..r; within a rank, index = q⃗ * a^{len(p⃗)} + p⃗. This order is
// topological, and in-edges of consecutive ids can be emitted
// streaming.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/bilinear/analysis.hpp"  // for bilinear::Side
#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/support/mixed_radix.hpp"

namespace pathrouting::cdag {

using bilinear::Side;
using support::PowTable;

enum class LayerKind : std::uint8_t { EncA, EncB, Dec };

/// Fully decoded vertex address.
struct VertexRef {
  LayerKind layer;
  int rank;         // 0..r within the layer
  std::uint64_t q;  // recursion path word
  std::uint64_t p;  // Morton position word
};

class Layout {
 public:
  Layout(int n0, int b, int r);

  [[nodiscard]] int n0() const { return n0_; }
  [[nodiscard]] int a() const { return a_; }
  [[nodiscard]] int b() const { return b_; }
  [[nodiscard]] int r() const { return r_; }
  [[nodiscard]] const PowTable& pow_a() const { return pow_a_; }
  [[nodiscard]] const PowTable& pow_b() const { return pow_b_; }

  [[nodiscard]] std::uint64_t num_vertices() const { return num_vertices_; }
  /// a^r: inputs per operand (also the number of outputs).
  [[nodiscard]] std::uint64_t inputs_per_side() const { return pow_a_(r_); }
  [[nodiscard]] std::uint64_t num_products() const { return pow_b_(r_); }
  /// n = n0^r, the matrix dimension.
  [[nodiscard]] std::uint64_t n() const;

  [[nodiscard]] std::uint64_t enc_rank_size(int t) const {
    return pow_b_(t) * pow_a_(r_ - t);
  }
  [[nodiscard]] std::uint64_t dec_rank_size(int t) const {
    return pow_b_(r_ - t) * pow_a_(t);
  }

  [[nodiscard]] VertexId enc(Side side, int t, std::uint64_t q,
                             std::uint64_t p) const {
    PR_DCHECK_MSG(t >= 0 && t <= r_, "enc(): rank outside 0..r");
    PR_DCHECK_MSG(q < pow_b_(t) && p < pow_a_(r_ - t),
                  "enc(): recursion path or position word out of range");
    const std::uint64_t base =
        (side == Side::A ? enc_a_base_ : enc_b_base_)[static_cast<std::size_t>(t)];
    return static_cast<VertexId>(base + q * pow_a_(r_ - t) + p);
  }
  [[nodiscard]] VertexId dec(int t, std::uint64_t q, std::uint64_t p) const {
    PR_DCHECK_MSG(t >= 0 && t <= r_, "dec(): rank outside 0..r");
    PR_DCHECK_MSG(q < pow_b_(r_ - t) && p < pow_a_(t),
                  "dec(): recursion path or position word out of range");
    return static_cast<VertexId>(dec_base_[static_cast<std::size_t>(t)] +
                                 q * pow_a_(t) + p);
  }
  [[nodiscard]] VertexId input(Side side, std::uint64_t p) const {
    return enc(side, 0, 0, p);
  }
  [[nodiscard]] VertexId product(std::uint64_t q) const { return dec(0, q, 0); }
  [[nodiscard]] VertexId output(std::uint64_t p) const { return dec(r_, 0, p); }

  [[nodiscard]] VertexRef ref(VertexId v) const;

  [[nodiscard]] bool is_input(VertexId v) const {
    return (v >= enc_a_base_[0] && v < enc_a_base_[0] + pow_a_(r_)) ||
           (v >= enc_b_base_[0] && v < enc_b_base_[0] + pow_a_(r_));
  }
  [[nodiscard]] bool is_output(VertexId v) const {
    return v >= dec_base_[static_cast<std::size_t>(r_)] && v < num_vertices_;
  }

  /// Global level for rank-ordered (BFS) traversals: enc rank t -> t,
  /// dec rank t -> r+1+t. Inputs are level 0, outputs level 2r+1.
  [[nodiscard]] int level(VertexId v) const;

 private:
  int n0_, a_, b_, r_;
  PowTable pow_a_, pow_b_;
  std::vector<std::uint64_t> enc_a_base_, enc_b_base_, dec_base_;
  std::uint64_t num_vertices_ = 0;
};

/// One contiguous id run of a Fact-1 vertex-renaming map: local ids
/// [local_base, local_base + length) of a standalone G_k layout map to
/// global ids [global_base, global_base + length) of G_r, in order.
struct CopyBlock {
  VertexId local_base = 0;
  VertexId global_base = 0;
  std::uint64_t length = 0;
};

/// The Fact-1 vertex renaming between a standalone canonical G_k
/// (`Layout(n0, b, k)`) and the copy G_k^prefix inside G_r.
///
/// Within one G_k-local rank the subcomputation address formulas
///   enc(X, t, q, p) -> global enc(X, r-k+t, prefix*b^t + q, p)
///   dec(t, q, p)    -> global dec(t, prefix*b^(k-t) + q, p)
/// are affine in the packed index q*|p-range| + p, so each of the
/// 3(k+1) local ranks maps to ONE contiguous global id run and the
/// whole renaming is these blocks. The map is strictly increasing
/// (blocks appear in both local and global id order), so id-order
/// tie-breaks (smallest argmax) translate verbatim: a statistic
/// computed once on the canonical copy holds on every copy (the
/// memoized engine's argmax and the routing.memo-totals finding ids
/// build on exactly this).
class CopyTranslation {
 public:
  /// The renaming for copy `prefix` of G_k inside `global`
  /// (1 <= k <= r, 0 <= prefix < b^(r-k)).
  CopyTranslation(const Layout& global, int k, std::uint64_t prefix);

  [[nodiscard]] int k() const { return local_.r(); }
  [[nodiscard]] std::uint64_t prefix() const { return prefix_; }
  /// The canonical standalone G_k the local side of the map lives in.
  [[nodiscard]] const Layout& local() const { return local_; }
  /// The 3(k+1) runs, in (common) id order.
  [[nodiscard]] std::span<const CopyBlock> blocks() const { return blocks_; }

  [[nodiscard]] VertexId to_global(VertexId local) const;
  /// Inverse; `global` must belong to the copy (aborts otherwise).
  [[nodiscard]] VertexId to_local(VertexId global) const;

 private:
  Layout local_;
  std::uint64_t prefix_;
  std::vector<CopyBlock> blocks_;
};

/// Morton position word (length `len` digits in base n0^2) -> (row, col)
/// within the n0^len x n0^len matrix.
struct RowCol {
  std::uint64_t row;
  std::uint64_t col;
};
RowCol morton_to_rowcol(const PowTable& pow_a, int n0, std::uint64_t p,
                        int len);
std::uint64_t rowcol_to_morton(int n0, std::uint64_t row, std::uint64_t col,
                               int len);

}  // namespace pathrouting::cdag
