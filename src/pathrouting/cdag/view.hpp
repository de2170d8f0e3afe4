// One interface over explicit and implicit CDAGs.
//
// The memoized verifier (routing/memo_routing) made the *arithmetic* of
// the routing certificates nearly free, but every consumer still took a
// `const Cdag&` — an O(num_edges) CSR materialization that becomes the
// scaling wall around r = 7 and is hopeless at r = 10. By Fact 1 the
// graph never needs to exist: the middle layers of G_r are b^{r-k}
// translated copies of a canonical G_k, and every adjacency/copy/meta
// query is index arithmetic on the base algorithm's sparse rows.
//
// CdagView is the seam. ExplicitView adapts today's CSR-backed Cdag;
// cdag::ImplicitCdag (implicit.hpp) synthesizes the same answers on
// demand with O(a + b) state. Consumers written against the view — the
// routing engines, the segment certifier, the cdag.* audit suite — run
// unchanged on either, and tests substitute fakes over corrupted
// tables. Consumers that genuinely need whole-graph arrays test
// `capabilities().explicit_edges` and degrade with a report note
// instead of silently passing (the cdag.* suite samples views above
// 2^20 vertices that lack it; see audit/audit.hpp).
//
// Contract mirrored from Graph/Cdag so results are bit-identical:
//   - in(v) lists predecessors in builder emission order (encoding rows
//     by ascending entry, product A-then-B, decoding rows by ascending
//     product) — the order coefficient tables align to;
//   - out(v) lists successors in ascending id order (Graph derives its
//     out-CSR stably from the rank-ordered in-emission, which for this
//     layout is exactly ascending order);
//   - copy_parent/meta_root/meta_size reproduce the builder's
//     Section-3 copy bookkeeping (no Section-8 grouping).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/cdag/cdag.hpp"

namespace pathrouting::cdag {

/// What a view can answer beyond the core interface. Consumers that
/// need a missing capability must skip (and say so) rather than crash.
struct ViewCapabilities {
  /// Whole-graph CSR arrays exist (Graph/whole-table spans; anything
  /// that scans edges wholesale or needs per-edge indices).
  bool explicit_edges = false;
  /// Per-edge coefficients are stored (numeric evaluation).
  bool coefficients = false;
  /// Section-8 duplicate-row grouping was applied (meta-vertices are
  /// same-value classes, not copy subtrees).
  bool grouped_duplicates = false;
};

class CdagView {
 public:
  CdagView() = default;
  CdagView(const CdagView&) = default;
  CdagView& operator=(const CdagView&) = default;
  virtual ~CdagView() = default;

  [[nodiscard]] virtual const BilinearAlgorithm& algorithm() const = 0;
  [[nodiscard]] virtual const Layout& layout() const = 0;
  [[nodiscard]] virtual ViewCapabilities capabilities() const = 0;
  [[nodiscard]] int r() const { return layout().r(); }
  [[nodiscard]] std::uint64_t num_vertices() const {
    return layout().num_vertices();
  }
  [[nodiscard]] virtual std::uint64_t num_edges() const = 0;

  [[nodiscard]] virtual std::uint32_t in_degree(VertexId v) const = 0;
  [[nodiscard]] virtual std::uint32_t out_degree(VertexId v) const = 0;

  /// Neighbor lists. `scratch` is caller-owned storage the view MAY
  /// synthesize into (implicit views do; the explicit adapter returns
  /// the CSR span untouched) — the returned span is invalidated by the
  /// next call on the same scratch. Using one scratch per worker keeps
  /// concurrent traversals safe: views are immutable and thread-safe.
  [[nodiscard]] virtual std::span<const VertexId> in(
      VertexId v, std::vector<VertexId>& scratch) const = 0;
  [[nodiscard]] virtual std::span<const VertexId> out(
      VertexId v, std::vector<VertexId>& scratch) const = 0;

  [[nodiscard]] virtual bool has_edge(VertexId from, VertexId to) const = 0;

  [[nodiscard]] virtual VertexId copy_parent(VertexId v) const = 0;
  [[nodiscard]] virtual VertexId meta_root(VertexId v) const = 0;
  [[nodiscard]] virtual std::uint32_t meta_size(VertexId v) const = 0;
  [[nodiscard]] bool is_duplicated(VertexId v) const {
    return meta_size(v) > 1;
  }

  /// The backing Cdag when this view wraps one, else nullptr — the
  /// escape hatch for consumers that genuinely need whole-graph arrays
  /// (gate on capabilities().explicit_edges first).
  [[nodiscard]] virtual const Cdag* explicit_cdag() const { return nullptr; }
};

/// The CSR-backed Cdag as a CdagView (borrows; keep `cdag` alive).
class ExplicitView final : public CdagView {
 public:
  explicit ExplicitView(const Cdag& cdag) : cdag_(&cdag) {}

  [[nodiscard]] const BilinearAlgorithm& algorithm() const override {
    return cdag_->algorithm();
  }
  [[nodiscard]] const Layout& layout() const override {
    return cdag_->layout();
  }
  [[nodiscard]] ViewCapabilities capabilities() const override {
    return {.explicit_edges = true,
            .coefficients = cdag_->has_coefficients(),
            .grouped_duplicates = cdag_->grouped_duplicates()};
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return cdag_->graph().num_edges();
  }
  [[nodiscard]] std::uint32_t in_degree(VertexId v) const override {
    return cdag_->graph().in_degree(v);
  }
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const override {
    return cdag_->graph().out_degree(v);
  }
  [[nodiscard]] std::span<const VertexId> in(
      VertexId v, std::vector<VertexId>& scratch) const override {
    (void)scratch;
    return cdag_->graph().in(v);
  }
  [[nodiscard]] std::span<const VertexId> out(
      VertexId v, std::vector<VertexId>& scratch) const override {
    (void)scratch;
    return cdag_->graph().out(v);
  }
  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const override {
    return cdag_->graph().has_edge(from, to);
  }
  [[nodiscard]] VertexId copy_parent(VertexId v) const override {
    return cdag_->copy_parent(v);
  }
  [[nodiscard]] VertexId meta_root(VertexId v) const override {
    return cdag_->meta_root(v);
  }
  [[nodiscard]] std::uint32_t meta_size(VertexId v) const override {
    return cdag_->meta_size(v);
  }
  [[nodiscard]] const Cdag* explicit_cdag() const override { return cdag_; }

 private:
  const Cdag* cdag_;
};

}  // namespace pathrouting::cdag
