// The segment certifiers against the set-based reference
// (support/reference_certifier.hpp): every CertifyResult must equal the
// literal definition, through the explicit Cdag and the implicit view,
// at thread counts 1, 2, 4 and 7.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/parallel.hpp"
#include "support/reference_certifier.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using bounds::CertifyParams;
using bounds::CertifyResult;
using cdag::Cdag;
using cdag::VertexId;
using support::parallel::ThreadOverride;

const int kThreadCounts[] = {1, 2, 4, 7};

/// Runs one certifier through both views at every thread count and
/// requires each result to equal the reference.
void expect_matches_reference(const Cdag& cdag,
                              const cdag::ImplicitCdag& implicit,
                              const std::vector<VertexId>& order,
                              const CertifyParams& params, bool decode_only,
                              const std::string& what) {
  const CertifyResult expected = oracle::reference_certify(
      cdag::ExplicitView(cdag), order, params, decode_only);
  ASSERT_FALSE(expected.segments.empty()) << what;
  const auto certify = [&](const cdag::CdagView& view) {
    return decode_only
               ? bounds::certify_segments_decode_only(view, order, params)
               : bounds::certify_segments(view, order, params);
  };
  for (const int threads : kThreadCounts) {
    const ThreadOverride guard(threads);
    EXPECT_EQ(certify(cdag::ExplicitView(cdag)), expected)
        << what << " explicit, threads " << threads;
    EXPECT_EQ(certify(implicit), expected)
        << what << " implicit, threads " << threads;
  }
}

struct Instance {
  const char* algorithm;
  int r;
  CertifyParams section6;  // quotas small enough for several segments
  CertifyParams section5;
};

void PrintTo(const Instance& inst, std::ostream* os) {
  *os << inst.algorithm << " r=" << inst.r;
}

class CertifierOracleTest : public ::testing::TestWithParam<Instance> {};

TEST_P(CertifierOracleTest, MatchesReferenceOnEverySchedule) {
  const Instance& inst = GetParam();
  const auto alg = bilinear::by_name(inst.algorithm);
  const Cdag cdag(alg, inst.r, {.with_coefficients = false});
  const cdag::ImplicitCdag implicit(alg, inst.r);
  const std::vector<std::pair<std::string, std::vector<VertexId>>> orders = {
      {"dfs", schedule::dfs_schedule(cdag)},
      {"bfs", schedule::bfs_schedule(cdag)},
      {"random3", schedule::random_topological_schedule(cdag.graph(), 3)},
      {"random11", schedule::random_topological_schedule(cdag.graph(), 11)},
      {"random29", schedule::random_topological_schedule(cdag.graph(), 29)}};
  for (const auto& [name, order] : orders) {
    expect_matches_reference(cdag, implicit, order, inst.section6, false,
                             name + " section 6");
    expect_matches_reference(cdag, implicit, order, inst.section5, true,
                             name + " section 5");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, CertifierOracleTest,
    ::testing::Values(
        Instance{"strassen", 4, {.cache_size = 1, .k = 2, .s_bar_target = 5},
                 {.cache_size = 1, .k = 2, .s_bar_target = 8}},
        Instance{"winograd", 4, {.cache_size = 1, .k = 2, .s_bar_target = 3},
                 {.cache_size = 1, .k = 2, .s_bar_target = 6}},
        Instance{"laderman", 3, {.cache_size = 1, .k = 1, .s_bar_target = 4},
                 {.cache_size = 1, .k = 1, .s_bar_target = 4}}),
    [](const auto& info) { return std::string(info.param.algorithm); });

TEST(CertifierOracleTest, TrailingStepsBelongToNoSegment) {
  // Decode-only counting on strassen r=5, k=2: 7^3 * 4^2 = 5488 counted
  // vertices, a multiple of the quota 8, so the last segment closes on
  // the last counted vertex and the decoding steps above rank k that
  // follow it lie outside every segment.
  const auto alg = bilinear::strassen();
  const Cdag cdag(alg, 5, {.with_coefficients = false});
  const cdag::ImplicitCdag implicit(alg, 5);
  const auto order = schedule::dfs_schedule(cdag);
  const CertifyParams params{.cache_size = 1, .k = 2, .s_bar_target = 8};
  const CertifyResult cert =
      bounds::certify_segments_decode_only(cdag, order, params);
  ASSERT_FALSE(cert.segments.empty());
  EXPECT_TRUE(cert.segments.back().complete);
  EXPECT_LT(cert.segments.back().end_step, order.size());
  expect_matches_reference(cdag, implicit, order, params, true, "trailing");
}

TEST(CertifierOracleTest, OneSegmentMuchLongerThanTheRest) {
  // Breadth-first order computes the whole encoding graph before the
  // first counted (decoding rank k) vertex, so the decode-only first
  // segment dwarfs the others.
  const auto alg = bilinear::strassen();
  const Cdag cdag(alg, 5, {.with_coefficients = false});
  const cdag::ImplicitCdag implicit(alg, 5);
  const auto order = schedule::bfs_schedule(cdag);
  const CertifyParams params{.cache_size = 1, .k = 2, .s_bar_target = 8};
  const CertifyResult cert =
      bounds::certify_segments_decode_only(cdag, order, params);
  ASSERT_GE(cert.segments.size(), 3u);
  std::vector<std::uint32_t> lengths;
  std::uint32_t start = 0;
  for (const auto& seg : cert.segments) {
    lengths.push_back(seg.end_step - start);
    start = seg.end_step;
  }
  std::vector<std::uint32_t> sorted = lengths;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GE(lengths.front(), 10 * sorted[sorted.size() / 2]);
  expect_matches_reference(cdag, implicit, order, params, true, "long");
}

}  // namespace
