#include <gtest/gtest.h>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/schedule/validate.hpp"

namespace {

using namespace pathrouting;            // NOLINT
using namespace pathrouting::schedule;  // NOLINT

class ScheduleValidityTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ScheduleValidityTest, DfsBfsRandomAreAllValid) {
  const auto& [name, r] = GetParam();
  const cdag::Cdag cdag(bilinear::by_name(name), r,
                        {.with_coefficients = false});
  for (const auto& order :
       {dfs_schedule(cdag), bfs_schedule(cdag),
        random_topological_schedule(cdag.graph(), 42)}) {
    const auto diags = schedule_diagnostics(cdag.graph(), order);
    EXPECT_TRUE(diags.empty())
        << name << " r=" << r << ": " << diags.front().message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndDepths, ScheduleValidityTest,
    ::testing::Combine(::testing::Values("strassen", "winograd", "classical2",
                                         "laderman", "strassen_squared",
                                         "classical2_x_strassen"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ValidateTest, RejectsBrokenSchedules) {
  const cdag::Cdag cdag(bilinear::strassen(), 2, {.with_coefficients = false});
  auto order = dfs_schedule(cdag);
  // Duplicate a vertex.
  auto dup = order;
  dup.push_back(dup.front());
  EXPECT_FALSE(schedule_diagnostics(cdag.graph(), dup).empty());
  // Drop a vertex.
  auto missing = order;
  missing.pop_back();
  EXPECT_FALSE(schedule_diagnostics(cdag.graph(), missing).empty());
  // Use before compute: move the last vertex (an output) to the front.
  auto reordered = order;
  std::swap(reordered.front(), reordered.back());
  EXPECT_FALSE(schedule_diagnostics(cdag.graph(), reordered).empty());
  // Schedule an input.
  auto with_input = order;
  with_input.push_back(cdag.layout().input(bilinear::Side::A, 0));
  EXPECT_FALSE(schedule_diagnostics(cdag.graph(), with_input).empty());
}

TEST(ScheduleTest, RandomIsDeterministicPerSeed) {
  const cdag::Cdag cdag(bilinear::strassen(), 3, {.with_coefficients = false});
  const auto a = random_topological_schedule(cdag.graph(), 7);
  const auto b = random_topological_schedule(cdag.graph(), 7);
  const auto c = random_topological_schedule(cdag.graph(), 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ScheduleTest, DfsBeatsBfsInIoAtModerateCache) {
  const cdag::Cdag cdag(bilinear::strassen(), 5, {.with_coefficients = false});
  const auto is_out = [&](cdag::VertexId v) {
    return cdag.layout().is_output(v);
  };
  const pebble::PebbleOptions opts{.cache_size = 128};
  const auto dfs =
      pebble::simulate(cdag.graph(), dfs_schedule(cdag), opts, is_out);
  const auto bfs =
      pebble::simulate(cdag.graph(), bfs_schedule(cdag), opts, is_out);
  EXPECT_LT(dfs.io(), bfs.io());
}

TEST(ScheduleTest, DfsBeatsRandomInIo) {
  const cdag::Cdag cdag(bilinear::strassen(), 4, {.with_coefficients = false});
  const auto is_out = [&](cdag::VertexId v) {
    return cdag.layout().is_output(v);
  };
  const pebble::PebbleOptions opts{.cache_size = 64};
  const auto dfs =
      pebble::simulate(cdag.graph(), dfs_schedule(cdag), opts, is_out);
  const auto rnd = pebble::simulate(
      cdag.graph(), random_topological_schedule(cdag.graph(), 1), opts, is_out);
  EXPECT_LT(dfs.io(), rnd.io());
}

TEST(ScheduleTest, SchedulesCoverEveryComputedVertexOnce) {
  const cdag::Cdag cdag(bilinear::laderman(), 2, {.with_coefficients = false});
  const std::uint64_t computed =
      cdag.graph().num_vertices() - 2 * cdag.layout().inputs_per_side();
  EXPECT_EQ(dfs_schedule(cdag).size(), computed);
  EXPECT_EQ(bfs_schedule(cdag).size(), computed);
  EXPECT_EQ(random_topological_schedule(cdag.graph(), 3).size(), computed);
}

TEST(ScheduleTest, BfsVisitsByLevel) {
  const cdag::Cdag cdag(bilinear::strassen(), 3, {.with_coefficients = false});
  const auto order = bfs_schedule(cdag);
  int prev_level = 0;
  for (const cdag::VertexId v : order) {
    const int level = cdag.layout().level(v);
    EXPECT_GE(level, prev_level);
    prev_level = level;
  }
}

}  // namespace
