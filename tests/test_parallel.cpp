#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/parallel/caps.hpp"
#include "pathrouting/parallel/distributed_strassen.hpp"
#include "pathrouting/parallel/summa.hpp"
#include "support/dense_machine.hpp"

namespace {

using namespace pathrouting;            // NOLINT
using namespace pathrouting::parallel;  // NOLINT

TEST(MachineTest, BandwidthIsPerSuperstepMax) {
  Machine machine(3, 100);
  machine.send(0, 1, 10);
  machine.send(1, 2, 5);
  // proc 1 sends 5 and receives 10 -> traffic 15 is the superstep max.
  machine.end_superstep();
  EXPECT_EQ(machine.bandwidth_cost(), 15u);
  EXPECT_EQ(machine.total_words(), 15u);
  machine.send(2, 0, 7);
  machine.end_superstep();
  EXPECT_EQ(machine.bandwidth_cost(), 22u);
  EXPECT_EQ(machine.supersteps(), 2u);
}

TEST(MachineTest, SelfSendsAndEmptySuperstepsAreFree) {
  Machine machine(2, 10);
  machine.send(0, 0, 1000);
  machine.end_superstep();
  EXPECT_EQ(machine.bandwidth_cost(), 0u);
  EXPECT_EQ(machine.supersteps(), 0u);
}

TEST(MachineTest, MemoryPeakTracking) {
  Machine machine(2, 100);
  machine.alloc(0, 60);
  machine.alloc(1, 30);
  machine.alloc(0, 50);
  EXPECT_EQ(machine.peak_memory(), 110u);
  EXPECT_FALSE(machine.within_memory());
  machine.release(0, 50);
  EXPECT_EQ(machine.peak_memory(), 110u);  // peak is sticky
}

TEST(SummaTest, ComputesCorrectProduct) {
  support::Xoshiro256 rng(21);
  for (const int grid : {1, 2, 4}) {
    const std::size_t n = 16;
    const auto a = matmul::random_matrix<std::int64_t>(n, rng);
    const auto b = matmul::random_matrix<std::int64_t>(n, rng);
    Machine machine(grid * grid, 1u << 20);
    const SummaResult res = run_summa(a, b, grid, 4, machine);
    EXPECT_TRUE(res.correct) << "grid " << grid;
  }
}

TEST(SummaTest, BandwidthScalesAsNSquaredOverGrid) {
  support::Xoshiro256 rng(22);
  const std::size_t n = 32;
  const auto a = matmul::random_matrix<std::int64_t>(n, rng);
  const auto b = matmul::random_matrix<std::int64_t>(n, rng);
  std::uint64_t prev = 0;
  for (const int grid : {2, 4, 8}) {
    Machine machine(grid * grid, 1u << 20);
    const SummaResult res = run_summa(a, b, grid, 4, machine);
    ASSERT_TRUE(res.correct);
    // Ring broadcast: middle processors relay an A and a B slice both
    // ways, so bandwidth ~ 4 n^2 / grid (grid = 2 has no middle
    // relays and costs half that).
    const double expected = 4.0 * static_cast<double>(n) * n / grid;
    EXPECT_NEAR(static_cast<double>(res.bandwidth_cost), expected,
                0.6 * expected)
        << "grid " << grid;
    if (prev != 0) {
      EXPECT_LE(res.bandwidth_cost, prev);
    }
    prev = res.bandwidth_cost;
  }
}

TEST(SummaTest, SingleProcessorMovesNothing) {
  support::Xoshiro256 rng(23);
  const auto a = matmul::random_matrix<std::int64_t>(8, rng);
  const auto b = matmul::random_matrix<std::int64_t>(8, rng);
  Machine machine(1, 1u << 20);
  const SummaResult res = run_summa(a, b, 1, 8, machine);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.bandwidth_cost, 0u);
}

TEST(Summa25DTest, ReplicationReducesBandwidth) {
  const double n = 1 << 12;
  const Cost25D c1 = simulate_25d(n, 64, 1);
  const Cost25D c4 = simulate_25d(n, 64, 4);
  EXPECT_LT(c4.bandwidth_cost, c1.bandwidth_cost);
  EXPECT_GT(c4.memory_per_proc, c1.memory_per_proc);
  // c = 1 is plain SUMMA: 4 n^2 / sqrt(P).
  EXPECT_NEAR(c1.bandwidth_cost, 4.0 * n * n / 8.0, 1e-6);
}

TEST(DistributedStrassenTest, OneBfsLevelComputesCorrectProduct) {
  support::Xoshiro256 rng(41);
  for (const char* name : {"strassen", "winograd", "laderman"}) {
    const auto alg = bilinear::by_name(name);
    const std::size_t n =
        static_cast<std::size_t>(alg.n0()) * static_cast<std::size_t>(alg.n0()) * 4;
    const auto a = matmul::random_matrix<std::int64_t>(n, rng);
    const auto b = matmul::random_matrix<std::int64_t>(n, rng);
    Machine machine(alg.b(), 1ull << 30);
    const auto res = run_distributed_strassen_like(alg, a, b, machine, 4);
    EXPECT_TRUE(res.correct) << name;
    EXPECT_GT(res.bandwidth_cost, 0u);
    EXPECT_EQ(res.supersteps, 2u);
  }
}

TEST(DistributedStrassenTest, TrafficMatchesCapsAccounting) {
  // The value-level execution must move exactly the words the CAPS
  // accounting model charges for one BFS step:
  //   per superstep, proc p sends (b-1) * rows_p * (n/n0) words per
  //   phase-1 operand pair, and receives the complementary slices.
  const auto alg = bilinear::strassen();
  support::Xoshiro256 rng(42);
  const std::size_t n = 56;  // divisible by n0=2; inner rows 28 over 7 procs
  const auto a = matmul::random_matrix<std::int64_t>(n, rng);
  const auto b = matmul::random_matrix<std::int64_t>(n, rng);
  Machine machine(7, 1ull << 30);
  const auto res = run_distributed_strassen_like(alg, a, b, machine, 8);
  ASSERT_TRUE(res.correct);
  const std::uint64_t half = n / 2;            // 28
  const std::uint64_t rows = half / 7;         // 4 inner rows per proc
  // Phase 1 total: each of 7 procs sends 6 * 2*rows*half words; phase 3
  // total: each sends 6 * rows*half.
  const std::uint64_t phase1 = 7ull * 6 * 2 * rows * half;
  const std::uint64_t phase3 = 7ull * 6 * rows * half;
  EXPECT_EQ(res.total_words, phase1 + phase3);
  // Balanced: critical-path cost = per-proc traffic (sent + received).
  EXPECT_EQ(res.bandwidth_cost,
            (6 * 2 * rows * half) * 2 + (6 * rows * half) * 2);
}

TEST(CapsTest, UnlimitedMemoryIsAllBfs) {
  const auto alg = bilinear::strassen();
  const CapsResult res =
      simulate_caps(alg, 8, {.bfs_levels = 3, .local_memory = 1ull << 40});
  EXPECT_EQ(res.bfs_steps, 3);
  EXPECT_EQ(res.dfs_steps, 0);
  EXPECT_DOUBLE_EQ(res.procs, 343.0);
}

TEST(CapsTest, TightMemoryForcesDfsSteps) {
  const auto alg = bilinear::strassen();
  const double n = std::pow(2.0, 10);
  // Memory just above the lower limit 3n^2/P forces DFS interleaving.
  const std::uint64_t m =
      static_cast<std::uint64_t>(4.0 * n * n / 343.0);
  const CapsResult res =
      simulate_caps(alg, 10, {.bfs_levels = 3, .local_memory = m});
  EXPECT_EQ(res.bfs_steps, 3);
  EXPECT_GT(res.dfs_steps, 0);
  EXPECT_TRUE(res.within_memory(2 * m));  // stays near the budget
}

TEST(CapsTest, BandwidthRespectsBothLowerBounds) {
  const auto alg = bilinear::strassen();
  const double w0 = bounds::omega0(4, 7);
  for (const int l : {1, 2, 3}) {
    for (const std::uint64_t mem_scale : {1ull, 8ull}) {
      const int r = 10;
      const double n = std::pow(2.0, r);
      const double p = std::pow(7.0, l);
      const std::uint64_t m = static_cast<std::uint64_t>(
          3.0 * n * n / p * static_cast<double>(mem_scale));
      const CapsResult res =
          simulate_caps(alg, r, {.bfs_levels = l, .local_memory = m});
      const double lb_mem = bounds::parallel_bandwidth_lb(
          n, static_cast<double>(res.peak_memory), p, w0);
      const double lb_ind = bounds::memory_independent_lb(n, p, w0);
      // Theorem 1: the bandwidth cost is at least both bounds (up to
      // the paper's unoptimised constants; we allow a 36x constant as
      // in the Theorem-1 form).
      EXPECT_GT(res.bandwidth_cost, lb_mem / 36.0) << "l=" << l;
      EXPECT_GT(res.bandwidth_cost, lb_ind / 36.0) << "l=" << l;
    }
  }
}

TEST(CapsTest, BandwidthDecreasesWithMoreProcessors) {
  const auto alg = bilinear::strassen();
  double prev = 1e300;
  for (const int l : {1, 2, 3, 4}) {
    const CapsResult res =
        simulate_caps(alg, 9, {.bfs_levels = l, .local_memory = 1ull << 40});
    EXPECT_LT(res.bandwidth_cost, prev) << "l=" << l;
    prev = res.bandwidth_cost;
  }
}

TEST(CapsTest, StrongScalingShapeInUnlimitedMemory) {
  // With unlimited memory the per-processor bandwidth of the all-BFS
  // schedule scales like n^2 / P^{2/w0} (the memory-independent bound).
  const auto alg = bilinear::strassen();
  const double w0 = bounds::omega0(4, 7);
  const int r = 10;
  const double n = std::pow(2.0, r);
  for (const int l : {1, 2, 3}) {
    const double p = std::pow(7.0, l);
    const CapsResult res =
        simulate_caps(alg, r, {.bfs_levels = l, .local_memory = 1ull << 40});
    const double predicted = bounds::memory_independent_lb(n, p, w0);
    const double ratio = res.bandwidth_cost / predicted;
    EXPECT_GT(ratio, 0.3) << "l=" << l;
    EXPECT_LT(ratio, 40.0) << "l=" << l;
  }
}

TEST(CapsTest, GeneralisesToOtherBases) {
  for (const char* name : {"winograd", "laderman", "strassen_squared"}) {
    const auto alg = bilinear::by_name(name);
    const CapsResult res = simulate_caps(
        alg, 6, {.bfs_levels = 2, .local_memory = 1ull << 40});
    EXPECT_EQ(res.bfs_steps, 2) << name;
    EXPECT_GT(res.bandwidth_cost, 0.0) << name;
    EXPECT_DOUBLE_EQ(res.procs,
                     std::pow(static_cast<double>(alg.b()), 2.0))
        << name;
  }
}

// --- Sparse machine vs oracles: bit-identity contracts. ---

template <typename M>
audit::MachineSuperstepView view_of(const M& machine) {
  return {machine.step_sent(), machine.step_received(),
          machine.step_max_traffic(), machine.bandwidth_cost(),
          machine.total_words(), machine.supersteps()};
}

template <typename A, typename B>
void expect_bit_identical(const A& a, const B& b, const char* what) {
  EXPECT_EQ(a.bandwidth_cost(), b.bandwidth_cost()) << what;
  EXPECT_EQ(a.total_words(), b.total_words()) << what;
  EXPECT_EQ(a.supersteps(), b.supersteps()) << what;
  const audit::AuditReport report =
      audit::audit_machine_pair(view_of(a), view_of(b));
  EXPECT_TRUE(report.ok()) << what << "\n" << report.to_text();
}

TEST(MachineTest, SparseMatchesDenseOracleOnRandomTraffic) {
  // The epoch-stamped sparse accumulator must reproduce the dense
  // O(P)-scan oracle word for word — counters AND the whole
  // conservation log — on arbitrary scalar traffic, including self
  // sends, zero-word sends, and empty supersteps, at every P.
  for (const std::uint64_t procs : {1u, 2u, 3u, 5u, 8u, 16u, 33u, 64u}) {
    support::Xoshiro256 rng(1000 + procs);
    Machine sparse(procs, 1u << 20);
    DenseMachine dense(procs, 1u << 20);
    for (int step = 0; step < 20; ++step) {
      const std::uint64_t sends = rng() % (2 * procs + 1);
      for (std::uint64_t s = 0; s < sends; ++s) {
        const std::uint64_t from = rng() % procs;
        const std::uint64_t to = rng() % procs;
        const std::uint64_t words = rng() % 100;  // 0 words stays free
        sparse.send(from, to, words);
        dense.send(from, to, words);
      }
      sparse.end_superstep();
      dense.end_superstep();
    }
    expect_bit_identical(sparse, dense, "random traffic");
  }
}

TEST(MachineTest, SendClassMatchesScalarLoopUnderRandomInterleavings) {
  // Property test: a superstep assembled from disjoint processor
  // classes — symmetric rings and sender/receiver pair groups — must
  // cost exactly the same whether recorded as O(1) class aggregates or
  // as the equivalent scalar send loop, in any arrival order.
  constexpr std::uint64_t kProcs = 24;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    support::Xoshiro256 rng(2000 + trial);
    Machine aggregate(kProcs, 1u << 20);
    Machine scalar(kProcs, 1u << 20);
    for (int step = 0; step < 6; ++step) {
      struct Send {
        std::uint64_t from, to, words;
      };
      std::vector<Send> sends;
      std::uint64_t base = 0;
      while (base + 2 <= kProcs) {
        const std::uint64_t words = 1 + rng() % 50;
        if (rng() % 2 == 0) {
          // Ring class: every member forwards `words` to its neighbor,
          // so each sends and receives exactly `words`.
          const std::uint64_t size =
              std::min<std::uint64_t>(2 + rng() % 3, kProcs - base);
          aggregate.send_class(size, words);
          for (std::uint64_t i = 0; i < size; ++i) {
            sends.push_back({base + i, base + (i + 1) % size, words});
          }
          base += size;
        } else {
          // Pair group: `size` senders, each with a distinct receiver —
          // two one-sided classes on the aggregate machine.
          const std::uint64_t size =
              std::min<std::uint64_t>(1 + rng() % 2, (kProcs - base) / 2);
          if (size == 0) break;
          aggregate.send_class(size, words, 0);
          aggregate.send_class(size, 0, words);
          for (std::uint64_t i = 0; i < size; ++i) {
            sends.push_back({base + i, base + size + i, words});
          }
          base += 2 * size;
        }
      }
      // Fisher-Yates with the test rng: the scalar machine sees the
      // superstep's messages in a random interleaving.
      for (std::size_t i = sends.size(); i > 1; --i) {
        std::swap(sends[i - 1], sends[rng() % i]);
      }
      for (const Send& s : sends) scalar.send(s.from, s.to, s.words);
      aggregate.end_superstep();
      scalar.end_superstep();
    }
    expect_bit_identical(aggregate, scalar, "class vs scalar loop");
  }
}

TEST(SummaTest, SimulateMatchesRunBitForBit) {
  support::Xoshiro256 rng(91);
  const std::size_t n = 32;
  const auto a = matmul::random_matrix<std::int64_t>(n, rng);
  const auto b = matmul::random_matrix<std::int64_t>(n, rng);
  for (const int grid : {1, 2, 4, 8}) {
    Machine ran(grid * grid, 1u << 20);
    Machine simulated(grid * grid, 1u << 20);
    const SummaResult value = run_summa(a, b, grid, 2, ran);
    const SummaResult model = simulate_summa(n, grid, 2, simulated);
    ASSERT_TRUE(value.correct) << "grid " << grid;
    EXPECT_EQ(model.bandwidth_cost, value.bandwidth_cost) << "grid " << grid;
    EXPECT_EQ(model.total_words, value.total_words) << "grid " << grid;
    EXPECT_EQ(model.supersteps, value.supersteps) << "grid " << grid;
    expect_bit_identical(simulated, ran, "summa");
  }
}

TEST(DistributedStrassenTest, SimulateMatchesRunBitForBit) {
  support::Xoshiro256 rng(92);
  for (const char* name : {"strassen", "winograd", "laderman"}) {
    const auto alg = bilinear::by_name(name);
    const std::size_t n0 = static_cast<std::size_t>(alg.n0());
    const std::size_t n = n0 * n0 * 4;
    const auto a = matmul::random_matrix<std::int64_t>(n, rng);
    const auto b = matmul::random_matrix<std::int64_t>(n, rng);
    Machine ran(alg.b(), 1ull << 30);
    Machine simulated(alg.b(), 1ull << 30);
    const auto value = run_distributed_strassen_like(alg, a, b, ran, 4);
    const auto model = simulate_distributed_strassen_like(alg, n, simulated);
    ASSERT_TRUE(value.correct) << name;
    EXPECT_EQ(model.bandwidth_cost, value.bandwidth_cost) << name;
    EXPECT_EQ(model.total_words, value.total_words) << name;
    EXPECT_EQ(model.supersteps, value.supersteps) << name;
    expect_bit_identical(simulated, ran, name);
  }
}

TEST(CapsTest, MachineReplayBracketsTheDoubleModel) {
  // The integral replay rounds each superstep's fractional share up,
  // so it dominates the double model and exceeds it by at most ~3
  // words per counted superstep.
  const auto alg = bilinear::strassen();
  const int r = 8;
  for (const int l : {1, 2, 3}) {
    for (const bool limited : {false, true}) {
      const double n = std::pow(2.0, r);
      const double p = std::pow(7.0, l);
      const std::uint64_t mem =
          limited ? static_cast<std::uint64_t>(9.0 * n * n / p)
                  : (1ull << 62);
      const CapsOptions options{.bfs_levels = l, .local_memory = mem};
      const CapsResult model = simulate_caps(alg, r, options);
      Machine machine(static_cast<std::uint64_t>(p), mem);
      const CapsMachineResult replay =
          simulate_caps_machine(alg, r, options, machine);
      EXPECT_EQ(replay.bfs_steps, model.bfs_steps) << "l=" << l;
      EXPECT_EQ(replay.dfs_steps, model.dfs_steps) << "l=" << l;
      EXPECT_GT(replay.supersteps, 0u) << "l=" << l;
      const double lo = model.bandwidth_cost - 1e-6;
      const double hi = model.bandwidth_cost +
                        3.0 * static_cast<double>(replay.supersteps) + 1e-6;
      EXPECT_GE(static_cast<double>(replay.bandwidth_cost), lo) << "l=" << l;
      EXPECT_LE(static_cast<double>(replay.bandwidth_cost), hi) << "l=" << l;
    }
  }
}

}  // namespace
