// Self-test of the harness arithmetic the benchmark's metrics rest on:
// nearest-rank percentiles on known vectors, argument parsing and seed
// derivation. run.py --self-test runs it next to its checks of
// BENCHMARK.json (metric-name grammar, a unit and a direction for every
// metric). Exits 1 on the first failed expectation.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what.c_str());
}

void expect_percentile(const std::vector<double>& values, double p,
                       double want) {
  const double got = perfbench::percentile(values, p);
  expect(got == want, "percentile p=" + std::to_string(p) + " got " +
                          std::to_string(got) + " want " +
                          std::to_string(want));
}

bool parses(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "perfbench");
  perfbench::Args args;
  return perfbench::parse_args(static_cast<int>(argv.size()),
                               const_cast<char**>(argv.data()), args);
}

}  // namespace

int main() {
  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect_percentile(ten, 50, 5);
  expect_percentile(ten, 90, 9);
  expect_percentile(ten, 99, 10);
  expect_percentile(ten, 100, 10);
  expect_percentile(ten, 10, 1);
  expect_percentile(ten, 1, 1);
  expect_percentile({15, 20, 35, 40, 50}, 30, 20);
  expect_percentile({15, 20, 35, 40, 50}, 40, 20);
  expect_percentile({15, 20, 35, 40, 50}, 50, 35);
  expect_percentile({15, 20, 35, 40, 50}, 100, 50);
  expect_percentile({3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 25, 7);
  expect_percentile({3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 75, 15);
  expect_percentile({42}, 50, 42);
  expect_percentile({42}, 99, 42);
  expect_percentile({2, 1}, 50, 1);
  expect_percentile({2, 1}, 99, 2);
  // 1000 samples: p99 is the 990th smallest, ten samples lie beyond it.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  expect_percentile(thousand, 99, 990);
  expect_percentile(thousand, 50, 500);
  expect(perfbench::median({4, 1, 3, 2}) == 2, "median of an even count");

  expect(parses({"--workload", "serve", "--seed", "7", "--seconds", "10",
                 "--trace", "0"}),
         "a full command line parses");
  expect(!parses({"--workload", "serve", "--seed", "7", "--seconds", "10"}),
         "a missing --trace is refused");
  expect(!parses({"--workload", "serve", "--seed", "-1", "--seconds", "10",
                  "--trace", "0"}),
         "a negative seed is refused");
  expect(!parses({"--workload", "serve", "--seed", "1", "--seconds", "0",
                  "--trace", "0"}),
         "zero seconds is refused");
  expect(!parses({"--workload", "serve", "--seed", "1", "--seconds", "5",
                  "--trace", "2"}),
         "--trace 2 is refused");

  expect(perfbench::derive_seed(7, "trace") ==
             perfbench::derive_seed(7, "trace"),
         "derived seeds are reproducible");
  expect(perfbench::derive_seed(7, "trace") !=
             perfbench::derive_seed(8, "trace"),
         "derived seeds follow the run seed");
  expect(perfbench::derive_seed(7, "trace") !=
             perfbench::derive_seed(7, "local_search"),
         "each generator gets its own seed");

  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
