// The benchmark harness: command-line arguments, clocks, nearest-rank
// percentiles, per-layer timing of the benchmark's own calls into the
// library, and the one-line JSON result every run ends with.
//
// A run counts each checked operation (attempted / failed) and fills a
// flat map of metrics by name. Units, directions and the split between
// end-to-end and per-layer metrics live in BENCHMARK.json; run.py joins
// the two, so the names here must match the names declared there.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "pathrouting/bilinear/bilinear.hpp"
#include "pathrouting/support/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// Nearest-rank percentile: the smallest sample such that at least p
/// percent of the samples are <= it (p in (0, 100]). Requires at least
/// one sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Parses --workload --seed --seconds --trace; returns false (after
/// printing a diagnostic) on a missing or malformed flag.
bool parse_args(int argc, char** argv, Args& args);

/// Derives an independent generator seed for one named input from the
/// run seed (SplitMix64 over the seed and the name), so each generator
/// gets its own stream and the same run seed always gives the same
/// inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t run_seed,
                                        const char* generator);

/// Wall time of the benchmark's calls into each library layer. Inactive
/// clocks read no clock at all, so an untraced pass runs the same calls
/// with nothing around them.
class LayerClock {
 public:
  explicit LayerClock(bool active) : active_(active) {}

  template <typename Fn>
  decltype(auto) time(const std::string& layer, Fn&& fn) {
    if (!active_) return fn();
    const Stopwatch watch;
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      add(layer, watch.seconds());
    } else {
      auto result = fn();
      add(layer, watch.seconds());
      return result;
    }
  }

  void add(const std::string& layer, double seconds) {
    seconds_[layer] += seconds;
  }
  [[nodiscard]] double seconds(const std::string& layer) const;
  /// Sum over every layer: the part of a pass the layers account for.
  [[nodiscard]] double total() const;

 private:
  bool active_;
  std::map<std::string, double> seconds_;
};

/// Runs `pass` until the time budget is spent: a new pass starts only
/// if, taking the median pass so far, it would end nearer the budget
/// than stopping now, and at least one pass always runs. A run of long
/// passes then makes the same number of them whether the machine is in
/// a fast or a slow phase (certify: two passes of 13 s or of 17 s in
/// 30 s, where "only if it fits" made one slow pass). `check` runs
/// after each pass, outside its timing. Returns the wall time of each
/// pass.
template <typename Pass, typename Check>
std::vector<double> run_passes(double budget_s, Pass&& pass, Check&& check) {
  std::vector<double> times;
  const Stopwatch total;
  do {
    const Stopwatch watch;
    auto result = pass();
    times.push_back(watch.seconds());
    std::fprintf(stderr, "perfbench: pass %zu took %.3f s\n", times.size(),
                 times.back());
    check(result);
  } while (total.seconds() + median(times) / 2 <= budget_s);
  return times;
}

/// Wall time of `fn` run at `threads` pool threads (0 = the run's
/// PR_THREADS).
template <typename Fn>
double seconds_at_threads(int threads, Fn&& fn) {
  const pathrouting::support::parallel::ThreadOverride width(threads);
  const Stopwatch watch;
  fn();
  return watch.seconds();
}

/// Times a workload's set-up. Each run() repeats the set-up five times
/// and returns the last result. Workloads call it at the start of a run,
/// keeping the result, and again at the end; untraced runs also call
/// between_passes() after every pass. The reported median then mixes
/// the whole run: a set-up takes a tenth of a second, and the speed of
/// a shared machine's core changes by up to 40 % from one second to the
/// next.
class SetupTimer {
 public:
  /// Over a run of `run_seconds`, between_passes() repeats the set-up at
  /// most eight times.
  explicit SetupTimer(double run_seconds) : interval_s_(run_seconds / 8) {}

  template <typename Setup>
  auto run(Setup&& setup) {
    std::optional<decltype(setup())> result;
    for (int i = 0; i < 5; ++i) {
      result.reset();
      result.emplace(timed(setup));
    }
    return std::move(*result);
  }
  /// Repeats the set-up once, discarding its result, if an eighth of the
  /// run has gone by since the last repetition.
  template <typename Setup>
  void between_passes(Setup&& setup) {
    if (since_last_.seconds() >= interval_s_) timed(setup);
  }
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  template <typename Setup>
  auto timed(Setup& setup) {
    const Stopwatch watch;
    auto result = setup();
    times_.push_back(watch.seconds());
    since_last_ = Stopwatch();
    return result;
  }

  double interval_s_;
  Stopwatch since_last_;
  std::vector<double> times_;
};

/// The outcome of one run: checked operations and metrics by name.
class Report {
 public:
  /// Counts one operation; a failed one is also described on stderr.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  void set(const std::string& name, double value) { metrics_[name] = value; }
  /// Free-form context (seeds, thread count, CPU) printed on stdout
  /// before the result line.
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  /// Prints the notes and then the result line:
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
  void print() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> notes_;
};

/// The end-to-end metrics of a workload whose query is a whole pass
/// (certify, search). pass_s is the mean pass, not the median: a shared
/// machine switches between a fast and a slow phase every few tens of
/// seconds, and the median of a run's passes lands in whichever phase
/// covered more of the run (search: 18-21 % spread between runs, where
/// the mean spread 12-15 %).
void report_pass_queries(const std::vector<double>& passes, Report& report);

/// Loads every catalog algorithm and verifies its Brent equations: the
/// set-up all three workloads start with. An algorithm that fails
/// verification is left out, so a workload that needs it fails its
/// catalog check.
[[nodiscard]] std::map<std::string, pathrouting::bilinear::BilinearAlgorithm>
load_catalog();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// The CPU model string from /proc/cpuinfo ("unknown" if absent).
[[nodiscard]] std::string cpu_model();

/// Records the thread count (also as the metric parallel.threads) and
/// the CPU model of the run.
void note_machine(Report& report);

}  // namespace perfbench
