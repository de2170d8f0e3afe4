// Zero-overhead-when-disabled tracing and metrics.
//
// The routing verifiers are the product: their counts are correctness
// claims and their runtimes are the ROADMAP's headline numbers. This
// layer makes both observable without perturbing either:
//
//   * ShardedCount — a count kept in per-thread stripes of 64-byte
//     cells, so threads adding at once do not write one cache line.
//     Relaxed integer addition is exactly commutative, so — like
//     support/parallel's HitCounter — totals are bit-identical at any
//     PR_THREADS once the adding threads have joined.
//   * Counter — a named monotonic ShardedCount. add() sits behind one
//     branch on the global enabled flag; with the layer disabled (the
//     default) the branch is the entire cost and no memory is touched.
//   * TraceSpan — an RAII wall-clock span. Disabled, the constructor
//     is one branch: no clock read, no thread-local access, and no
//     allocation (test_obs proves this with a counting allocator).
//     Enabled, completed spans land in a per-thread log (no
//     cross-thread writes on the hot path) with the nesting depth
//     recorded at open time.
//
// Aggregation is deterministic: counters_snapshot() orders by name and
// spans_snapshot() by (thread id, start, depth), where thread ids are
// assigned in registration order under a lock — never from the OS
// thread id. Snapshots must be taken between parallel regions (the
// same contract as HitCounter::take); support/parallel joins before
// every for_chunks return, so any point after a verifier call is safe.
//
// Enabling: set PR_OBS=1 in the environment, or call set_enabled(true)
// (tests and the bench gate do). exporters for the collected data live
// in obs/export.hpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pathrouting::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
extern std::atomic<unsigned> g_next_stripe;
}  // namespace internal

/// True when the observability layer records anything. Reads one
/// relaxed atomic bool — this is the only cost instrumentation adds to
/// a disabled hot path.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Programmatic switch (overrides the PR_OBS environment default).
void set_enabled(bool on);

/// A monotonic count that concurrent adders do not contend on. Each
/// thread is given a stripe once, round robin, and adds with one relaxed
/// fetch_add to that stripe's cell; while at most kStripes threads add,
/// no two of them share a cell, and cells sit on separate cache lines.
/// value() sums the cells: exact once every add it should see
/// happens-before the read (the adding threads joined, or the caller
/// synchronized with them otherwise).
class ShardedCount {
 public:
  static constexpr unsigned kStripes = 8;

  void add(std::uint64_t delta = 1) {
    cells_[stripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Zeroes every cell (no add may run concurrently).
  void reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  static unsigned stripe() {
    thread_local const unsigned mine =
        internal::g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
        kStripes;
    return mine;
  }
  std::array<Cell, kStripes> cells_{};
};

/// A named monotonic counter. Instances register themselves on
/// construction and are expected to be function-local statics at the
/// instrumentation site (so each name registers exactly once):
///
///   static obs::Counter hits("routing.chains_enumerated");
///   hits.add(counts.num_chains);
///
/// `name` must outlive the counter (string literals do).
class Counter {
 public:
  explicit Counter(const char* name);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    if (!enabled()) return;
    count_.add(delta);
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] std::uint64_t value() const { return count_.value(); }

 private:
  friend void reset_counters();
  const char* name_;
  ShardedCount count_;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// All registered counters ordered by name — the deterministic
/// aggregation order every exporter uses. Counters sharing a name
/// (several instrumentation sites, one logical metric) are merged by
/// summing. Zero-valued counters are included so a metrics file
/// always has the full schema.
[[nodiscard]] std::vector<CounterValue> counters_snapshot();

/// Zeroes every registered counter (gate and tests isolate runs).
void reset_counters();

/// RAII trace span. Records nothing (and allocates nothing) while the
/// layer is disabled; `name` must be a string literal or otherwise
/// outlive the final snapshot.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!enabled()) return;
    open(name);
  }
  ~TraceSpan() {
    if (open_) close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(const char* name);
  void close();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
  bool open_ = false;
};

/// A completed span. Times are nanoseconds on the steady clock since
/// the process-wide trace epoch (first instrumented event).
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  int tid = 0;    // registration-ordered logical thread id
  int depth = 0;  // open spans on the same thread at open time
};

/// Completed spans of every thread, ordered by (tid, start_ns, depth).
/// Call between parallel regions only (see the header comment).
[[nodiscard]] std::vector<SpanRecord> spans_snapshot();

/// Drops all completed spans (open spans are unaffected).
void clear_spans();

/// Peak resident set size of the process in bytes (getrusage
/// ru_maxrss; 0 on platforms without it). Monotonic over the process
/// lifetime, so a bench record that should bound a workload's memory
/// must be stamped right after that workload and before any larger
/// one. Benches store it as the standard record field
/// "max_rss_bytes"; pr_bench_gate treats that field as run-dependent
/// (never compared against a baseline).
[[nodiscard]] std::uint64_t max_rss_bytes();

}  // namespace pathrouting::obs
