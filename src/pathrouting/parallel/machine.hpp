// Simulated distributed-memory machine (the paper's parallel model):
// P processors, each with local memory M words, communicating by
// point-to-point messages. The bandwidth cost of an execution is the
// number of words moved along the critical path — modelled here as the
// sum over supersteps of the maximum per-processor traffic (words sent
// plus received) in that superstep, the standard BSP accounting that
// matches "words sent simultaneously count once" ([16], Section 1).
//
// Two accounting paths share the counters:
//
//  * the scalar path (send/alloc/release with explicit processor ids)
//    uses a superstep-batched sparse accumulator: per-processor slots
//    are epoch-stamped instead of cleared, and a touched-processor
//    scratch list makes end_superstep() O(active processors) with zero
//    allocation in steady state. Tests hold it bit-identical to a dense
//    reference implementation that iterates all P slots per superstep
//    (tests/support/dense_machine.hpp).
//  * the class-aggregate path (send_class/alloc_all): CAPS, SUMMA, and
//    2.5D schedules send identical word counts to whole processor
//    classes, so a class of `class_size` processors with a common
//    (sent, received) per-processor profile is recorded in O(1). No
//    per-processor state is ever allocated, which is what lets a
//    10^6-processor superstep machine run a full strong-scaling sweep
//    in microseconds per superstep (bench_distributed_scaling).
//
// Every counter update is an overflow-checked u64 add/mul: at P = 10^6
// a single malformed class record could silently wrap bandwidth_ or
// total_words_, and the counts are the experiment's product. The
// machine also keeps a per-superstep conservation log (total words
// sent / received / the charged maximum) — the surface the audit rule
// machine.superstep-conservation checks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/support/check.hpp"

namespace pathrouting::parallel {

/// a + b, aborting on u64 overflow (machine counters never wrap).
[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a,
                                               std::uint64_t b) {
  PR_REQUIRE_MSG(a <= UINT64_MAX - b, "machine counter overflows u64");
  return a + b;
}

/// a * b, aborting on u64 overflow (class totals never wrap).
[[nodiscard]] inline std::uint64_t checked_mul(std::uint64_t a,
                                               std::uint64_t b) {
  PR_REQUIRE_MSG(b == 0 || a <= UINT64_MAX / b,
                 "machine counter overflows u64");
  return a * b;
}

class Machine {
 public:
  Machine(std::uint64_t num_procs, std::uint64_t local_memory);

  [[nodiscard]] std::uint64_t procs() const { return num_procs_; }
  [[nodiscard]] std::uint64_t local_memory() const { return local_memory_; }

  /// Records a `words`-word message in the current superstep (scalar
  /// path; allocates the per-processor slots on first use).
  void send(std::uint64_t from, std::uint64_t to, std::uint64_t words);

  /// Records a class of `class_size` processors, each of which sends
  /// `sent_per_proc` and receives `received_per_proc` words in the
  /// current superstep, in O(1). Within a superstep, class records
  /// stand for disjoint processor sets, disjoint from every
  /// scalar-touched processor; the caller owns that precondition (the
  /// machine never learns the member ids). The symmetric overload
  /// covers the all-exchange-within-the-class case.
  void send_class(std::uint64_t class_size, std::uint64_t sent_per_proc,
                  std::uint64_t received_per_proc);
  void send_class(std::uint64_t class_size, std::uint64_t words) {
    send_class(class_size, words, words);
  }

  /// Closes the superstep: adds the max per-processor traffic to the
  /// bandwidth cost and appends a conservation-log entry. No-op if
  /// nothing was sent.
  void end_superstep();

  /// Memory accounting: processors allocate and release words; peak
  /// usage is tracked against the local memory limit (reported, not
  /// enforced — experiments explore both regimes). The scalar form
  /// (explicit processor) and the uniform form (every processor at
  /// once, O(1)) must not be mixed on one machine: their peaks are not
  /// reconcilable without dense state.
  void alloc(std::uint64_t proc, std::uint64_t words);
  void release(std::uint64_t proc, std::uint64_t words);
  void alloc_all(std::uint64_t words_per_proc);
  void release_all(std::uint64_t words_per_proc);

  [[nodiscard]] std::uint64_t bandwidth_cost() const { return bandwidth_; }
  [[nodiscard]] std::uint64_t total_words() const { return total_words_; }
  [[nodiscard]] std::uint64_t supersteps() const { return supersteps_; }
  [[nodiscard]] std::uint64_t peak_memory() const { return peak_memory_; }
  [[nodiscard]] bool within_memory() const {
    return peak_memory_ <= local_memory_;
  }

  /// Per-superstep conservation log, one entry per counted superstep
  /// (the audit surface of machine.superstep-conservation).
  [[nodiscard]] std::span<const std::uint64_t> step_sent() const {
    return log_sent_;
  }
  [[nodiscard]] std::span<const std::uint64_t> step_received() const {
    return log_received_;
  }
  [[nodiscard]] std::span<const std::uint64_t> step_max_traffic() const {
    return log_max_traffic_;
  }

 private:
  void ensure_traffic_slots();
  void ensure_memory_slots();
  /// Stamps `proc`'s traffic slot for the current superstep, zeroing a
  /// stale slot and adding it to the touched list.
  void touch(std::uint64_t proc);

  std::uint64_t num_procs_;
  std::uint64_t local_memory_;

  // Scalar traffic: epoch-stamped slots (a slot is live iff its stamp
  // equals epoch_) plus the touched scratch list — end_superstep never
  // scans all P and never clears arrays.
  std::vector<std::uint64_t> sent_, received_;
  std::vector<std::uint64_t> traffic_epoch_;
  std::vector<std::uint64_t> touched_;
  std::uint64_t epoch_ = 1;

  // Class-aggregate traffic for the current superstep.
  std::uint64_t class_max_traffic_ = 0;
  // Conservation totals for the current superstep (scalar + class).
  std::uint64_t step_sent_total_ = 0;
  std::uint64_t step_received_total_ = 0;

  // Memory: scalar per-processor slots (lazy) or the uniform track.
  enum class MemStyle : std::uint8_t { kNone, kScalar, kUniform };
  MemStyle mem_style_ = MemStyle::kNone;
  std::vector<std::uint64_t> in_use_;
  std::uint64_t uniform_in_use_ = 0;

  std::uint64_t bandwidth_ = 0;
  std::uint64_t total_words_ = 0;
  std::uint64_t supersteps_ = 0;
  std::uint64_t peak_memory_ = 0;

  std::vector<std::uint64_t> log_sent_, log_received_, log_max_traffic_;
};

}  // namespace pathrouting::parallel
