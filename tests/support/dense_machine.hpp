// Test-only oracle for parallel::Machine's scalar path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pathrouting::parallel {

/// The dense reference machine: the pre-sparse implementation, kept
/// verbatim as the bit-identity oracle for the scalar path (tests
/// replay the same schedule through both and require every counter and
/// log entry to match). It allocates all three per-processor vectors
/// up front and scans every processor per superstep, so it is the
/// thing the sparse machine must agree with — not the thing to run at
/// P = 10^6.
class DenseMachine {
 public:
  DenseMachine(std::uint64_t num_procs, std::uint64_t local_memory);

  [[nodiscard]] std::uint64_t procs() const { return sent_.size(); }
  [[nodiscard]] std::uint64_t local_memory() const { return local_memory_; }

  void send(std::uint64_t from, std::uint64_t to, std::uint64_t words);
  void end_superstep();
  void alloc(std::uint64_t proc, std::uint64_t words);
  void release(std::uint64_t proc, std::uint64_t words);

  [[nodiscard]] std::uint64_t bandwidth_cost() const { return bandwidth_; }
  [[nodiscard]] std::uint64_t total_words() const { return total_words_; }
  [[nodiscard]] std::uint64_t supersteps() const { return supersteps_; }
  [[nodiscard]] std::uint64_t peak_memory() const { return peak_memory_; }
  [[nodiscard]] bool within_memory() const {
    return peak_memory_ <= local_memory_;
  }

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
  std::uint64_t local_memory_;
  std::vector<std::uint64_t> sent_, received_, in_use_;
  std::uint64_t bandwidth_ = 0;
  std::uint64_t total_words_ = 0;
  std::uint64_t supersteps_ = 0;
  std::uint64_t peak_memory_ = 0;
  std::vector<std::uint64_t> log_sent_, log_received_, log_max_traffic_;
};

}  // namespace pathrouting::parallel
