#include "support/dense_machine.hpp"

#include <algorithm>

#include "pathrouting/support/check.hpp"

namespace pathrouting::parallel {

DenseMachine::DenseMachine(std::uint64_t num_procs,
                           std::uint64_t local_memory)
    : local_memory_(local_memory),
      sent_(static_cast<std::size_t>(num_procs), 0),
      received_(static_cast<std::size_t>(num_procs), 0),
      in_use_(static_cast<std::size_t>(num_procs), 0) {
  PR_REQUIRE(num_procs >= 1);
}

void DenseMachine::send(std::uint64_t from, std::uint64_t to,
                        std::uint64_t words) {
  PR_REQUIRE(from < procs());
  PR_REQUIRE(to < procs());
  if (from == to || words == 0) return;  // local moves are free
  sent_[static_cast<std::size_t>(from)] += words;
  received_[static_cast<std::size_t>(to)] += words;
}

void DenseMachine::end_superstep() {
  std::uint64_t max_traffic = 0;
  std::uint64_t sent_total = 0;
  for (std::size_t p = 0; p < sent_.size(); ++p) {
    max_traffic = std::max(max_traffic, sent_[p] + received_[p]);
    sent_total += sent_[p];
    sent_[p] = 0;
  }
  std::uint64_t received_total = 0;
  for (std::size_t p = 0; p < received_.size(); ++p) {
    received_total += received_[p];
    received_[p] = 0;
  }
  total_words_ += sent_total;
  if (max_traffic > 0) {
    bandwidth_ += max_traffic;
    ++supersteps_;
    log_sent_.push_back(sent_total);
    log_received_.push_back(received_total);
    log_max_traffic_.push_back(max_traffic);
  }
}

void DenseMachine::alloc(std::uint64_t proc, std::uint64_t words) {
  PR_REQUIRE(proc < procs());
  const auto p = static_cast<std::size_t>(proc);
  in_use_[p] += words;
  peak_memory_ = std::max(peak_memory_, in_use_[p]);
}

void DenseMachine::release(std::uint64_t proc, std::uint64_t words) {
  PR_REQUIRE(proc < procs());
  const auto p = static_cast<std::size_t>(proc);
  PR_REQUIRE(in_use_[p] >= words);
  in_use_[p] -= words;
}

}  // namespace pathrouting::parallel
