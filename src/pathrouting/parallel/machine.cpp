#include "pathrouting/parallel/machine.hpp"

#include <algorithm>

namespace pathrouting::parallel {

Machine::Machine(std::uint64_t num_procs, std::uint64_t local_memory)
    : num_procs_(num_procs), local_memory_(local_memory) {
  PR_REQUIRE(num_procs >= 1);
}

void Machine::ensure_traffic_slots() {
  if (!sent_.empty()) return;
  // The scalar path needs per-processor slots; huge machines must use
  // the class-aggregate path (that is the point of this machine).
  PR_REQUIRE_MSG(num_procs_ <= (1ull << 24),
                 "scalar send() on a huge machine; use send_class()");
  const auto n = static_cast<std::size_t>(num_procs_);
  sent_.assign(n, 0);
  received_.assign(n, 0);
  traffic_epoch_.assign(n, 0);
}

void Machine::touch(std::uint64_t proc) {
  const auto p = static_cast<std::size_t>(proc);
  if (traffic_epoch_[p] != epoch_) {
    traffic_epoch_[p] = epoch_;
    sent_[p] = 0;
    received_[p] = 0;
    touched_.push_back(proc);
  }
}

void Machine::send(std::uint64_t from, std::uint64_t to,
                   std::uint64_t words) {
  PR_REQUIRE(from < num_procs_);
  PR_REQUIRE(to < num_procs_);
  if (from == to || words == 0) return;  // local moves are free
  ensure_traffic_slots();
  touch(from);
  touch(to);
  sent_[static_cast<std::size_t>(from)] =
      checked_add(sent_[static_cast<std::size_t>(from)], words);
  received_[static_cast<std::size_t>(to)] =
      checked_add(received_[static_cast<std::size_t>(to)], words);
  step_sent_total_ = checked_add(step_sent_total_, words);
  step_received_total_ = checked_add(step_received_total_, words);
}

void Machine::send_class(std::uint64_t class_size,
                         std::uint64_t sent_per_proc,
                         std::uint64_t received_per_proc) {
  PR_REQUIRE(class_size >= 1 && class_size <= num_procs_);
  const std::uint64_t traffic = checked_add(sent_per_proc, received_per_proc);
  if (traffic == 0) return;
  class_max_traffic_ = std::max(class_max_traffic_, traffic);
  step_sent_total_ = checked_add(step_sent_total_,
                                 checked_mul(class_size, sent_per_proc));
  step_received_total_ = checked_add(
      step_received_total_, checked_mul(class_size, received_per_proc));
}

void Machine::end_superstep() {
  std::uint64_t max_traffic = class_max_traffic_;
  for (const std::uint64_t proc : touched_) {
    const auto p = static_cast<std::size_t>(proc);
    max_traffic = std::max(max_traffic, checked_add(sent_[p], received_[p]));
  }
  touched_.clear();
  ++epoch_;  // invalidates every stamped slot without writing them
  class_max_traffic_ = 0;
  const std::uint64_t sent_total = step_sent_total_;
  const std::uint64_t received_total = step_received_total_;
  step_sent_total_ = 0;
  step_received_total_ = 0;
  total_words_ = checked_add(total_words_, sent_total);
  if (max_traffic > 0) {
    bandwidth_ = checked_add(bandwidth_, max_traffic);
    ++supersteps_;
    log_sent_.push_back(sent_total);
    log_received_.push_back(received_total);
    log_max_traffic_.push_back(max_traffic);
  }
}

void Machine::ensure_memory_slots() {
  PR_REQUIRE_MSG(mem_style_ != MemStyle::kUniform,
                 "scalar alloc() after alloc_all() on one machine");
  mem_style_ = MemStyle::kScalar;
  if (!in_use_.empty()) return;
  PR_REQUIRE_MSG(num_procs_ <= (1ull << 24),
                 "scalar alloc() on a huge machine; use alloc_all()");
  in_use_.assign(static_cast<std::size_t>(num_procs_), 0);
}

void Machine::alloc(std::uint64_t proc, std::uint64_t words) {
  PR_REQUIRE(proc < num_procs_);
  ensure_memory_slots();
  const auto p = static_cast<std::size_t>(proc);
  in_use_[p] = checked_add(in_use_[p], words);
  peak_memory_ = std::max(peak_memory_, in_use_[p]);
}

void Machine::release(std::uint64_t proc, std::uint64_t words) {
  PR_REQUIRE(proc < num_procs_);
  PR_REQUIRE(mem_style_ == MemStyle::kScalar);
  const auto p = static_cast<std::size_t>(proc);
  PR_REQUIRE(in_use_[p] >= words);
  in_use_[p] -= words;
}

void Machine::alloc_all(std::uint64_t words_per_proc) {
  PR_REQUIRE_MSG(mem_style_ != MemStyle::kScalar,
                 "alloc_all() after scalar alloc() on one machine");
  mem_style_ = MemStyle::kUniform;
  uniform_in_use_ = checked_add(uniform_in_use_, words_per_proc);
  peak_memory_ = std::max(peak_memory_, uniform_in_use_);
}

void Machine::release_all(std::uint64_t words_per_proc) {
  PR_REQUIRE(mem_style_ == MemStyle::kUniform);
  PR_REQUIRE(uniform_in_use_ >= words_per_proc);
  uniform_in_use_ -= words_per_proc;
}

}  // namespace pathrouting::parallel
