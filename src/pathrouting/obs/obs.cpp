#include "pathrouting/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pathrouting::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
std::atomic<unsigned> g_next_stripe{0};
}  // namespace internal

namespace {

/// Arms the flag from the environment before main() so PR_OBS=1 traces
/// a bench run without code changes. set_enabled() can override later.
const bool g_env_armed = [] {
  const char* env = std::getenv("PR_OBS");
  if (env != nullptr && std::strcmp(env, "0") != 0 && *env != '\0') {
    internal::g_enabled.store(true, std::memory_order_relaxed);
  }
  return true;
}();

std::uint64_t now_ns() {
  // The epoch is the first instrumented event, so trace timestamps
  // start near zero regardless of process start-up work.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Per-thread span log. Owned by the registry (so records survive
/// thread exit); written only by its owning thread.
struct ThreadLog {
  explicit ThreadLog(int tid) : tid(tid) {}
  int tid;
  int open_depth = 0;
  std::vector<SpanRecord> spans;
};

struct Registry {
  std::mutex mutex;
  std::vector<Counter*> counters;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  // Meyers singleton: constructed before the first Counter that
  // registers into it, hence destroyed after every function-local
  // static Counter.
  static Registry reg;
  return reg;
}

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.logs.push_back(
        std::make_unique<ThreadLog>(static_cast<int>(reg.logs.size())));
    log = reg.logs.back().get();
  }
  return *log;
}

}  // namespace

void set_enabled(bool on) {
  (void)g_env_armed;  // anchor the env initializer
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name) : name_(name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.counters.push_back(this);
}

std::vector<CounterValue> counters_snapshot() {
  Registry& reg = registry();
  std::vector<CounterValue> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out.reserve(reg.counters.size());
    for (const Counter* c : reg.counters) {
      out.push_back({c->name(), c->value()});
    }
  }
  // Name order, not registration order: registration order depends on
  // which translation unit's static reached its first call first.
  std::stable_sort(out.begin(), out.end(),
                   [](const CounterValue& a, const CounterValue& b) {
                     return a.name < b.name;
                   });
  // Several instrumentation sites may share one logical counter name;
  // the snapshot presents the summed total under the single name.
  std::vector<CounterValue> merged;
  for (CounterValue& c : out) {
    if (!merged.empty() && merged.back().name == c.name) {
      merged.back().value += c.value;
    } else {
      merged.push_back(std::move(c));
    }
  }
  return merged;
}

void reset_counters() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (Counter* c : reg.counters) {
    c->count_.reset();
  }
}

void TraceSpan::open(const char* name) {
  ThreadLog& log = thread_log();
  name_ = name;
  depth_ = log.open_depth++;
  open_ = true;
  start_ns_ = now_ns();
}

void TraceSpan::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = thread_log();
  --log.open_depth;
  log.spans.push_back({name_, start_ns_, end - start_ns_, log.tid, depth_});
  open_ = false;
}

std::vector<SpanRecord> spans_snapshot() {
  Registry& reg = registry();
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& log : reg.logs) {
      out.insert(out.end(), log->spans.begin(), log->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.depth < b.depth;
                   });
  return out;
}

void clear_spans() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& log : reg.logs) log->spans.clear();
}

std::uint64_t max_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

}  // namespace pathrouting::obs
