// The observability layer's own contract: nesting, deterministic
// aggregation at any thread count, zero cost (including zero
// allocations) while disabled, and byte-stable JSON round-trips of the
// BENCH record schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/search/optimizer.hpp"
#include "pathrouting/support/parallel.hpp"

// ---------------------------------------------------------------------
// Counting global allocator: proves the disabled hot path never
// allocates. Interposed for the whole test binary; the counter is a
// relaxed atomic so instrumented parallel sections stay correct.
// ---------------------------------------------------------------------

// Sanitizer runtimes interpose operator new themselves; a replacement
// allocator in the test binary would race them for symbol resolution
// (ASan then reports alloc-dealloc mismatches for blocks handed out by
// ITS new and freed by OUR free). The zero-allocation proof runs in
// the plain build only; sanitized builds skip it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PR_OBS_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PR_OBS_COUNTING_ALLOCATOR 0
#endif
#endif
#ifndef PR_OBS_COUNTING_ALLOCATOR
#define PR_OBS_COUNTING_ALLOCATOR 1
#endif

#if PR_OBS_COUNTING_ALLOCATOR

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Replacing BOTH global new and delete with a malloc/free pair is
// well-defined; GCC's -Wmismatched-new-delete cannot see the pairing
// from a single definition, so silence it for this block only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

#endif  // PR_OBS_COUNTING_ALLOCATOR

namespace {

using namespace pathrouting;  // NOLINT
namespace par = support::parallel;

/// Every obs test owns the global state: start disabled and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_counters();
    obs::clear_spans();
    obs::set_enabled(false);
  }
  void TearDown() override { obs::set_enabled(false); }
};

std::uint64_t counter_value(const std::string& name) {
  for (const obs::CounterValue& c : obs::counters_snapshot()) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

// ---------------------------------------------------------------------
// Spans nest correctly.
// ---------------------------------------------------------------------

TEST_F(ObsTest, SpansRecordNestingDepthAndOrder) {
  obs::set_enabled(true);
  {
    const obs::TraceSpan outer("outer");
    {
      const obs::TraceSpan mid("mid");
      const obs::TraceSpan inner("inner");
    }
    const obs::TraceSpan sibling("sibling");
  }
  const std::vector<obs::SpanRecord> spans = obs::spans_snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Completion order within a thread is innermost-first; the snapshot
  // re-sorts by start time, so the opening order comes back.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_STREQ(spans[1].name, "mid");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_STREQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].depth, 1);
  // Children are contained in their parent's interval.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  // All on the same (calling) thread.
  for (const obs::SpanRecord& s : spans) EXPECT_EQ(s.tid, spans[0].tid);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  {
    const obs::TraceSpan span("invisible");
  }
  EXPECT_TRUE(obs::spans_snapshot().empty());
}

// ---------------------------------------------------------------------
// Counters aggregate deterministically at PR_THREADS = 1, 2, 7.
// ---------------------------------------------------------------------

TEST_F(ObsTest, CounterTotalsAreThreadCountInvariant) {
  obs::set_enabled(true);
  constexpr std::uint64_t kN = 10000;
  std::uint64_t reference = 0;
  for (const int threads : {1, 2, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::reset_counters();
    const par::ThreadOverride override_threads(threads);
    static obs::Counter items("test.items");
    static obs::Counter chunks("test.chunks");
    par::parallel_for(0, kN, 64, [&](std::uint64_t lo, std::uint64_t hi) {
      chunks.add();
      items.add(hi - lo);
    });
    const std::uint64_t total = counter_value("test.items");
    EXPECT_EQ(total, kN);
    EXPECT_EQ(counter_value("test.chunks"), (kN + 63) / 64);
    if (reference == 0) reference = total;
    EXPECT_EQ(total, reference);
  }
}

TEST_F(ObsTest, CounterTotalIsExactWithMoreThreadsThanStripes) {
  obs::set_enabled(true);
  static obs::Counter striped("test.striped");
  constexpr unsigned kThreads = obs::ShardedCount::kStripes + 1;
  constexpr std::uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < kAdds; ++i) striped.add();
      striped.add(t);
    });
  }
  for (std::thread& t : threads) t.join();
  // Two threads share a stripe; their adds must still all land.
  EXPECT_EQ(counter_value("test.striped"),
            kThreads * kAdds + kThreads * (kThreads - 1) / 2);
  obs::reset_counters();
  EXPECT_EQ(counter_value("test.striped"), 0u);
}

TEST_F(ObsTest, SnapshotIsNameOrderedAndMergesDuplicates) {
  obs::set_enabled(true);
  // Two distinct Counter instances sharing a name model two
  // instrumentation sites feeding one logical metric.
  static obs::Counter site_a("test.dup");
  static obs::Counter site_b("test.dup");
  site_a.add(3);
  site_b.add(4);
  const std::vector<obs::CounterValue> snap = obs::counters_snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name) << "snapshot not sorted";
  }
  EXPECT_EQ(counter_value("test.dup"), 7u);
}

// ---------------------------------------------------------------------
// The pebble layer: one span and one update per counter per simulate
// call, summing to the returned totals even when calls run in parallel.
// ---------------------------------------------------------------------

TEST_F(ObsTest, PebbleCountersSumSimulatedTotals) {
  const cdag::Cdag cdag(bilinear::strassen(), 2,
                        {.with_coefficients = false});
  const auto is_out = [&](cdag::VertexId v) {
    return cdag.layout().is_output(v);
  };
  const std::vector<cdag::VertexId> order = schedule::dfs_schedule(cdag);
  constexpr std::uint64_t kRuns = 12;
  const auto options = [](std::uint64_t i) {
    return pebble::PebbleOptions{
        .cache_size = 5 + 3 * (i / 2),
        .eviction = i % 2 == 0 ? pebble::Eviction::Belady
                               : pebble::Eviction::Lru};
  };
  std::uint64_t reads = 0, writes = 0, evictions = 0;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const pebble::PebbleResult res =
        pebble::simulate(cdag.graph(), order, options(i), is_out);
    reads += res.reads;
    writes += res.writes;
    evictions += res.evictions_dirty + res.evictions_clean;
  }
  ASSERT_GT(evictions, 0u);
  const auto run_all = [&] {
    const par::ThreadOverride threads(4);
    par::parallel_for(0, kRuns, 1, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) {
        (void)pebble::simulate(cdag.graph(), order, options(i), is_out);
      }
    });
  };

  obs::reset_counters();
  run_all();
  obs::set_enabled(true);
  EXPECT_EQ(counter_value("pebble.runs"), 0u);
  EXPECT_EQ(counter_value("pebble.reads"), 0u);
  EXPECT_EQ(counter_value("pebble.writes"), 0u);
  EXPECT_EQ(counter_value("pebble.evictions"), 0u);

  obs::clear_spans();
  run_all();
  EXPECT_EQ(counter_value("pebble.runs"), kRuns);
  EXPECT_EQ(counter_value("pebble.reads"), reads);
  EXPECT_EQ(counter_value("pebble.writes"), writes);
  EXPECT_EQ(counter_value("pebble.evictions"), evictions);
  std::uint64_t spans = 0;
  for (const obs::SpanRecord& span : obs::spans_snapshot()) {
    spans += std::string(span.name) == "pebble.simulate";
  }
  EXPECT_EQ(spans, kRuns);
}

TEST_F(ObsTest, StoppedRunCountsOnlyAsStopped) {
  const cdag::Cdag cdag(bilinear::strassen(), 2,
                        {.with_coefficients = false});
  const auto is_out = [&](cdag::VertexId v) {
    return cdag.layout().is_output(v);
  };
  const std::vector<cdag::VertexId> order = schedule::dfs_schedule(cdag);
  pebble::PebbleOptions options{.cache_size = 8};
  const std::uint64_t io =
      pebble::simulate(cdag.graph(), order, options, is_out).io();
  options.io_limit = io / 2;
  obs::set_enabled(true);
  const pebble::PebbleResult res =
      pebble::simulate(cdag.graph(), order, options, is_out);
  ASSERT_TRUE(res.stopped);
  ASSERT_GT(res.reads, 0u);
  EXPECT_EQ(counter_value("pebble.runs"), 1u);
  EXPECT_EQ(counter_value("pebble.stopped"), 1u);
  EXPECT_EQ(counter_value("pebble.reads"), 0u);
  EXPECT_EQ(counter_value("pebble.writes"), 0u);
  EXPECT_EQ(counter_value("pebble.evictions"), 0u);
}

// Every leaf the search reaches is either cut by its bound or simulated
// once, on a budget-bound point of the E20 matrix (strassen r = 1,
// M = 6, seeded with the DFS order).
TEST_F(ObsTest, SearchLeavesAreCutOrSimulatedOnce) {
  const cdag::Cdag cdag(bilinear::strassen(), 1,
                        {.with_coefficients = false});
  const std::function<bool(cdag::VertexId)> is_out =
      [&](cdag::VertexId v) { return cdag.layout().is_output(v); };
  search::SearchOptions options;
  options.cache_size = 6;
  options.node_budget = 40000;
  options.initial_incumbent = schedule::dfs_schedule(cdag);
  obs::set_enabled(true);
  const search::SearchResult result =
      search::branch_and_bound(cdag.graph(), options, is_out);
  ASSERT_TRUE(result.budget_exhausted);
  const std::uint64_t cut = counter_value("search.leaves_cut");
  const std::uint64_t simulated = counter_value("search.leaves_simulated");
  EXPECT_EQ(counter_value("search.leaves_scored"), result.leaves_scored);
  EXPECT_EQ(result.leaves_scored, cut + simulated);
  EXPECT_GT(cut, 0u);
  EXPECT_EQ(counter_value("pebble.runs"), simulated);
  const std::uint64_t stopped = counter_value("pebble.stopped");
  EXPECT_GT(stopped, 0u);
  EXPECT_LT(stopped, simulated);
}

TEST_F(ObsTest, CertifierSpansSplitEndsFromBoundary) {
  // One certification opens one "certify.ends" span (the serial pass)
  // and one "certify.boundary" span (the parallel pass), and counts its
  // schedule steps and segments, at any thread count.
  const cdag::Cdag cdag(bilinear::strassen(), 4,
                        {.with_coefficients = false});
  const std::vector<cdag::VertexId> order = schedule::dfs_schedule(cdag);
  const bounds::CertifyParams params{
      .cache_size = 1, .k = 2, .s_bar_target = 5};
  for (const int threads : {1, 4}) {
    const par::ThreadOverride guard(threads);
    obs::set_enabled(true);
    obs::reset_counters();
    obs::clear_spans();
    const bounds::CertifyResult cert =
        bounds::certify_segments(cdag, order, params);
    ASSERT_GE(cert.segments.size(), 2u);
    EXPECT_EQ(counter_value("certify.runs"), 1u);
    EXPECT_EQ(counter_value("certify.steps"), order.size());
    EXPECT_EQ(counter_value("certify.segments"), cert.segments.size());
    std::uint64_t ends = 0, boundary = 0;
    for (const obs::SpanRecord& span : obs::spans_snapshot()) {
      ends += std::string(span.name) == "certify.ends";
      boundary += std::string(span.name) == "certify.boundary";
    }
    EXPECT_EQ(ends, 1u) << "threads " << threads;
    EXPECT_EQ(boundary, 1u) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------
// Disabled mode: no allocations, counters frozen.
// ---------------------------------------------------------------------

TEST_F(ObsTest, DisabledModeDoesNotAllocateOrCount) {
#if !PR_OBS_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Warm up: force lazy registration (counter registry, this thread's
  // span log) outside the measured window.
  obs::set_enabled(true);
  static obs::Counter warm("test.disabled");
  warm.add();
  {
    const obs::TraceSpan span("warm");
  }
  obs::set_enabled(false);
  obs::reset_counters();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const obs::TraceSpan span("hot");
    warm.add(7);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled obs hot path allocated";
  obs::set_enabled(true);
  EXPECT_EQ(counter_value("test.disabled"), 0u);
#endif
}

// The schedule search pushes, pops and reads its prefix bound at every
// node, so after construction none of the three may touch the heap.
TEST(ZeroAllocation, PrefixBoundPushPopTotalDoNotAllocate) {
#if !PR_OBS_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const cdag::Cdag cdag(bilinear::strassen(), 2,
                        {.with_coefficients = false});
  const std::vector<cdag::VertexId> order = schedule::dfs_schedule(cdag);
  const std::function<bool(cdag::VertexId)> is_out =
      [&](cdag::VertexId v) { return cdag.layout().is_output(v); };
  bounds::PrefixBound bound(cdag.graph(), 16, is_out);

  std::uint64_t sum = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    for (const cdag::VertexId v : order) {
      bound.push(v);
      sum += bound.total().total();
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      bound.pop();
      sum += bound.total().total();
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "PrefixBound allocated after construction";
  EXPECT_GT(sum, 0u);
#endif
}

// ---------------------------------------------------------------------
// JSON export round-trips.
// ---------------------------------------------------------------------

TEST(BenchRecordTest, FileRoundTripsByteStable) {
  obs::BenchFile file;
  file.bench = "roundtrip";
  file.threads = 3;
  file.extra.emplace_back("note", "has \"quotes\" and \\backslash");
  obs::BenchRecord& rec = file.records.emplace_back();
  rec.set("experiment", "chain_routing")
      .set("k", 4)
      .set("chains", std::uint64_t{1234567890123ull})
      .set("ok", true)
      .set("seconds", 0.000123);
  file.records.emplace_back().set("metric", "memo.canonical_cache_hits").set("value", 0);

  const std::string once = file.to_json();
  const obs::BenchParseResult parsed = obs::parse_bench_json(once);
  ASSERT_TRUE(parsed.file.has_value()) << parsed.error;
  EXPECT_EQ(parsed.file->to_json(), once);
  EXPECT_EQ(parsed.file->bench, "roundtrip");
  EXPECT_EQ(parsed.file->threads, 3);
  ASSERT_EQ(parsed.file->records.size(), 2u);
  EXPECT_EQ(parsed.file->records[0].int_or("chains", 0), 1234567890123ll);
}

TEST(BenchRecordTest, ControlCharactersRoundTripAsStrictJson) {
  std::string nasty;
  for (char c = 0x01; c < 0x20; ++c) nasty.push_back(c);
  nasty += "\"\\ end";
  obs::BenchFile file;
  file.bench = "escapes";
  file.extra.emplace_back("note", nasty);
  file.records.emplace_back().set(nasty, nasty);

  const std::string once = file.to_json();
  for (const char c : once) {
    // Strict JSON: the only raw control bytes are the layout newlines.
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c);
  }
  EXPECT_NE(once.find("\\u0001"), std::string::npos) << once;
  const obs::BenchParseResult parsed = obs::parse_bench_json(once);
  ASSERT_TRUE(parsed.file.has_value()) << parsed.error;
  EXPECT_EQ(parsed.file->to_json(), once);
  ASSERT_EQ(parsed.file->records.size(), 1u);
  EXPECT_EQ(parsed.file->records[0].text_or(nasty, ""), nasty);
  EXPECT_EQ(parsed.file->extra.at(0).second, nasty);
}

TEST(BenchRecordTest, ParserDecodesEveryJsonEscape) {
  const obs::BenchParseResult parsed = obs::parse_bench_json(
      R"({"bench": "x", "note": "\u0041\b\f\/\r\u00e9\u20AC\ud83d\ude00",)"
      R"( "records": []})");
  ASSERT_TRUE(parsed.file.has_value()) << parsed.error;
  EXPECT_EQ(parsed.file->extra.at(0).second,
            "A\b\f/\r\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  for (const char* bad : {R"({"bench": "\u12", "records": []})",
                          R"({"bench": "\u12g4", "records": []})",
                          R"({"bench": "\ud83d", "records": []})",
                          R"({"bench": "\ude00", "records": []})",
                          R"({"bench": "\x41", "records": []})"}) {
    EXPECT_FALSE(obs::parse_bench_json(bad).file.has_value()) << bad;
  }
}

TEST(BenchRecordTest, CommittedBaselinesReserializeByteIdentically) {
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PR_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    SCOPED_TRACE(name);
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const obs::BenchParseResult parsed = obs::parse_bench_json(text.str());
    ASSERT_TRUE(parsed.file.has_value()) << parsed.error;
    EXPECT_EQ(parsed.file->to_json(), text.str());
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(BenchRecordTest, ParserPreservesNumberLexemes) {
  // Historical BENCH files carry scientific-notation seconds ("9e-06");
  // a parse -> serialize cycle must not rewrite them.
  const std::string text =
      "{\n  \"bench\": \"lexemes\",\n  \"threads\": 1,\n  \"records\": [\n"
      "    {\"seconds\": 9e-06, \"ratio\": 1.5, \"count\": 42}\n  ]\n}\n";
  const obs::BenchParseResult parsed = obs::parse_bench_json(text);
  ASSERT_TRUE(parsed.file.has_value()) << parsed.error;
  EXPECT_EQ(parsed.file->to_json(), text);
  const obs::BenchValue* seconds = parsed.file->records[0].find("seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_TRUE(seconds->is_number());
  EXPECT_DOUBLE_EQ(seconds->as_double(), 9e-06);
}

TEST(BenchRecordTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::parse_bench_json("{").file.has_value());
  EXPECT_FALSE(obs::parse_bench_json("{\"bench\": 3}").file.has_value());
  EXPECT_FALSE(
      obs::parse_bench_json("{\"bench\": \"x\", \"records\": [{]}")
          .file.has_value());
  const obs::BenchParseResult bad =
      obs::parse_bench_json("{\"bench\": \"x\",\n \"threads\": }");
  EXPECT_FALSE(bad.file.has_value());
  EXPECT_NE(bad.error.find("line"), std::string::npos)
      << "parse errors carry a line number: " << bad.error;
}

TEST_F(ObsTest, ChromeTraceContainsCompletedSpans) {
  obs::set_enabled(true);
  {
    const obs::TraceSpan outer("chrome.outer");
    const obs::TraceSpan inner("chrome.inner");
  }
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"chrome.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"chrome.inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, CountersExportInBenchSchema) {
  obs::set_enabled(true);
  static obs::Counter metric("test.export");
  metric.add(5);
  const obs::BenchFile file = obs::counters_as_bench_file("obs_test", "abc123");
  EXPECT_EQ(file.bench, "obs_test");
  bool found = false;
  for (const obs::BenchRecord& rec : file.records) {
    EXPECT_EQ(rec.text_or("commit", ""), "abc123");
    if (rec.text_or("metric", "") == "test.export") {
      found = true;
      EXPECT_EQ(rec.int_or("value", -1), 5);
    }
  }
  EXPECT_TRUE(found);
  // The export itself must re-parse (what pr_bench_gate consumes).
  EXPECT_TRUE(obs::parse_bench_json(file.to_json()).file.has_value());
}

// pr_search writes its counters to PR_METRICS_OUT, in the same schema
// pr_bench_gate reads. The point's walk stops at its node budget, so
// the counter equals the budget.
TEST(MetricsOut, PrSearchWritesItsCountersWhenAsked) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pathrouting_test_obs.metrics." + std::to_string(::getpid()) +
        ".json"))
          .string();
  std::filesystem::remove(path);
  const std::string command = "PR_OBS=1 PR_METRICS_OUT='" + path + "' '" +
                              PR_SEARCH_BINARY +
                              "' --alg strassen --r 1 --m 6 --budget 2000"
                              " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  const obs::BenchParseResult loaded = obs::load_bench_file(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.file.has_value()) << loaded.error;
  std::int64_t expanded = -1;
  for (const obs::BenchRecord& rec : loaded.file->records) {
    if (rec.text_or("metric", "") == "search.nodes_expanded") {
      expanded = rec.int_or("value", -1);
    }
  }
  EXPECT_EQ(expanded, 2000) << "search.nodes_expanded (-1: missing)";
}

TEST(RecordReader, ReadsPresentFieldsAndNamesTheFirstBadOne) {
  obs::BenchRecord rec;
  rec.set("algorithm", "strassen").set("k", 3).set("label", 7);
  obs::RecordReader in(rec);
  EXPECT_EQ(in.one_of("algorithm", {"winograd", "strassen"}), "strassen");
  EXPECT_EQ(in.integer("k", 1), 3);
  EXPECT_TRUE(in.ok());

  EXPECT_EQ(in.integer("k", 4), 4);  // below the minimum: placeholder
  EXPECT_EQ(in.error(), "field \"k\": expected an integer >= 4, got 3");
  (void)in.text("missing");  // a later error does not overwrite
  EXPECT_EQ(in.error(), "field \"k\": expected an integer >= 4, got 3");

  obs::RecordReader typed(rec);
  (void)typed.text("label");
  EXPECT_EQ(typed.error(), "field \"label\": expected a string");
  obs::RecordReader unknown(rec);
  (void)unknown.one_of("algorithm", {"winograd"});
  EXPECT_EQ(unknown.error(),
            "field \"algorithm\": \"strassen\" is not one of winograd");
  obs::RecordReader missing(rec);
  (void)missing.integer("m");
  EXPECT_EQ(missing.error(), "field \"m\": missing");
}

}  // namespace
