#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/support/parallel.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty() || !(p > 0 && p <= 100)) {
    std::fprintf(stderr, "perfbench: percentile of %zu samples at p=%g\n",
                 values.size(), p);
    std::abort();
  }
  std::sort(values.begin(), values.end());
  // p * n is exact for integral p, so a whole-number rank stays whole.
  const double rank = std::ceil(p * static_cast<double>(values.size()) / 100.0);
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

}  // namespace

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      args.trace = number == 1;
      have_trace = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", argv[i - 1],
                   value);
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <n> --trace <0|1>\n");
    return false;
  }
  return true;
}

std::uint64_t derive_seed(std::uint64_t run_seed, const char* generator) {
  std::uint64_t state = run_seed;
  for (const char* c = generator; *c != '\0'; ++c) {
    state = state * 1099511628211ull + static_cast<unsigned char>(*c);
  }
  // SplitMix64 finalizer.
  state += 0x9e3779b97f4a7c15ull;
  state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ull;
  state = (state ^ (state >> 27)) * 0x94d049bb133111ebull;
  return state ^ (state >> 31);
}

double LayerClock::seconds(const std::string& layer) const {
  const auto it = seconds_.find(layer);
  return it == seconds_.end() ? 0.0 : it->second;
}

double LayerClock::total() const {
  double sum = 0;
  for (const auto& [layer, s] : seconds_) sum += s;
  return sum;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::count(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed == 0) return;
  std::fprintf(stderr, "perfbench: FAILED %llu of %llu: %s\n",
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted), what.c_str());
}

void Report::print() const {
  for (const auto& [key, value] : notes_) {
    std::printf("perfbench %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  const char* sep = "";
  for (const auto& [name, value] : metrics_) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_pass_queries(const std::vector<double>& passes, Report& report) {
  double measured = 0;
  for (const double s : passes) measured += s;
  report.set("pass_s", measured / static_cast<double>(passes.size()));
  report.set("queries_per_s", static_cast<double>(passes.size()) / measured);
  report.set("peak_rss_mib", peak_rss_mib());
}

std::map<std::string, pathrouting::bilinear::BilinearAlgorithm>
load_catalog() {
  std::map<std::string, pathrouting::bilinear::BilinearAlgorithm> catalog;
  for (const std::string& name : pathrouting::bilinear::catalog_names()) {
    pathrouting::bilinear::BilinearAlgorithm alg =
        pathrouting::bilinear::by_name(name);
    if (alg.verify_brent()) catalog.emplace(name, std::move(alg));
  }
  return catalog;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

void note_machine(Report& report) {
  const int threads = pathrouting::support::parallel::num_threads();
  report.note("threads", std::to_string(threads));
  report.note("cpu", cpu_model());
  report.set("parallel.threads", threads);
}

}  // namespace perfbench
