// perfbench: runs one workload and prints its result line. Normally
// started through run.py, which builds it, sets PR_THREADS and PR_OBS,
// and attaches units from BENCHMARK.json.
#include <cstdio>

#include "pathrouting/obs/obs.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  // Recording stays off except around the traced passes of a traced
  // run, which switch it on themselves.
  pathrouting::obs::set_enabled(false);

  perfbench::Report report;
  perfbench::note_machine(report);
  if (args.workload == "certify") {
    perfbench::run_certify(args, report);
  } else if (args.workload == "search") {
    perfbench::run_search(args, report);
  } else if (args.workload == "serve") {
    perfbench::run_serve(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  report.print();
  return 0;
}
