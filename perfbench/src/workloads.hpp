// The three workloads. Each fills a Report with its checked operations
// and every metric it measures; README.md says what each one runs and
// why it was chosen.
//
// Untraced runs (--trace 0) measure the end-to-end metrics over passes
// that fill --seconds. Traced runs (--trace 1) turn the obs layer on
// (PR_OBS=1), run one untraced and one traced pass of the same work,
// time the benchmark's own calls into each library layer, re-time the
// parallel phases at one thread, and check that every exact count
// agrees across the passes and thread counts.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_certify(const Args& args, Report& report);
void run_search(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
