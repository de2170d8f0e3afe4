// Shared machinery for the audit rule suites (not part of the public
// API): capped finding buffers that merge deterministically in chunk
// order, and the selection-aware flush that stamps rules as run.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pathrouting/audit/diagnostic.hpp"
#include "pathrouting/audit/registry.hpp"

namespace pathrouting::audit::internal {

/// Findings are capped per rule: on a badly corrupted 10^7-vertex graph
/// every vertex can violate a rule, and a triager needs the first few
/// offenders plus the total, not ten million lines.
inline constexpr std::uint64_t kMaxFindingsPerRule = 16;

/// Vertices per fixed chunk of the per-vertex parallel scans. Chunk
/// boundaries are part of the deterministic-output contract (findings
/// survive the cap in chunk order), so this is a constant, not a
/// tuning knob.
inline constexpr std::uint64_t kScanGrain = 1 << 16;

/// Rule ids run_all reads besides their suites: it counts the
/// brute-force routing hits once for both rules.
inline constexpr std::string_view kCongestion = "routing.congestion";
inline constexpr std::string_view kImplicitMatch = "routing.implicit-match";

/// Per-chunk finding accumulator. Chunks collect at most the cap (plus
/// the exact violation count); merging keeps the earliest findings in
/// chunk order, so the surviving diagnostics are the ones with the
/// smallest scan positions regardless of thread count.
struct Findings {
  std::vector<Diagnostic> diags;
  std::uint64_t total = 0;

  void add(Diagnostic diag) {
    ++total;
    if (diags.size() < kMaxFindingsPerRule) diags.push_back(std::move(diag));
  }
  void merge(Findings& other) {
    total += other.total;
    for (Diagnostic& diag : other.diags) {
      if (diags.size() >= kMaxFindingsPerRule) break;
      diags.push_back(std::move(diag));
    }
  }
};

/// Shorthand for a one-line error diagnostic.
inline Diagnostic error(std::string_view rule, std::string message,
                        std::uint64_t vertex = kNoId,
                        std::uint64_t edge = kNoId) {
  Diagnostic diag;
  diag.rule = std::string(rule);
  diag.message = std::move(message);
  diag.vertex = vertex;
  diag.edge = edge;
  return diag;
}

/// Error diagnostic carrying an expected-vs-actual count pair.
inline Diagnostic error_counts(std::string_view rule, std::string message,
                               std::uint64_t expected, std::uint64_t actual,
                               std::uint64_t vertex = kNoId,
                               std::uint64_t edge = kNoId) {
  Diagnostic diag = error(rule, std::move(message), vertex, edge);
  diag.expected = expected;
  diag.actual = actual;
  diag.has_counts = true;
  return diag;
}

/// Shorthand for a note: context a report carries beside its errors.
inline Diagnostic note(std::string_view rule, std::string message) {
  Diagnostic diag = error(rule, std::move(message));
  diag.severity = Severity::kNote;
  return diag;
}

/// Emits a rule's findings into the report (if the rule is selected):
/// marks the rule as run, appends the capped diagnostics, and records a
/// note when the cap truncated the full violation count.
inline void flush(AuditReport& report, const RuleSelection& selection,
                  std::string_view rule, Findings findings) {
  if (!selection.enabled(rule)) return;
  report.mark_rule_run(std::string(rule));
  const std::uint64_t kept = findings.diags.size();
  for (Diagnostic& diag : findings.diags) report.add(std::move(diag));
  if (findings.total > kept) {
    report.add(note(rule, "further findings suppressed (showing first " +
                              std::to_string(kept) + " of " +
                              std::to_string(findings.total) + ")"));
  }
}

}  // namespace pathrouting::audit::internal
