// Text and JSON rendering of audit reports (declared in
// audit/diagnostic.hpp; lives in pr_audit so lower layers can produce
// Diagnostics without linking the renderer).
#include <string>

#include "pathrouting/audit/diagnostic.hpp"
#include "pathrouting/support/json.hpp"

namespace pathrouting::audit {

using support::append_json_string;

namespace {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

}  // namespace

std::string AuditReport::to_text() const {
  std::string out;
  for (const Diagnostic& diag : diagnostics_) {
    out += severity_name(diag.severity);
    out += " [";
    out += diag.rule;
    out += "] ";
    out += diag.message;
    if (diag.vertex != kNoId) {
      out += " (vertex ";
      out += std::to_string(diag.vertex);
      out += ')';
    }
    if (diag.edge != kNoId) {
      out += " (edge ";
      out += std::to_string(diag.edge);
      out += ')';
    }
    if (diag.has_counts) {
      out += " (expected ";
      out += std::to_string(diag.expected);
      out += ", actual ";
      out += std::to_string(diag.actual);
      out += ')';
    }
    out += '\n';
  }
  out += std::to_string(rules_run_.size());
  out += " rules run, ";
  out += std::to_string(num_errors());
  out += " errors, ";
  out += std::to_string(diagnostics_.size() - num_errors());
  out += " other findings\n";
  return out;
}

std::string AuditReport::to_json() const {
  std::string out = "{\"rules_run\":[";
  for (std::size_t i = 0; i < rules_run_.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, rules_run_[i]);
  }
  out += "],\"num_errors\":";
  out += std::to_string(num_errors());
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& diag = diagnostics_[i];
    if (i > 0) out += ',';
    out += "{\"rule\":";
    append_json_string(out, diag.rule);
    out += ",\"severity\":";
    append_json_string(out, severity_name(diag.severity));
    out += ",\"message\":";
    append_json_string(out, diag.message);
    if (diag.vertex != kNoId) {
      out += ",\"vertex\":";
      out += std::to_string(diag.vertex);
    }
    if (diag.edge != kNoId) {
      out += ",\"edge\":";
      out += std::to_string(diag.edge);
    }
    if (diag.has_counts) {
      out += ",\"expected\":";
      out += std::to_string(diag.expected);
      out += ",\"actual\":";
      out += std::to_string(diag.actual);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace pathrouting::audit
