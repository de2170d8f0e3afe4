// The one JSON string escaper, shared by the audit report and
// BENCH_*.json writers. Output is strict JSON: '"' and '\' are
// backslash-escaped, \n and \t keep their short forms, and every other
// control byte below 0x20 becomes \u00XX. Bytes from 0x20 up pass
// through unchanged, so UTF-8 text stays UTF-8.
#pragma once

#include <string>
#include <string_view>

namespace pathrouting::support {

/// Appends `text` to `out` as a quoted, escaped JSON string.
void append_json_string(std::string& out, std::string_view text);

/// `text` as a quoted, escaped JSON string.
[[nodiscard]] inline std::string json_string(std::string_view text) {
  std::string out;
  append_json_string(out, text);
  return out;
}

}  // namespace pathrouting::support
