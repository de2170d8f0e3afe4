// The one BENCH_*.json record schema.
//
// Before this header each bench binary improvised its own field set —
// bench_routing added threads/engine/commit per record, bench_cdag and
// bench_segment did not — so nothing downstream could parse "any
// baseline". Now every bench (and the metrics exporter, and
// pr_bench_gate's reports) goes through BenchFile:
//
//   {"bench": <name>, "threads": <resolved PR_THREADS>,
//    "records": [{<flat key/value fields>}, ...]}
//
// plus optional extra top-level string fields (committed baselines
// carry a "note" describing the machine). finalize_records() injects
// the standard per-record fields ("threads", "commit") into records
// that lack them, so bench main()s only state what is specific to the
// measurement.
//
// Values keep their exact JSON lexeme: parse_bench_json() followed by
// to_json() reproduces a writer-produced file byte for byte, which is
// what lets test_obs pin the round trip and the gate diff baselines
// textually. The parser accepts the full JSON number grammar
// (committed baselines contain "9e-06") and ignores no fields — an
// unknown record field is data, an unknown top-level non-string is an
// error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pathrouting::obs {

/// One typed record field. `lexeme` is the exact token as it appears
/// (or will appear) in the JSON file; strings store their unescaped
/// content instead and re-escape on output.
struct BenchValue {
  enum class Kind { kString, kInt, kDouble, kBool };

  static BenchValue of(std::string value);
  static BenchValue of(const char* value) { return of(std::string(value)); }
  static BenchValue of(std::uint64_t value);
  static BenchValue of(std::int64_t value);
  static BenchValue of(double value);  // %.6f, the historical format
  static BenchValue of(bool value);

  /// The token to splice into JSON (strings come back quoted+escaped).
  [[nodiscard]] std::string json() const;

  [[nodiscard]] bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }
  [[nodiscard]] double as_double() const;

  Kind kind = Kind::kInt;
  std::string lexeme;            // unescaped content for kString
  std::int64_t int_value = 0;    // kInt
  double double_value = 0.0;     // kInt and kDouble
  bool bool_value = false;       // kBool
};

/// A flat, ordered field list. set() replaces an existing key in place
/// (field order is what the writer emits, so replacement keeps files
/// diffable).
class BenchRecord {
 public:
  BenchRecord& set(const std::string& key, BenchValue value);
  BenchRecord& set(const std::string& key, const std::string& value) {
    return set(key, BenchValue::of(value));
  }
  BenchRecord& set(const std::string& key, const char* value) {
    return set(key, BenchValue::of(value));
  }
  BenchRecord& set(const std::string& key, std::uint64_t value) {
    return set(key, BenchValue::of(value));
  }
  BenchRecord& set(const std::string& key, std::uint32_t value) {
    return set(key, BenchValue::of(static_cast<std::uint64_t>(value)));
  }
  BenchRecord& set(const std::string& key, int value) {
    return set(key, BenchValue::of(static_cast<std::int64_t>(value)));
  }
  BenchRecord& set(const std::string& key, double value) {
    return set(key, BenchValue::of(value));
  }
  BenchRecord& set(const std::string& key, bool value) {
    return set(key, BenchValue::of(value));
  }

  [[nodiscard]] const BenchValue* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// The string content of `key`, or `fallback` when absent or not a
  /// string.
  [[nodiscard]] std::string text_or(std::string_view key,
                                    const std::string& fallback) const;
  /// The integer value of `key`, or `fallback` when absent / not kInt.
  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) const;

  [[nodiscard]] const std::vector<std::pair<std::string, BenchValue>>& fields()
      const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, BenchValue>> fields_;
};

/// Reads the spec fields of a baseline record, the input a re-run is
/// rebuilt from. BENCH files are outside input, so a missing, mistyped
/// or out-of-range field is not defaulted: the reader keeps a
/// diagnostic naming the first such field, and the caller rejects the
/// record when ok() is false. Getters return a harmless placeholder
/// after an error.
class RecordReader {
 public:
  explicit RecordReader(const BenchRecord& rec) : rec_(rec) {}

  /// A string field that must be present.
  std::string text(std::string_view key);
  /// A string field whose value must be one of `allowed`.
  std::string one_of(std::string_view key,
                     const std::vector<std::string>& allowed);
  /// An integer field that must be present and within [min, max].
  std::int64_t integer(std::string_view key, std::int64_t min = 0,
                       std::int64_t max = INT64_MAX);
  /// Rejects `key` for `why` (kept only if no earlier error is pending).
  void reject(std::string_view key, const std::string& why);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  /// `field "<key>": <why>`, or empty.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  const BenchRecord& rec_;
  std::string error_;
};

/// A whole BENCH_*.json file.
struct BenchFile {
  std::string bench;
  int threads = 0;
  /// Top-level string fields beyond bench/threads/records ("note"),
  /// in file order; round-tripped verbatim.
  std::vector<std::pair<std::string, std::string>> extra;
  std::vector<BenchRecord> records;

  [[nodiscard]] std::string to_json() const;
};

/// Injects the standard per-record fields every baseline must carry —
/// "threads" (the file-level resolution) and "commit" — into records
/// missing them. Benches call this (via bench::BenchJson) right before
/// writing.
void finalize_records(BenchFile& file, const std::string& commit);

struct BenchParseResult {
  std::optional<BenchFile> file;
  std::string error;  // empty on success; includes 1-based line number
};

[[nodiscard]] BenchParseResult parse_bench_json(std::string_view text);

/// Reads and parses `path`; a missing or unreadable file is an error.
[[nodiscard]] BenchParseResult load_bench_file(const std::string& path);

}  // namespace pathrouting::obs
