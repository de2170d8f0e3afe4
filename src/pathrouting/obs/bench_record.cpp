#include "pathrouting/obs/bench_record.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "pathrouting/support/json.hpp"

namespace pathrouting::obs {

using support::json_string;

BenchValue BenchValue::of(std::string value) {
  BenchValue v;
  v.kind = Kind::kString;
  v.lexeme = std::move(value);
  return v;
}

BenchValue BenchValue::of(std::uint64_t value) {
  BenchValue v;
  v.kind = Kind::kInt;
  v.lexeme = std::to_string(value);
  v.int_value = static_cast<std::int64_t>(value);
  v.double_value = static_cast<double>(value);
  return v;
}

BenchValue BenchValue::of(std::int64_t value) {
  BenchValue v;
  v.kind = Kind::kInt;
  v.lexeme = std::to_string(value);
  v.int_value = value;
  v.double_value = static_cast<double>(value);
  return v;
}

BenchValue BenchValue::of(double value) {
  BenchValue v;
  v.kind = Kind::kDouble;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  v.lexeme = buf;
  v.double_value = value;
  return v;
}

BenchValue BenchValue::of(bool value) {
  BenchValue v;
  v.kind = Kind::kBool;
  v.lexeme = value ? "true" : "false";
  v.bool_value = value;
  return v;
}

std::string BenchValue::json() const {
  return kind == Kind::kString ? json_string(lexeme) : lexeme;
}

double BenchValue::as_double() const {
  return kind == Kind::kInt ? static_cast<double>(int_value) : double_value;
}

BenchRecord& BenchRecord::set(const std::string& key, BenchValue value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return *this;
}

const BenchValue* BenchRecord::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string BenchRecord::text_or(std::string_view key,
                                 const std::string& fallback) const {
  const BenchValue* v = find(key);
  return v != nullptr && v->kind == BenchValue::Kind::kString ? v->lexeme
                                                              : fallback;
}

std::int64_t BenchRecord::int_or(std::string_view key,
                                 std::int64_t fallback) const {
  const BenchValue* v = find(key);
  return v != nullptr && v->kind == BenchValue::Kind::kInt ? v->int_value
                                                           : fallback;
}

std::string RecordReader::text(std::string_view key) {
  const BenchValue* v = rec_.find(key);
  if (v == nullptr || v->kind != BenchValue::Kind::kString) {
    reject(key, v == nullptr ? "missing" : "expected a string");
    return "";
  }
  return v->lexeme;
}

std::string RecordReader::one_of(std::string_view key,
                                 const std::vector<std::string>& allowed) {
  std::string value = text(key);
  if (ok() && std::find(allowed.begin(), allowed.end(), value) ==
                  allowed.end()) {
    std::string why = json_string(value) + " is not one of";
    for (const std::string& a : allowed) why += " " + a;
    reject(key, why);
    return allowed.front();
  }
  return value;
}

std::int64_t RecordReader::integer(std::string_view key, std::int64_t min,
                                   std::int64_t max) {
  const BenchValue* v = rec_.find(key);
  if (v == nullptr || v->kind != BenchValue::Kind::kInt ||
      v->int_value < min || v->int_value > max) {
    const std::string range =
        max == INT64_MAX ? ">= " + std::to_string(min)
                         : "in [" + std::to_string(min) + ", " +
                               std::to_string(max) + "]";
    reject(key, v == nullptr ? "missing"
                             : "expected an integer " + range + ", got " +
                                   v->json());
    return min;
  }
  return v->int_value;
}

void RecordReader::reject(std::string_view key, const std::string& why) {
  if (!error_.empty()) return;
  error_ = "field " + json_string(key) + ": " + why;
}

std::string BenchFile::to_json() const {
  // Byte-compatible with the historical bench_common.hpp writer, so
  // committed baselines and freshly exported files diff cleanly.
  std::string out = "{\n  \"bench\": " + json_string(bench) + ",\n";
  if (threads.has_value()) {
    out += "  \"threads\": " + std::to_string(*threads) + ",\n";
  }
  for (const auto& [key, value] : extra) {
    out += "  " + json_string(key) + ": " + json_string(value) + ",\n";
  }
  out += "  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += i == 0 ? "\n    {" : ",\n    {";
    const auto& fields = records[i].fields();
    for (std::size_t j = 0; j < fields.size(); ++j) {
      if (j != 0) out += ", ";
      out += json_string(fields[j].first) + ": " + fields[j].second.json();
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void finalize_records(BenchFile& file, const std::string& commit) {
  for (BenchRecord& rec : file.records) {
    if (!rec.has("threads")) rec.set("threads", file.threads.value_or(0));
    if (!rec.has("commit")) rec.set("commit", commit);
  }
}

namespace {

/// Recursive-descent parser for the BenchFile subset of JSON: one
/// top-level object whose "records" member is an array of flat objects
/// holding strings, numbers, and booleans.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  BenchParseResult run() {
    BenchFile file;
    bool saw_records = false;
    skip_ws();
    if (!consume('{')) return error("expected '{'");
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) break;
      if (!first && !consume(',')) return error("expected ',' or '}'");
      skip_ws();
      first = false;
      std::string key;
      if (!parse_string(key)) return error("expected member name");
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      skip_ws();
      if (key == "records") {
        if (!parse_records(file.records)) return error(error_);
        saw_records = true;
      } else if (key == "bench") {
        if (!parse_string(file.bench)) return error("\"bench\" must be a string");
      } else if (key == "threads") {
        BenchValue v;
        if (!parse_scalar(v) || v.kind != BenchValue::Kind::kInt) {
          return error("\"threads\" must be an integer");
        }
        file.threads = static_cast<int>(v.int_value);
      } else {
        // Unknown top-level members are annotations ("note"); only
        // strings round-trip, anything else is a schema violation.
        std::string value;
        if (!parse_string(value)) {
          return error("top-level \"" + key + "\" must be a string");
        }
        file.extra.emplace_back(key, value);
      }
    }
    skip_ws();
    if (pos_ != text_.size()) return error("trailing content after '}'");
    if (file.bench.empty()) return error("missing \"bench\" member");
    if (!saw_records) return error("missing \"records\" member");
    return {std::move(file), ""};
  }

 private:
  BenchParseResult error(const std::string& msg) {
    const std::size_t line =
        1 + static_cast<std::size_t>(
                std::count(text_.begin(),
                           text_.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos_, text_.size())),
                           '\n'));
    return {std::nullopt, "line " + std::to_string(line) + ": " + msg};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            if (!parse_unicode_escape(out)) return false;
            break;
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  /// The four hex digits of a \uXXXX escape (a surrogate pair takes two
  /// escapes), appended to `out` as UTF-8. A lone surrogate is rejected.
  bool parse_unicode_escape(std::string& out) {
    const auto hex4 = [&](std::uint32_t& unit) {
      if (text_.size() - pos_ < 4) return false;
      const char* first = text_.data() + pos_;
      pos_ += 4;
      const auto [end, ec] = std::from_chars(first, first + 4, unit, 16);
      return ec == std::errc() && end == first + 4;
    };
    std::uint32_t cp = 0;
    if (!hex4(cp) || (cp >= 0xdc00 && cp <= 0xdfff)) return false;
    if (cp >= 0xd800 && cp <= 0xdbff) {
      std::uint32_t low = 0;
      if (text_.compare(pos_, 2, "\\u") != 0) return false;
      pos_ += 2;
      if (!hex4(low) || low < 0xdc00 || low > 0xdfff) return false;
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    // UTF-8: a lead byte with the top bits, then 6-bit continuations.
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr std::uint32_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
    }
    return true;
  }

  bool parse_scalar(BenchValue& out) {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = BenchValue::of(std::move(s));
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = BenchValue::of(true);
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = BenchValue::of(false);
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return false;
  }

  bool parse_number(BenchValue& out) {
    const std::size_t start = pos_;
    bool integral = true;
    consume('-');
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    if (lexeme.empty() || lexeme == "-") return false;
    BenchValue v;
    v.lexeme = lexeme;  // exact token: re-serialization is byte-stable
    if (integral) {
      v.kind = BenchValue::Kind::kInt;
      v.int_value = std::strtoll(lexeme.c_str(), nullptr, 10);
      v.double_value = static_cast<double>(v.int_value);
    } else {
      v.kind = BenchValue::Kind::kDouble;
      v.double_value = std::strtod(lexeme.c_str(), nullptr);
    }
    out = std::move(v);
    return true;
  }

  bool parse_records(std::vector<BenchRecord>& out) {
    if (!consume('[')) return set_error("expected '[' after \"records\"");
    bool first = true;
    while (true) {
      skip_ws();
      if (consume(']')) return true;
      if (!first && !consume(',')) return set_error("expected ',' or ']'");
      skip_ws();
      first = false;
      BenchRecord rec;
      if (!parse_record(rec)) return false;
      out.push_back(std::move(rec));
    }
  }

  bool parse_record(BenchRecord& out) {
    if (!consume('{')) return set_error("expected '{' for a record");
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) return true;
      if (!first && !consume(',')) return set_error("expected ',' or '}'");
      skip_ws();
      first = false;
      std::string key;
      if (!parse_string(key)) return set_error("expected record field name");
      skip_ws();
      if (!consume(':')) return set_error("expected ':'");
      skip_ws();
      BenchValue value;
      if (!parse_scalar(value)) {
        return set_error("record field \"" + key + "\" must be a scalar");
      }
      out.set(key, std::move(value));
    }
  }

  bool set_error(const std::string& msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

BenchParseResult parse_bench_json(std::string_view text) {
  return Parser(text).run();
}

BenchParseResult load_bench_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {std::nullopt, "cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  BenchParseResult result = parse_bench_json(buf.str());
  if (!result.file.has_value()) result.error = path + ": " + result.error;
  return result;
}

}  // namespace pathrouting::obs
