#include "pathrouting/support/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pathrouting/support/check.hpp"

namespace pathrouting::support {

Cli::Cli(int argc, const char* const* argv) {
  PR_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected argument '" + arg + "' (flags start with --)");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      given_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      given_[arg] = argv[++i];
    } else {
      given_[arg] = "true";  // boolean switch
    }
  }
}

bool Cli::take(const std::string& name, std::string& value) {
  auto it = given_.find(name);
  if (it == given_.end()) return false;
  value = it->second;
  given_.erase(it);
  return true;
}

std::int64_t Cli::flag_int(const std::string& name, std::int64_t def,
                           const std::string& help) {
  help_lines_.push_back("  --" + name + "=<int>  (default " +
                        std::to_string(def) + ")  " + help);
  std::string value;
  if (!take(name, value)) return def;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    fail("--" + name + " expects an integer, got '" + value + "'");
  }
  return parsed;
}

double Cli::flag_double(const std::string& name, double def,
                        const std::string& help) {
  help_lines_.push_back("  --" + name + "=<num>  (default " +
                        std::to_string(def) + ")  " + help);
  std::string value;
  if (!take(name, value)) return def;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(parsed)) {
    fail("--" + name + " expects a number, got '" + value + "'");
  }
  return parsed;
}

std::string Cli::flag_str(const std::string& name, const std::string& def,
                          const std::string& help) {
  help_lines_.push_back("  --" + name + "=<str>  (default \"" + def + "\")  " +
                        help);
  std::string value;
  return take(name, value) ? value : def;
}

bool Cli::flag_bool(const std::string& name, bool def,
                    const std::string& help) {
  help_lines_.push_back("  --" + name + "  (default " +
                        (def ? "true" : "false") + ")  " + help);
  std::string value;
  if (!take(name, value)) return def;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  fail("--" + name + " is a switch, got value '" + value + "'");
}

void Cli::finish(const std::string& program_description) {
  if (help_requested_) {
    std::printf("%s\n\n%s\n\nFlags:\n", program_.c_str(),
                program_description.c_str());
    for (const auto& line : help_lines_) std::printf("%s\n", line.c_str());
    std::exit(0);
  }
  if (!given_.empty()) {
    std::fprintf(stderr, "unknown flag(s):");
    for (const auto& [name, value] : given_) {
      std::fprintf(stderr, " --%s=%s", name.c_str(), value.c_str());
    }
    std::fprintf(stderr, "\nuse --help for usage\n");
    std::exit(2);
  }
}

void Cli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\nuse --help for usage\n", program_.c_str(),
               message.c_str());
  std::exit(2);
}

}  // namespace pathrouting::support
