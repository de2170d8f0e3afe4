// Minimal command-line flag parser for the examples and bench harnesses.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
// Bad input is a usage error — exit 2 with a one-line diagnostic, never
// an abort or a silently defaulted value: unknown flags (catches typos
// in experiment sweeps), positional arguments, and values that do not
// parse in full as the declared type.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pathrouting::support {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Declares and reads a flag, with a default. Call once per flag.
  std::int64_t flag_int(const std::string& name, std::int64_t def,
                        const std::string& help);
  double flag_double(const std::string& name, double def,
                     const std::string& help);
  std::string flag_str(const std::string& name, const std::string& def,
                       const std::string& help);
  bool flag_bool(const std::string& name, bool def, const std::string& help);

  /// Validates that every flag given on the command line was declared;
  /// prints usage and exits on "--help" or on unknown flags. Call after
  /// all flag_* declarations.
  void finish(const std::string& program_description);

  /// Reports a usage error ("<program>: <message>") and exits 2 — for
  /// checks across flags that the typed getters cannot make.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  /// Removes and returns the raw value of a given flag, if present.
  bool take(const std::string& name, std::string& value);

  std::string program_;
  std::map<std::string, std::string> given_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;
};

}  // namespace pathrouting::support
