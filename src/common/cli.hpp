#pragma once
// Tiny command-line flag parser shared by bench/example binaries.
// Supports "--name value" and "--name=value"; unknown flags are an error so
// typos in sweep scripts fail loudly. '-' and '_' in flag names are the same
// character: --trace-out and --trace_out name one flag, whichever spelling
// the allowed list and the lookups use.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pdsl {

class CliArgs {
 public:
  /// Parse argv. `allowed` lists every accepted flag name (without "--"),
  /// one spelling each. When a flag is given twice, the last value wins.
  CliArgs(int argc, const char* const* argv, const std::vector<std::string>& allowed);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of doubles, e.g. "--eps 0.08,0.1,0.3".
  [[nodiscard]] std::vector<double> get_double_list(const std::string& name,
                                                    std::vector<double> fallback) const;
  /// Comma-separated list of ints, e.g. "--agents 10,15,20".
  [[nodiscard]] std::vector<std::int64_t> get_int_list(const std::string& name,
                                                       std::vector<std::int64_t> fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pdsl
