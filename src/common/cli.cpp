#include "common/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pdsl {

namespace {
/// The key a flag name is stored and looked up under: '-' folded to '_'.
std::string canonical(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv, const std::vector<std::string>& allowed) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("CliArgs: expected --flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare flag
      }
    }
    const std::string key = canonical(name);
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const std::string& a) { return canonical(a) == key; })) {
      throw std::invalid_argument("CliArgs: unknown flag --" + name);
    }
    values_[key] = value;
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(canonical(name)) > 0; }

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(canonical(name));
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(canonical(name));
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(canonical(name));
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(canonical(name));
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<double> CliArgs::get_double_list(const std::string& name,
                                             std::vector<double> fallback) const {
  const auto it = values_.find(canonical(name));
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(std::stod(cell));
  return out;
}

std::vector<std::int64_t> CliArgs::get_int_list(const std::string& name,
                                                std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(canonical(name));
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(std::stoll(cell));
  return out;
}

}  // namespace pdsl
