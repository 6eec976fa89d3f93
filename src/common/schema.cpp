#include "common/schema.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pdsl::schema {

namespace {

[[noreturn]] void fail(const std::string& name, const std::string& rule, const std::string& got) {
  throw std::invalid_argument(name + " must " + rule + ", got " + got);
}

std::string str(double x) {
  std::ostringstream oss;
  oss << x;
  return oss.str();
}

}  // namespace

void Num::check(double x, const std::string& name) const {
  if ((lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi)) return;
  if (std::isinf(hi)) {
    fail(name, (lo_open ? "be > " : "be >= ") + str(lo) + (hi_open ? " and finite" : ""), str(x));
  }
  fail(name,
       std::string("be in ") + (lo_open ? "(" : "[") + str(lo) + "," + str(hi) +
           (hi_open ? ")" : "]"),
       str(x));
}

void Count::decode(const json::Value& v, std::size_t& x, const std::string& name) const {
  const double n = v.as_number();
  // A negative value would wrap to a huge size_t, and a cast of one at or
  // past 2^63 is undefined.
  if (!(n >= 0.0 && n < 9223372036854775808.0) || std::abs(n - std::round(n)) > 1e-9) {
    fail(name, "be a non-negative integer", v.dump());
  }
  check(x = static_cast<std::size_t>(std::llround(n)), name);
}

void Count::check(std::size_t x, const std::string& name) const {
  if (x < lo) fail(name, "be > " + std::to_string(lo - 1), std::to_string(x));
  if (x > hi) fail(name, "be <= " + std::to_string(hi), std::to_string(x));
}

void OneOf::check(const std::string& x, const std::string& name) const {
  std::stringstream ss(names);
  for (std::string n; std::getline(ss, n, '|');) {
    if (n == x) return;
  }
  fail(name, std::string("be one of ") + names, "'" + x + "'");
}

void Visitor::reject_unknown_keys() const {
  for (const auto& [key, value] : in_->as_object()) {
    if (std::find(keys_.begin(), keys_.end(), key) == keys_.end()) {
      throw std::invalid_argument("json: unknown key \"" + key + "\"");
    }
  }
}

}  // namespace pdsl::schema
