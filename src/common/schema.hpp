#pragma once
// Config schema: each config struct declares every field once, in one visit
// function next to the struct, naming its JSON key, its `pdsl_cli run` flag
// (if any) and its single-field range:
//
//   void visit(schema::Visitor& v, CrashPlan& p) {
//     v.field({"crash_prob", "crash-prob"}, p.crash_prob, schema::kProb);
//     v.field({"snapshot_every", "snapshot-every"}, p.snapshot_every);
//     v.field({"seed"}, p.seed, schema::kSeed);
//   }
//
// The functions at the bottom walk it to write JSON, read JSON (unknown keys
// rejected), apply flags, check ranges (the single-field half of each
// validate()) and list the flags, so adding a key is adding one row.
// Cross-field rules stay hand-written in validate() and in pdsl_cli. Errors
// name what the user wrote: `json: "agents" must be > 0, got 0`,
// `--drop-prob must be in [0,1), got 1.5`, `FaultPlan: drop_prob must ...`.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"

namespace pdsl::schema {

/// A field's JSON key and its `pdsl_cli run` flag, without "--" (none if
/// null). A required key must be present when reading JSON.
struct Key {
  const char* json;
  const char* flag = nullptr;
  bool required = false;
};

// Field kinds. Each writes its value as JSON, reads it from JSON or from a
// flag's text and, if it has a range, checks it, naming the field by `name`.

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// A double in lo..hi, either end open.
struct Num {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
  json::Value encode(double x) const { return x; }
  void decode(const json::Value& v, double& x, const std::string& name) const {
    check(x = v.as_number(), name);
  }
  void parse(const std::string& s, double& x, const std::string& name) const {
    check(x = std::stod(s), name);
  }
  void check(double x, const std::string& name) const;
};
inline constexpr Num kProb{0.0, 1.0, false, true};            ///< [0,1)
inline constexpr Num kUnit{0.0, 1.0};                         ///< [0,1]
inline constexpr Num kNonNegative{0.0};                       ///< >= 0
inline constexpr Num kPositive{0.0, kInf, true};              ///< > 0
inline constexpr Num kPositiveFinite{0.0, kInf, true, true};  ///< > 0 and finite

/// An integer size in [lo, hi]. With `omit_unlimited`, SIZE_MAX means
/// "unset" (sim::kNoRoundLimit) and the key is left out of JSON.
struct Count {
  static constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::size_t lo = 0;
  std::size_t hi = kUnset;
  bool omit_unlimited = false;
  json::Value encode(std::size_t x) const {  // null: left out
    return omit_unlimited && x == kUnset ? json::Value() : json::Value(x);
  }
  void decode(const json::Value& v, std::size_t& x, const std::string& name) const;
  void parse(const std::string& s, std::size_t& x, const std::string& name) const {
    decode(json::Value(std::stod(s)), x, name);
  }
  void check(std::size_t x, const std::string& name) const;
};
inline constexpr Count kPositiveCount{1};
inline constexpr Count kOptionalRound{0, Count::kUnset, true};

/// A 64-bit hash seed. JSON holds it as a signed integer, so every value
/// round-trips; a flag is parsed exactly, not through a double.
struct Seed {
  json::Value encode(std::uint64_t x) const { return static_cast<std::int64_t>(x); }
  void decode(const json::Value& v, std::uint64_t& x, const std::string&) const {
    x = static_cast<std::uint64_t>(v.as_int());
  }
  void parse(const std::string& s, std::uint64_t& x, const std::string&) const {
    x = static_cast<std::uint64_t>(std::stoll(s));
  }
};
inline constexpr Seed kSeed{};

/// A bool flag reads "true", "1" or "yes" (a bare flag reads "true").
struct Bool {
  json::Value encode(bool x) const { return x; }
  void decode(const json::Value& v, bool& x, const std::string&) const { x = v.as_bool(); }
  void parse(const std::string& s, bool& x, const std::string&) const {
    x = s == "true" || s == "1" || s == "yes";
  }
};

struct Text {
  json::Value encode(const std::string& x) const { return x; }
  void decode(const json::Value& v, std::string& x, const std::string&) const { x = v.as_string(); }
  void parse(const std::string& s, std::string& x, const std::string&) const { x = s; }
};

/// A string that must be one of `names`, written "a|b|c".
struct OneOf {
  const char* names;
  json::Value encode(const std::string& x) const { return x; }
  void decode(const json::Value& v, std::string& x, const std::string& name) const {
    parse(v.as_string(), x, name);
  }
  void parse(const std::string& s, std::string& x, const std::string& name) const {
    check(s, name);
    x = s;
  }
  void check(const std::string& x, const std::string& name) const;
};

/// An enum spelled by name, e.g. `Enum{byz_mode_to_string, byz_mode_from_string}`;
/// `from_name` throws naming an unknown name.
template <class E, class ToName>
struct Enum {
  ToName to_name;
  E (*from_name)(const std::string&);
  json::Value encode(E x) const { return std::string(to_name(x)); }
  void decode(const json::Value& v, E& x, const std::string&) const {
    x = from_name(v.as_string());
  }
  void parse(const std::string& s, E& x, const std::string&) const { x = from_name(s); }
};

template <class T>
auto default_kind() {
  if constexpr (std::is_same_v<T, double>) return Num{};
  else if constexpr (std::is_same_v<T, bool>) return Bool{};
  else if constexpr (std::is_same_v<T, std::string>) return Text{};
  else return Count{};
}

/// Walks a visit function for one job. Visit functions are found by ADL:
/// `void visit(schema::Visitor&, T&)` in T's namespace.
class Visitor {
 public:
  /// A scalar field; `kind` defaults by type (Num, Count, Bool or Text).
  template <class T, class K = decltype(default_kind<T>())>
  void field(Key k, T& x, const K& kind = K{}) {
    switch (job_) {
      case Job::kWrite:
        if (json::Value v = kind.encode(x); !v.is_null()) out_[k.json] = std::move(v);
        return;
      case Job::kRead:
        keys_.emplace_back(k.json);
        if (in_->contains(k.json)) {
          kind.decode(in_->at(k.json), x, "json: \"" + std::string(k.json) + "\"");
        } else if (k.required) {
          throw std::invalid_argument("json: \"" + std::string(k.json) + "\" is required");
        }
        return;
      case Job::kFlags:
        if (k.flag != nullptr && args_->has(k.flag)) {
          kind.parse(args_->get_string(k.flag, ""), x, std::string("--") + k.flag);
        }
        return;
      case Job::kCheck:
        if constexpr (requires { kind.check(x, prefix_); }) kind.check(x, prefix_ + k.json);
        return;
      case Job::kListFlags:
        if (k.flag != nullptr) keys_.emplace_back(k.flag);
        return;
    }
  }

  /// A nested struct with its own visit function.
  template <class T>
  void object(Key k, T& x) {
    if (job_ == Job::kWrite) {
      out_[k.json] = write(x);
    } else if (job_ == Job::kRead) {
      keys_.emplace_back(k.json);
      if (in_->contains(k.json)) read(in_->at(k.json), x);
    } else {
      nested(std::string(k.json) + ".", x);
    }
  }

  /// A list of nested structs, written only when non-empty. List elements
  /// carry no flags.
  template <class T>
  void list(Key k, std::vector<T>& xs) {
    if (job_ == Job::kWrite && !xs.empty()) {
      json::Array a;
      for (auto& x : xs) a.push_back(write(x));
      out_[k.json] = json::Value(std::move(a));
    } else if (job_ == Job::kRead) {
      keys_.emplace_back(k.json);
      if (!in_->contains(k.json)) return;
      xs.clear();
      for (const auto& e : in_->at(k.json).as_array()) read(e, xs.emplace_back());
    } else if (job_ == Job::kCheck) {
      for (auto& x : xs) nested(std::string(k.json) + "[].", x);
    }
  }

 private:
  enum class Job { kWrite, kRead, kFlags, kCheck, kListFlags };
  explicit Visitor(Job job) : job_(job) {}

  template <class T>
  static json::Value write(T& x) {
    Visitor v(Job::kWrite);
    visit(v, x);
    return json::Value(std::move(v.out_));
  }

  template <class T>
  static void read(const json::Value& in, T& x) {
    Visitor v(Job::kRead);
    v.in_ = &in;
    visit(v, x);
    v.reject_unknown_keys();
    // Cross-field rules of a struct whose validate() needs no context.
    if constexpr (requires { x.validate(); }) x.validate();
  }

  template <class T>
  void nested(const std::string& key_prefix, T& x) {
    const std::size_t n = prefix_.size();
    prefix_ += key_prefix;
    visit(*this, x);
    prefix_.resize(n);
  }

  void reject_unknown_keys() const;

  template <class T>
  friend json::Value to_json(const T& x);
  template <class T>
  friend T from_json(const json::Value& v);
  template <class T>
  friend void apply_flags(const CliArgs& args, T& x);
  template <class T>
  friend void check(const T& x, const std::string& who);
  template <class T>
  friend std::vector<std::string> flags();

  Job job_;
  json::Object out_;                 ///< kWrite: the object written
  const json::Value* in_ = nullptr;  ///< kRead: the object read
  const CliArgs* args_ = nullptr;    ///< kFlags
  std::string prefix_;               ///< kCheck: leads each message
  std::vector<std::string> keys_;    ///< kRead: keys visited; kListFlags: flags
};

/// Every field of `x`, defaults included.
template <class T>
json::Value to_json(const T& x) {
  return Visitor::write(const_cast<T&>(x));  // writing only reads x
}

/// Defaults overridden by each present key. Unknown keys and out-of-range
/// values throw std::invalid_argument naming the key; then T::validate()
/// runs, when it takes no arguments.
template <class T>
T from_json(const json::Value& v) {
  T x{};
  Visitor::read(v, x);
  return x;
}

/// Apply each declared flag present in `args`, range-checked and named.
template <class T>
void apply_flags(const CliArgs& args, T& x) {
  Visitor v(Visitor::Job::kFlags);
  v.args_ = &args;
  visit(v, x);
}

/// Single-field range checks; errors read "<who>: <key> must ...".
template <class T>
void check(const T& x, const std::string& who) {
  Visitor v(Visitor::Job::kCheck);
  v.nested(who + ": ", const_cast<T&>(x));  // checking only reads x
}

/// The declared flags, in declaration order.
template <class T>
std::vector<std::string> flags() {
  Visitor v(Visitor::Job::kListFlags);
  T x;  // only the declarations are walked; no value is read
  visit(v, x);
  return std::move(v.keys_);
}

}  // namespace pdsl::schema
