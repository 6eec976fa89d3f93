#pragma once
// Minimal JSON parser/writer (no external dependencies). Used for
// machine-readable experiment configs and results in pdsl_cli. Supports the
// full JSON value model (null, bool, number, string, array, object) with
// standard string escapes; numbers are held as double.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pdsl::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Value(int n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Value(std::int64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  Value(std::size_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object field access; throws std::out_of_range when absent.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Serialize; `indent` > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse a JSON document; throws std::runtime_error with position info on
/// malformed input. Trailing non-whitespace is an error.
Value parse(const std::string& text);

/// Parse the contents of a file.
Value parse_file(const std::string& path);

/// Escape a string for embedding in JSON (without quotes).
std::string escape(const std::string& s);

}  // namespace pdsl::json
