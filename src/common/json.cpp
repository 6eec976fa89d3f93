#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pdsl::json {

namespace {
[[noreturn]] void type_error(const char* want, Type got) {
  throw std::logic_error(std::string("json: expected ") + want + ", value has type " +
                         std::to_string(static_cast<int>(got)));
}
}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

std::int64_t Value::as_int() const {
  const double n = as_number();
  if (std::abs(n - std::round(n)) > 1e-9) {
    throw std::logic_error("json: number is not an integer");
  }
  return static_cast<std::int64_t>(std::llround(n));
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

Array& Value::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

Object& Value::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::out_of_range("json: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && obj_.count(key) > 0;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                                       static_cast<std::size_t>(depth + 1),
                                                   ' ')
                                     : "";
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   static_cast<std::size_t>(depth),
                               ' ')
                 : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: {
      if (std::isfinite(num_) && num_ == std::round(num_) && std::abs(num_) < 1e15) {
        out += std::to_string(static_cast<long long>(num_));
      } else {
        std::ostringstream oss;
        oss.precision(17);
        oss << num_;
        out += oss.str();
      }
      break;
    }
    case Type::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        out += nl;
        out += pad;
        v.dump_to(out, indent, depth + 1);
        first = false;
      }
      if (!arr_.empty()) {
        out += nl;
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        out += nl;
        out += pad;
        out += '"';
        out += escape(k);
        out += indent > 0 ? "\": " : "\":";
        v.dump_to(out, indent, depth + 1);
        first = false;
      }
      if (!obj_.empty()) {
        out += nl;
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value(nullptr);
    }
    return parse_number();
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      std::size_t used = 0;
      const double v = std::stod(text_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) fail("malformed number");
      return Value(v);
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace pdsl::json
