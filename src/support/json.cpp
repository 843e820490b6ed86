#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace graphene::json {

bool Value::asBool() const {
  GRAPHENE_CHECK(isBool(), "JSON value is not a bool");
  return std::get<bool>(data_);
}

double Value::asNumber() const {
  GRAPHENE_CHECK(isNumber(), "JSON value is not a number");
  return std::get<double>(data_);
}

std::int64_t Value::asInt() const {
  double d = asNumber();
  GRAPHENE_CHECK(std::nearbyint(d) == d, "JSON number ", d,
                 " is not an integer");
  // [-2^63, 2^63): converting a double outside it is undefined behaviour.
  GRAPHENE_CHECK(d >= -9223372036854775808.0 && d < 9223372036854775808.0,
                 "JSON number ", d, " does not fit a 64-bit integer");
  return static_cast<std::int64_t>(d);
}

const std::string& Value::asString() const {
  GRAPHENE_CHECK(isString(), "JSON value is not a string");
  return std::get<std::string>(data_);
}

const Array& Value::asArray() const {
  GRAPHENE_CHECK(isArray(), "JSON value is not an array");
  return std::get<Array>(data_);
}

const Object& Value::asObject() const {
  GRAPHENE_CHECK(isObject(), "JSON value is not an object");
  return std::get<Object>(data_);
}

Array& Value::asArray() {
  GRAPHENE_CHECK(isArray(), "JSON value is not an array");
  return std::get<Array>(data_);
}

Object& Value::asObject() {
  GRAPHENE_CHECK(isObject(), "JSON value is not an object");
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = asObject();
  auto it = obj.find(key);
  GRAPHENE_CHECK(it != obj.end(), "missing JSON key '", key, "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return isObject() && asObject().count(key) > 0;
}

bool Value::getOr(const std::string& key, bool def) const {
  return contains(key) ? at(key).asBool() : def;
}

double Value::getOr(const std::string& key, double def) const {
  return contains(key) ? at(key).asNumber() : def;
}

std::int64_t Value::getOr(const std::string& key, std::int64_t def) const {
  return contains(key) ? at(key).asInt() : def;
}

int Value::getOr(const std::string& key, int def) const {
  return contains(key) ? static_cast<int>(at(key).asInt()) : def;
}

std::string Value::getOr(const std::string& key, const std::string& def) const {
  return contains(key) ? at(key).asString() : def;
}

namespace {

void dumpString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void dumpNumber(std::ostream& os, double d) {
  if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
    os << static_cast<std::int64_t>(d);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    os << buf;
  }
}

void dumpValue(std::ostream& os, const Value& v, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent >= 0) {
      os << '\n' << std::string(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (v.isNull()) {
    os << "null";
  } else if (v.isBool()) {
    os << (v.asBool() ? "true" : "false");
  } else if (v.isNumber()) {
    dumpNumber(os, v.asNumber());
  } else if (v.isString()) {
    dumpString(os, v.asString());
  } else if (v.isArray()) {
    const Array& arr = v.asArray();
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    bool first = true;
    for (const Value& e : arr) {
      if (!first) os << ',';
      first = false;
      newline(depth + 1);
      dumpValue(os, e, indent, depth + 1);
    }
    newline(depth);
    os << ']';
  } else {
    const Object& obj = v.asObject();
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [key, val] : obj) {
      if (!first) os << ',';
      first = false;
      newline(depth + 1);
      dumpString(os, key);
      os << (indent >= 0 ? ": " : ":");
      dumpValue(os, val, indent, depth + 1);
    }
    newline(depth);
    os << '}';
  }
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << "JSON parse error at line " << line << ", column " << col << ": "
        << what;
    throw ParseError(oss.str());
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void expectKeyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) {
      fail(std::string("expected '") + std::string(kw) + "'");
    }
    pos_ += kw.size();
  }

  Value parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return Value(parseString());
      case 't': expectKeyword("true"); return Value(true);
      case 'f': expectKeyword("false"); return Value(false);
      case 'n': expectKeyword("null"); return Value(nullptr);
      default: return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Object obj;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      obj[std::move(key)] = parseValue();
      skipWhitespace();
      char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Value(std::move(obj));
  }

  Value parseArray() {
    expect('[');
    Array arr;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parseValue());
      skipWhitespace();
      char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Value(std::move(arr));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (surrogate pairs unsupported; BMP only).
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
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  Value parseNumber() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double result = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     result);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return Value(result);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Value::dump(int indent) const {
  std::ostringstream oss;
  dumpValue(oss, *this, indent, 0);
  return oss.str();
}

Value parse(std::string_view text) { return Parser(text).parseDocument(); }

namespace {

const char* toString(KeyKind kind) {
  switch (kind) {
    case KeyKind::Number: return "number";
    case KeyKind::String: return "string";
    case KeyKind::Bool: return "boolean";
    case KeyKind::Object: return "object";
    case KeyKind::Array: return "array";
  }
  return "?";
}

bool holds(const Value& value, KeyKind kind) {
  switch (kind) {
    case KeyKind::Number: return value.isNumber();
    case KeyKind::String: return value.isString();
    case KeyKind::Bool: return value.isBool();
    case KeyKind::Object: return value.isObject();
    case KeyKind::Array: return value.isArray();
  }
  return false;
}

}  // namespace

void validateKeys(const Value& object, const std::string& where,
                  std::initializer_list<KeySpec> allowed) {
  for (const auto& [key, value] : object.asObject()) {
    const KeySpec* spec = nullptr;
    for (const KeySpec& s : allowed) {
      if (key == s.key) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      std::string valid;
      for (const KeySpec& s : allowed) {
        if (!valid.empty()) valid += ", ";
        valid += s.key;
      }
      GRAPHENE_CHECK(false, "unknown key '", key, "' in ", where,
                     " (valid keys: ", valid, ")");
    }
    GRAPHENE_CHECK(holds(value, spec->kind), "key '", key, "' in ", where,
                   " must be a ", toString(spec->kind));
  }
}

std::size_t countOr(const Value& object, std::string_view where,
                    const char* key, std::size_t fallback, std::size_t max) {
  if (!object.contains(key)) return fallback;
  const Value& value = object.at(key);
  const double v = value.asNumber();
  // Every integer up to max passes; past 2^53, where doubles thin out, the
  // bound errs low, so a count that passes always fits std::size_t.
  if (!(v >= 0 && v < static_cast<double>(max) + 1.0) ||
      std::nearbyint(v) != v) {
    throw ParseError(detail::concatMessage(where, ".", key,
                                           " must be an integer from 0 to ",
                                           max, " (got ", value.dump(), ")"));
  }
  return static_cast<std::size_t>(v);
}

}  // namespace graphene::json
