// Minimal, self-contained JSON parser and writer.
//
// The solver hierarchy in this framework is configured through JSON documents
// (paper §V: "The solver hierarchy and associated parameters are easily
// configured through a JSON file"). No third-party JSON dependency is
// available offline, so we implement the subset we need: objects, arrays,
// strings, numbers, booleans and null, with full escape handling.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace graphene::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps keys ordered, which gives deterministic serialisation.
using Object = std::map<std::string, Value>;

/// A dynamically typed JSON value.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(std::size_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool isBool() const { return std::holds_alternative<bool>(data_); }
  bool isNumber() const { return std::holds_alternative<double>(data_); }
  bool isString() const { return std::holds_alternative<std::string>(data_); }
  bool isArray() const { return std::holds_alternative<Array>(data_); }
  bool isObject() const { return std::holds_alternative<Object>(data_); }

  bool asBool() const;
  double asNumber() const;
  std::int64_t asInt() const;
  const std::string& asString() const;
  const Array& asArray() const;
  const Object& asObject() const;
  Array& asArray();
  Object& asObject();

  /// Object field access; throws if this is not an object or the key is
  /// missing.
  const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;

  /// Object field access with a default when the key is absent.
  bool getOr(const std::string& key, bool def) const;
  double getOr(const std::string& key, double def) const;
  std::int64_t getOr(const std::string& key, std::int64_t def) const;
  int getOr(const std::string& key, int def) const;
  std::string getOr(const std::string& key, const std::string& def) const;

  /// Serialises this value. `indent` < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parses a complete JSON document. Throws graphene::ParseError on malformed
/// input (including trailing garbage).
Value parse(std::string_view text);

/// What a strictly validated object key must hold.
enum class KeyKind { Number, String, Bool, Object, Array };

struct KeySpec {
  const char* key;
  KeyKind kind;
};

/// Strict validation of a configuration object: an unknown key or a key of
/// the wrong JSON type throws graphene::Error naming the key and `where`
/// (e.g. "'cg' solver config"); an unknown key also lists the valid ones.
/// A typo therefore fails loudly instead of silently keeping a default.
void validateKeys(const Value& object, const std::string& where,
                  std::initializer_list<KeySpec> allowed);

/// Reads the count `key` of the config object `where` ("service.retry",
/// "jacobi", ...), `fallback` when absent. A count is an integer from 0 to
/// `max`: a negative one would wrap to an enormous std::size_t, which no
/// later range check can tell from a real request, and one above `max`
/// would not survive the narrower integer its consumer keeps it in.
/// Anything else throws graphene::ParseError naming `where`.`key`.
std::size_t countOr(
    const Value& object, std::string_view where, const char* key,
    std::size_t fallback,
    std::size_t max = std::numeric_limits<std::int64_t>::max());

}  // namespace graphene::json
