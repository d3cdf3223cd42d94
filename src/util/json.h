// Minimal JSON value model, writer, and pull reader.
//
// The events module logs device events as JSON records in the 11-field
// schema the paper describes (Section V-A-1), and the log parser reads them
// back. We implement the small JSON subset needed for that round trip:
// objects, arrays, strings, numbers, booleans, and null, with standard
// escape handling. JsonReader is the one scanner: JsonValue::Parse builds a
// DOM on it, and hot decoders read straight into their own fields. Numbers
// follow RFC 8259's grammar exactly, and containers nest at most
// kMaxJsonDepth deep, so a hostile document fails with JsonError instead
// of exhausting the stack.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace jarvis::util {

class JsonValue;

// The deepest container nesting any reader accepts. The documents this
// program writes nest at most 7 deep: a learned policy's
// filter.network.layers[i].weights.data.
inline constexpr int kMaxJsonDepth = 64;

using JsonArray = std::vector<JsonValue>;
// std::map keeps keys ordered so serialized logs are deterministic.
using JsonObject = std::map<std::string, JsonValue>;

// Raised on malformed input or wrong-type access.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

// A JSON value: null, bool, number (double), string, array, or object.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}           // NOLINT
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}              // NOLINT
  JsonValue(std::int64_t i)                                           // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  JsonValue(std::string s)                                            // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(JsonArray a);                                             // NOLINT
  JsonValue(JsonObject o);                                            // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw JsonError on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  std::int64_t AsInt() const;
  // The number as an int when it is whole and in [lo, hi]; nullopt when it
  // is not a number, has a fraction or lies outside. AsInt rounds and its
  // callers narrow; this refuses instead, so 4294967297 never becomes 1.
  std::optional<int> AsIntIn(int lo = std::numeric_limits<int>::min(),
                             int hi = std::numeric_limits<int>::max()) const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;

  // Object field lookup; throws JsonError if absent or not an object.
  const JsonValue& At(const std::string& key) const;

  // Serializes compactly (no whitespace). `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  // Parses a complete JSON document; throws JsonError on malformed input.
  static JsonValue Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

// A pull reader over one JSON document. The caller walks it value by value
// and decodes only what it keeps; every method skips leading whitespace and
// throws JsonError on malformed input, so a decoder that reads or skips
// every value accepts exactly the texts JsonValue::Parse accepts.
//
//   if (reader.BeginObject()) {
//     do {
//       reader.ReadKey(&key);
//       ...read or SkipValue() the member's value...
//     } while (reader.NextMember());
//   }
//   reader.ExpectEnd();
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  // The first byte of the next value, not consumed.
  char Peek();

  // Consumes '{' (or '['); false when the container is empty, its closing
  // bracket consumed too. Throws past kMaxJsonDepth open containers.
  bool BeginObject();
  bool BeginArray();
  // Reads a member's key and the ':' after it into *key.
  void ReadKey(std::string* key);
  // After a member (element): true on ',', false on the closing bracket.
  bool NextMember();
  bool NextElement();

  // Decodes a string into *out, replacing its contents.
  void ReadString(std::string* out);
  double ReadNumber();
  bool ReadBool();
  void ReadNull();
  // Validates and discards one value of any type.
  void SkipValue();
  // Requires that only whitespace remains.
  void ExpectEnd();

 private:
  [[noreturn]] void Fail(const std::string& why) const;
  void SkipWhitespace();
  char Take();
  void Expect(char c);
  void ExpectLiteral(std::string_view literal);
  bool Begin(char open, char close);
  bool NextOrClose(char close);
  // Consumes a run of ASCII digits; returns how many.
  std::size_t SkipDigits();
  // Reads a string; appends its decoded bytes to *out unless out is null.
  void ScanString(std::string* out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open containers
};

// Escapes a string for embedding in JSON output (adds surrounding quotes).
std::string JsonEscape(const std::string& raw);

}  // namespace jarvis::util
