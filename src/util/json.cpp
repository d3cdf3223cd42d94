#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace jarvis::util {

JsonValue::JsonValue(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : type_(Type::kObject),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

bool JsonValue::AsBool() const {
  if (type_ != Type::kBool) throw JsonError("not a bool");
  return bool_;
}

double JsonValue::AsNumber() const {
  if (type_ != Type::kNumber) throw JsonError("not a number");
  return number_;
}

std::int64_t JsonValue::AsInt() const {
  return static_cast<std::int64_t>(std::llround(AsNumber()));
}

std::optional<int> JsonValue::AsIntIn(int lo, int hi) const {
  if (type_ != Type::kNumber || !(number_ >= lo && number_ <= hi) ||
      std::floor(number_) != number_) {
    return std::nullopt;
  }
  return static_cast<int>(number_);
}

const std::string& JsonValue::AsString() const {
  if (type_ != Type::kString) throw JsonError("not a string");
  return string_;
}

const JsonArray& JsonValue::AsArray() const {
  if (type_ != Type::kArray) throw JsonError("not an array");
  return *array_;
}

const JsonObject& JsonValue::AsObject() const {
  if (type_ != Type::kObject) throw JsonError("not an object");
  return *object_;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) return fallback;
  return it->second.AsNumber();
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) return fallback;
  return it->second.AsString();
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return *array_ == *other.array_;
    case Type::kObject:
      return *object_ == *other.object_;
  }
  return false;
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void AppendNumber(std::string& out, double value) {
  if (value == static_cast<double>(std::llround(value)) &&
      std::fabs(value) < 1e15) {
    out += std::to_string(std::llround(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void Indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      out += JsonEscape(string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : *array_) {
        if (!first) out.push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        item.DumpTo(out, indent, depth + 1);
      }
      if (!array_->empty()) Indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : *object_) {
        if (!first) out.push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        out += JsonEscape(key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_->empty()) Indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    SkipWhitespace();
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  char Take() {
    char c = Peek();
    ++pos_;
    return c;
  }

  void Expect(char c) {
    if (Take() != c) Fail(std::string("expected '") + c + "'");
  }

  void ExpectLiteral(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      Fail("bad literal");
    }
    pos_ += literal.size();
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue(ParseString());
      case 't':
        ExpectLiteral("true");
        return JsonValue(true);
      case 'f':
        ExpectLiteral("false");
        return JsonValue(false);
      case 'n':
        ExpectLiteral("null");
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonObject obj;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      obj.emplace(std::move(key), ParseValue());
      SkipWhitespace();
      char c = Take();
      if (c == '}') break;
      if (c != ',') Fail("expected ',' or '}'");
    }
    return JsonValue(std::move(obj));
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonArray arr;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      SkipWhitespace();
      arr.push_back(ParseValue());
      SkipWhitespace();
      char c = Take();
      if (c == ']') break;
      if (c != ',') Fail("expected ',' or ']'");
    }
    return JsonValue(std::move(arr));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      char c = Take();
      if (c == '"') break;
      if (c == '\\') {
        char esc = Take();
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = Take();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                Fail("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are out of
            // scope for log records, which are ASCII).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            Fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  JsonValue ParseNumber() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    try {
      return JsonValue(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      Fail("bad number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace jarvis::util
