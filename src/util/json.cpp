#include "util/json.h"

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

void JsonReader::Fail(const std::string& why) const {
  throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                  why);
}

void JsonReader::SkipWhitespace() {
  // The C locale's isspace set.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && (c < '\t' || c > '\r')) break;
    ++pos_;
  }
}

char JsonReader::Peek() {
  SkipWhitespace();
  if (pos_ >= text_.size()) Fail("unexpected end of input");
  return text_[pos_];
}

char JsonReader::Take() {
  if (pos_ >= text_.size()) Fail("unexpected end of input");
  return text_[pos_++];
}

void JsonReader::Expect(char c) {
  if (Take() != c) Fail(std::string("expected '") + c + "'");
}

void JsonReader::ExpectLiteral(std::string_view literal) {
  SkipWhitespace();
  if (text_.substr(pos_, literal.size()) != literal) Fail("bad literal");
  pos_ += literal.size();
}

bool JsonReader::Begin(char open, char close) {
  SkipWhitespace();
  Expect(open);
  if (depth_ == kMaxJsonDepth) {
    Fail("containers nest deeper than " + std::to_string(kMaxJsonDepth));
  }
  if (Peek() != close) {
    ++depth_;
    return true;
  }
  ++pos_;
  return false;
}

bool JsonReader::BeginObject() { return Begin('{', '}'); }

bool JsonReader::BeginArray() { return Begin('[', ']'); }

void JsonReader::ReadKey(std::string* key) {
  ReadString(key);
  SkipWhitespace();
  Expect(':');
}

bool JsonReader::NextOrClose(char close) {
  SkipWhitespace();
  const char c = Take();
  if (c == ',') return true;
  if (c != close) Fail(std::string("expected ',' or '") + close + "'");
  --depth_;
  return false;
}

bool JsonReader::NextMember() { return NextOrClose('}'); }

bool JsonReader::NextElement() { return NextOrClose(']'); }

void JsonReader::ReadString(std::string* out) {
  out->clear();
  ScanString(out);
}

void JsonReader::ScanString(std::string* out) {
  SkipWhitespace();
  Expect('"');
  while (true) {
    // Plain bytes up to the next quote or backslash go over in one append.
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (out != nullptr) out->append(text_.substr(run, pos_ - run));
    if (Take() == '"') return;
    char decoded;
    switch (Take()) {
      case '"':
        decoded = '"';
        break;
      case '\\':
        decoded = '\\';
        break;
      case '/':
        decoded = '/';
        break;
      case 'n':
        decoded = '\n';
        break;
      case 'r':
        decoded = '\r';
        break;
      case 't':
        decoded = '\t';
        break;
      case 'b':
        decoded = '\b';
        break;
      case 'f':
        decoded = '\f';
        break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = Take();
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
        if (out == nullptr) continue;
        // UTF-8 encode the BMP code point (surrogate pairs are out of
        // scope for log records, which are ASCII).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        continue;
      }
      default:
        Fail("bad escape");
    }
    if (out != nullptr) out->push_back(decoded);
  }
}

std::size_t JsonReader::SkipDigits() {
  const std::size_t from = pos_;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
    ++pos_;
  }
  return pos_ - from;
}

double JsonReader::ReadNumber() {
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  const bool negative = Peek() == '-';
  const std::size_t start = pos_;
  if (negative) ++pos_;
  const auto at = [this](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  if (at('0')) {
    ++pos_;
  } else if (SkipDigits() == 0) {
    Fail(negative ? "bad number" : "expected a value");
  }
  if (at('.')) {
    ++pos_;
    if (SkipDigits() == 0) Fail("bad number");
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    if (SkipDigits() == 0) Fail("bad number");
  }
  try {
    return std::stod(std::string(text_.substr(start, pos_ - start)));
  } catch (const std::exception&) {
    Fail("bad number");
  }
}

bool JsonReader::ReadBool() {
  if (Peek() == 't') {
    ExpectLiteral("true");
    return true;
  }
  ExpectLiteral("false");
  return false;
}

void JsonReader::ReadNull() { ExpectLiteral("null"); }

void JsonReader::SkipValue() {
  switch (Peek()) {
    case '{':
      if (BeginObject()) {
        do {
          ScanString(nullptr);
          SkipWhitespace();
          Expect(':');
          SkipValue();
        } while (NextMember());
      }
      return;
    case '[':
      if (BeginArray()) {
        do {
          SkipValue();
        } while (NextElement());
      }
      return;
    case '"':
      ScanString(nullptr);
      return;
    case 't':
    case 'f':
      ReadBool();
      return;
    case 'n':
      ReadNull();
      return;
    default:
      ReadNumber();
  }
}

void JsonReader::ExpectEnd() {
  SkipWhitespace();
  if (pos_ != text_.size()) Fail("trailing characters");
}

namespace {

JsonValue ReadValue(JsonReader& reader) {
  switch (reader.Peek()) {
    case '{': {
      JsonObject obj;
      if (reader.BeginObject()) {
        do {
          std::string key;
          reader.ReadKey(&key);
          obj.emplace(std::move(key), ReadValue(reader));
        } while (reader.NextMember());
      }
      return JsonValue(std::move(obj));
    }
    case '[': {
      JsonArray arr;
      if (reader.BeginArray()) {
        do {
          arr.push_back(ReadValue(reader));
        } while (reader.NextElement());
      }
      return JsonValue(std::move(arr));
    }
    case '"': {
      std::string text;
      reader.ReadString(&text);
      return JsonValue(std::move(text));
    }
    case 't':
    case 'f':
      return JsonValue(reader.ReadBool());
    case 'n':
      reader.ReadNull();
      return JsonValue();
    default:
      return JsonValue(reader.ReadNumber());
  }
}

}  // namespace

JsonValue JsonValue::Parse(std::string_view text) {
  JsonReader reader(text);
  JsonValue value = ReadValue(reader);
  reader.ExpectEnd();
  return value;
}

}  // namespace jarvis::util
