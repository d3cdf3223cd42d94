#include "util/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "fsm/device_library.h"
#include "spl/learner.h"
#include "util/rng.h"

namespace jarvis::util {
namespace {

// Container nesting of a parsed value: 0 for a scalar.
int Depth(const JsonValue& value) {
  int deepest = 0;
  if (value.is_array()) {
    for (const auto& item : value.AsArray()) {
      deepest = std::max(deepest, Depth(item));
    }
  } else if (value.is_object()) {
    for (const auto& [key, item] : value.AsObject()) {
      deepest = std::max(deepest, Depth(item));
    }
  } else {
    return 0;
  }
  return deepest + 1;
}

std::string Nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "0" +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(JsonValue::Parse("null").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(JsonValue::Parse("true").AsBool());
  EXPECT_FALSE(JsonValue::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25").AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-17").AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3").AsNumber(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(Json, DumpParsesBack) {
  JsonObject obj;
  obj["name"] = JsonValue("lock");
  obj["watts"] = JsonValue(5.5);
  obj["on"] = JsonValue(true);
  obj["tags"] = JsonValue(JsonArray{JsonValue(1), JsonValue(2)});
  JsonObject nested;
  nested["x"] = JsonValue();
  obj["extra"] = JsonValue(std::move(nested));
  const JsonValue original{std::move(obj)};

  const JsonValue reparsed = JsonValue::Parse(original.Dump());
  EXPECT_EQ(reparsed, original);
}

TEST(Json, EscapesSpecialCharacters) {
  const JsonValue value(std::string("line\nbreak \"quoted\" \\slash\t"));
  const JsonValue reparsed = JsonValue::Parse(value.Dump());
  EXPECT_EQ(reparsed.AsString(), value.AsString());
}

TEST(Json, ControlCharactersEscapedAsUnicode) {
  const std::string raw = "a\x01z";
  const std::string dumped = JsonValue(raw).Dump();
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonValue::Parse(dumped).AsString(), raw);
}

// The escaper as it was written first, one byte at a time: the oracle for
// JsonEscape's run-at-a-time form.
std::string EscapeByteByByte(const std::string& raw) {
  std::string out = "\"";
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
  return out + "\"";
}

TEST(Json, EscapeMatchesTheByteByByteEscaper) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string raw(1, static_cast<char>(byte));
    EXPECT_EQ(JsonEscape(raw), EscapeByteByByte(raw)) << "byte " << byte;
    EXPECT_EQ(JsonValue(raw).Dump(), EscapeByteByByte(raw)) << "byte " << byte;
  }
  // Random strings mix runs of plain bytes with escapes at the start, the
  // end and next to each other; half draw from a small set so that
  // escapes come often.
  Rng rng(20261020);
  const std::string often = "a\"\\\n\x01\x1f ~\x7f\x80\xff";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string raw(rng.NextIndex(40), '\0');
    for (char& c : raw) {
      c = trial % 2 == 0 ? static_cast<char>(rng.NextIndex(256))
                         : often[rng.NextIndex(often.size())];
    }
    ASSERT_EQ(JsonEscape(raw), EscapeByteByByte(raw)) << "trial " << trial;
    ASSERT_EQ(JsonValue::Parse(JsonEscape(raw)).AsString(), raw);
  }
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"").AsString(), "A");
  // 2-byte and 3-byte UTF-8 paths.
  EXPECT_EQ(JsonValue::Parse("\"\\u00e9\"").AsString(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::Parse("\"\\u20ac\"").AsString(), "\xe2\x82\xac");
}

TEST(Json, ParsesNestedDocument) {
  const auto doc = JsonValue::Parse(
      R"({"devices": [{"label": "lock", "states": 4},
                      {"label": "light", "states": 2}],
           "users": 5})");
  EXPECT_EQ(doc.At("users").AsInt(), 5);
  const auto& devices = doc.At("devices").AsArray();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_EQ(devices[0].At("label").AsString(), "lock");
  EXPECT_EQ(devices[1].At("states").AsInt(), 2);
}

TEST(Json, WhitespaceTolerant) {
  const auto doc = JsonValue::Parse("  {  \"a\" :\n[ 1 ,\t2 ]  }  ");
  EXPECT_EQ(doc.At("a").AsArray().size(), 2u);
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(JsonValue::Parse(""), JsonError);
  EXPECT_THROW(JsonValue::Parse("{"), JsonError);
  EXPECT_THROW(JsonValue::Parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::Parse("tru"), JsonError);
  EXPECT_THROW(JsonValue::Parse("{} extra"), JsonError);
  EXPECT_THROW(JsonValue::Parse("nan"), JsonError);
}

TEST(Json, NumbersFollowTheStrictGrammar) {
  for (const char* bad : {"1-2", "1.2.3", "+1", "01", ".5", "1.", "1e",
                          "1e+", "-", "--1", "0x10"}) {
    EXPECT_THROW(JsonValue::Parse(bad), JsonError) << bad;
    JsonReader reader(bad);
    EXPECT_THROW(
        {
          reader.SkipValue();
          reader.ExpectEnd();
        },
        JsonError)
        << bad;
  }
  EXPECT_EQ(JsonValue::Parse("0").AsNumber(), 0.0);
  EXPECT_EQ(JsonValue::Parse("-0.5").AsNumber(), -0.5);
  EXPECT_EQ(JsonValue::Parse("10").AsNumber(), 10.0);
  EXPECT_EQ(JsonValue::Parse("1E+2").AsNumber(), 100.0);
  EXPECT_EQ(JsonValue::Parse("25e-1").AsNumber(), 2.5);
  EXPECT_EQ(JsonValue::Parse("[0,-0,1.5e3]").AsArray().size(), 3u);
}

TEST(Json, NestingIsCappedAtAFixedDepth) {
  EXPECT_EQ(Depth(JsonValue::Parse(Nested(kMaxJsonDepth))), kMaxJsonDepth);
  // Closing a container gives its depth back: siblings each nest to the cap.
  const std::string siblings =
      "[" + Nested(kMaxJsonDepth - 1) + "," + Nested(kMaxJsonDepth - 1) + "]";
  EXPECT_EQ(Depth(JsonValue::Parse(siblings)), kMaxJsonDepth);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
  for (const std::string& deep :
       {Nested(kMaxJsonDepth + 1), std::string(100000, '['), objects,
        // An empty container past the cap is refused too.
        std::string(kMaxJsonDepth, '[') + "{}"}) {
    EXPECT_THROW(JsonValue::Parse(deep), JsonError);
    JsonReader reader(deep);
    EXPECT_THROW(reader.SkipValue(), JsonError);
  }
}

TEST(Json, DeepestWrittenDocumentParses) {
  // A learned-policy document (`jarvis_cli learn --out`, a checkpoint's
  // "spl" section) is as deep as any the program writes:
  // filter.network.layers[i].weights.
  const fsm::EnvironmentFsm home(fsm::ExampleHomeDevices());
  const spl::SafetyPolicyLearner learner(home, spl::SplConfig{});
  const std::string text = learner.ToJsonString();
  const JsonValue doc = JsonValue::Parse(text);
  EXPECT_EQ(Depth(doc), 6);
  EXPECT_LT(Depth(doc), kMaxJsonDepth);
  EXPECT_EQ(doc.Dump(), text);
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue number(5.0);
  EXPECT_THROW(number.AsString(), JsonError);
  EXPECT_THROW(number.AsArray(), JsonError);
  EXPECT_THROW(number.AsObject(), JsonError);
  EXPECT_THROW(number.At("k"), JsonError);
  const JsonValue text("x");
  EXPECT_THROW(text.AsNumber(), JsonError);
  EXPECT_THROW(text.AsBool(), JsonError);
}

TEST(Json, MissingKeyThrows) {
  const auto doc = JsonValue::Parse(R"({"a": 1, "s": "x"})");
  EXPECT_THROW(doc.At("missing"), JsonError);
  EXPECT_DOUBLE_EQ(doc.At("a").AsNumber(), 1.0);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::Parse("[]").AsArray().size(), 0u);
  EXPECT_EQ(JsonValue::Parse("{}").AsObject().size(), 0u);
  EXPECT_EQ(JsonValue(JsonArray{}).Dump(), "[]");
  EXPECT_EQ(JsonValue(JsonObject{}).Dump(), "{}");
}

TEST(Json, IntegersRenderWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue(5.0).Dump(), "5");
  EXPECT_EQ(JsonValue(-3).Dump(), "-3");
  EXPECT_EQ(JsonValue(2.5).Dump(), "2.5");
}

TEST(Json, PrettyPrintRoundTrips) {
  const auto doc =
      JsonValue::Parse(R"({"a": [1, 2, {"b": true}], "c": "text"})");
  const std::string pretty = doc.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(JsonValue::Parse(pretty), doc);
}

TEST(JsonReader, WalksAnObjectKeyByKey) {
  JsonReader reader(R"( {"s": "a\"b\\c\u00e9", "n": -2.5e1,
                         "skip": {"x": [1, "two", null, {}]}, "b": false} )");
  std::string key;
  std::string text = "stale";
  ASSERT_TRUE(reader.BeginObject());
  reader.ReadKey(&key);
  EXPECT_EQ(key, "s");
  reader.ReadString(&text);
  EXPECT_EQ(text, "a\"b\\c\xc3\xa9");
  ASSERT_TRUE(reader.NextMember());
  reader.ReadKey(&key);
  EXPECT_EQ(key, "n");
  EXPECT_DOUBLE_EQ(reader.ReadNumber(), -25.0);
  ASSERT_TRUE(reader.NextMember());
  reader.ReadKey(&key);
  EXPECT_EQ(reader.Peek(), '{');
  reader.SkipValue();
  ASSERT_TRUE(reader.NextMember());
  reader.ReadKey(&key);
  EXPECT_FALSE(reader.ReadBool());
  EXPECT_FALSE(reader.NextMember());
  reader.ExpectEnd();
}

TEST(JsonReader, EmptyContainersCloseAtOnce) {
  JsonReader reader("[ ] { }");
  EXPECT_FALSE(reader.BeginArray());
  EXPECT_FALSE(reader.BeginObject());
  reader.ExpectEnd();
}

TEST(JsonReader, SkipValueRejectsWhatParseRejects) {
  for (const char* bad : {"[1,]", "{\"a\" 1}", "\"\\q\"", "\"\\u12G4\"",
                          "tru", "-", "1e999", "{\"a\":1,}", "\"open"}) {
    EXPECT_THROW(JsonValue::Parse(bad), JsonError) << bad;
    JsonReader reader(bad);
    EXPECT_THROW(reader.SkipValue(), JsonError) << bad;
  }
  JsonReader reader("{} x");
  reader.SkipValue();
  EXPECT_THROW(reader.ExpectEnd(), JsonError);
}

}  // namespace
}  // namespace jarvis::util
