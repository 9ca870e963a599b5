#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "json/json_parser.h"
#include "json/json_value.h"

namespace scdwarf::json {
namespace {

TEST(JsonParserTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(*ParseJson("true")->AsBool(), true);
  EXPECT_EQ(*ParseJson("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(*ParseJson("3.5")->AsNumber(), 3.5);
  EXPECT_DOUBLE_EQ(*ParseJson("-0.25e2")->AsNumber(), -25.0);
  EXPECT_EQ(*ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParserTest, WhitespaceTolerated) {
  auto value = ParseJson("  {\n\t\"a\" : 1 }  ");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_DOUBLE_EQ(*value->Get("a")->AsNumber(), 1.0);
}

TEST(JsonParserTest, NestedStructures) {
  auto value = ParseJson(
      R"({"stations":[{"name":"Fenian St","bikes":3},{"name":"Pearse St","bikes":5}]})");
  ASSERT_TRUE(value.ok()) << value.status();
  const JsonArray* stations = value->Get("stations")->AsArray();
  ASSERT_NE(stations, nullptr);
  ASSERT_EQ(stations->size(), 2u);
  EXPECT_EQ(*(*stations)[0].Get("name")->AsString(), "Fenian St");
  EXPECT_DOUBLE_EQ(*(*stations)[1].Get("bikes")->AsNumber(), 5.0);
}

TEST(JsonParserTest, StringEscapes) {
  auto value = ParseJson(R"("a\"b\\c\/d\b\f\n\r\t")");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value->AsString(), "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonParserTest, UnicodeEscapes) {
  EXPECT_EQ(*ParseJson(R"("A")")->AsString(), "A");
  EXPECT_EQ(*ParseJson(R"("é")")->AsString(), "\xC3\xA9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(*ParseJson(R"("😀")")->AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, UnpairedSurrogateRejected) {
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());
  EXPECT_FALSE(ParseJson(R"("\ude00")").ok());
}

TEST(JsonParserTest, MalformedInputsRejected) {
  for (const char* bad :
       {"", "{", "}", "[1,", "[1 2]", "{\"a\":}", "{\"a\" 1}", "{a:1}",
        "tru", "01x", "\"unterminated", "[1]]", "nul", "+1", "--1", "1."}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParserTest, RawControlCharacterRejected) {
  std::string input = "\"a\nb\"";
  EXPECT_FALSE(ParseJson(input).ok());
}

TEST(JsonParserTest, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParserTest, ModerateNestingAccepted) {
  std::string input(100, '[');
  input += "1";
  input += std::string(100, ']');
  EXPECT_TRUE(ParseJson(input).ok());
}

TEST(JsonValueTest, GetPath) {
  auto value = ParseJson(R"({"a":{"b":{"c":42}}})");
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value->GetPath("a.b.c")->AsNumber(), 42.0);
  EXPECT_TRUE(value->GetPath("a.x.c").status().IsNotFound());
}

TEST(JsonValueTest, TypeMismatchErrors) {
  JsonValue number(1.5);
  EXPECT_TRUE(number.AsBool().status().IsInvalidArgument());
  EXPECT_TRUE(number.AsString().status().IsInvalidArgument());
  EXPECT_EQ(number.AsArray(), nullptr);
  EXPECT_TRUE(number.Get("k").status().IsInvalidArgument());
}

TEST(JsonValueTest, ToFieldString) {
  EXPECT_EQ(JsonValue(3).ToFieldString(), "3");
  EXPECT_EQ(JsonValue(3.5).ToFieldString(), "3.5");
  EXPECT_EQ(JsonValue("x").ToFieldString(), "x");
  EXPECT_EQ(JsonValue(true).ToFieldString(), "true");
  EXPECT_EQ(JsonValue(nullptr).ToFieldString(), "null");
}

TEST(JsonSerializerTest, CompactRoundTrip) {
  const char* input =
      R"({"name":"Fenian St","bikes":3,"open":true,"tags":["a","b"],"extra":null})";
  auto value = ParseJson(input);
  ASSERT_TRUE(value.ok());
  std::string out = SerializeJson(*value);
  auto reparsed = ParseJson(out);
  ASSERT_TRUE(reparsed.ok()) << out;
  EXPECT_EQ(*reparsed->Get("name")->AsString(), "Fenian St");
  EXPECT_EQ(reparsed->Get("tags")->AsArray()->size(), 2u);
}

TEST(JsonSerializerTest, PreservesMemberOrder) {
  auto value = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(SerializeJson(*value), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonSerializerTest, PrettyOutputReparses) {
  auto value = ParseJson(R"({"a":[1,2],"b":{"c":true}})");
  ASSERT_TRUE(value.ok());
  std::string pretty = SerializeJson(*value, /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(ParseJson(pretty).ok());
}

TEST(JsonSerializerTest, EscapesControlCharacters) {
  JsonValue value(std::string("a\x01""b"));
  EXPECT_EQ(SerializeJson(value), "\"a\\u0001b\"");
}

/// The per-byte escaper the run-appending one replaced: the byte-identity
/// reference for AppendEscapedJsonString.
std::string ReferenceEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Escapes \p text all three ways and checks each against the reference,
/// then checks that the escaped form parses back to \p text.
void ExpectEscapesAndRoundTrips(const std::string& text) {
  const std::string want = ReferenceEscape(text);
  EXPECT_EQ(EscapeJsonString(text), want);
  std::string appended = "[prefix]";
  AppendEscapedJsonString(text, &appended);
  EXPECT_EQ(appended, "[prefix]" + want);
  EXPECT_EQ(SerializeJson(JsonValue(text)), "\"" + want + "\"");
  auto parsed = ParseJson("\"" + want + "\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed->AsString(), text);
}

TEST(JsonSerializerTest, AppendsEscapedRunsByteIdenticallyForEveryByte) {
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE(b);
    const std::string byte(1, static_cast<char>(b));
    ExpectEscapesAndRoundTrips(byte);
    ExpectEscapesAndRoundTrips("ab" + byte + "cd");
    every_byte += byte;
  }
  ExpectEscapesAndRoundTrips(every_byte);
  // Escapes at the first and the last position, next to each other, and
  // strings that are nothing but escapes or nothing at all.
  for (const std::string& text :
       {std::string("\"abc"), std::string("abc\\"), std::string("\"abc\n"),
        std::string("a\"\\b"), std::string("\n\t\r"), std::string("\x01\x1f"),
        std::string("\""), std::string(""), std::string("Fenian St"),
        std::string("caf\xc3\xa9\x7f")}) {
    SCOPED_TRACE(text);
    ExpectEscapesAndRoundTrips(text);
  }
  // Control characters keep their lowercase \u00XX spelling.
  EXPECT_EQ(EscapeJsonString("\x1f\x0b"), "\\u001f\\u000b");
}

TEST(JsonSerializerTest, EmptyContainers) {
  EXPECT_EQ(SerializeJson(JsonValue(JsonArray{})), "[]");
  EXPECT_EQ(SerializeJson(JsonValue(JsonObject{})), "{}");
}

}  // namespace
}  // namespace scdwarf::json
