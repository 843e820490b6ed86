#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "support/error.hpp"

namespace gj = graphene::json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(gj::parse("null").isNull());
  EXPECT_EQ(gj::parse("true").asBool(), true);
  EXPECT_EQ(gj::parse("false").asBool(), false);
  EXPECT_DOUBLE_EQ(gj::parse("3.5").asNumber(), 3.5);
  EXPECT_DOUBLE_EQ(gj::parse("-0.25e2").asNumber(), -25.0);
  EXPECT_EQ(gj::parse("42").asInt(), 42);
  EXPECT_EQ(gj::parse("\"hello\"").asString(), "hello");
}

TEST(Json, ParsesNestedStructures) {
  auto v = gj::parse(R"({
    "solver": {
      "type": "bicgstab",
      "maxIterations": 100,
      "tolerance": 1e-9,
      "preconditioner": {"type": "ilu", "fill": 0}
    },
    "tags": ["sparse", "ipu"]
  })");
  EXPECT_EQ(v.at("solver").at("type").asString(), "bicgstab");
  EXPECT_EQ(v.at("solver").at("maxIterations").asInt(), 100);
  EXPECT_DOUBLE_EQ(v.at("solver").at("tolerance").asNumber(), 1e-9);
  EXPECT_EQ(v.at("solver").at("preconditioner").at("fill").asInt(), 0);
  ASSERT_EQ(v.at("tags").asArray().size(), 2u);
  EXPECT_EQ(v.at("tags").asArray()[1].asString(), "ipu");
}

TEST(Json, StringEscapes) {
  auto v = gj::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.asString(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapesToUtf8) {
  EXPECT_EQ(gj::parse(R"("é")").asString(), "\xC3\xA9");    // é
  EXPECT_EQ(gj::parse(R"("€")").asString(), "\xE2\x82\xAC");  // €
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(gj::parse(""), graphene::ParseError);
  EXPECT_THROW(gj::parse("{"), graphene::ParseError);
  EXPECT_THROW(gj::parse("[1,]"), graphene::ParseError);
  EXPECT_THROW(gj::parse("{\"a\":1,}"), graphene::ParseError);
  EXPECT_THROW(gj::parse("nul"), graphene::ParseError);
  EXPECT_THROW(gj::parse("1 2"), graphene::ParseError);
  EXPECT_THROW(gj::parse("\"unterminated"), graphene::ParseError);
  EXPECT_THROW(gj::parse("\"bad\\q\""), graphene::ParseError);
  EXPECT_THROW(gj::parse("--3"), graphene::ParseError);
}

TEST(Json, TypeMismatchThrows) {
  auto v = gj::parse("{\"a\": 1}");
  EXPECT_THROW(v.at("a").asString(), graphene::Error);
  EXPECT_THROW(v.at("missing"), graphene::Error);
  EXPECT_THROW(gj::parse("1.5").asInt(), graphene::Error);
  // Outside [-2^63, 2^63) the conversion would be undefined behaviour.
  EXPECT_THROW(gj::parse("1e300").asInt(), graphene::Error);
  EXPECT_THROW(gj::parse("-1e300").asInt(), graphene::Error);
  EXPECT_THROW(gj::parse("9223372036854775808").asInt(), graphene::Error);
  EXPECT_EQ(gj::parse("-9223372036854775808").asInt(), INT64_MIN);
  EXPECT_EQ(gj::parse("9007199254740992").asInt(), 9007199254740992);
}

TEST(Json, GetOrDefaults) {
  auto v = gj::parse("{\"present\": 7}");
  EXPECT_EQ(v.getOr("present", 0), 7);
  EXPECT_EQ(v.getOr("absent", 3), 3);
  EXPECT_EQ(v.getOr("absent", std::string("dflt")), "dflt");
  EXPECT_TRUE(v.getOr("absent", true));
  EXPECT_DOUBLE_EQ(v.getOr("absent", 2.5), 2.5);
}

TEST(Json, RoundTripDump) {
  const std::string doc =
      R"({"arr":[1,2.5,"x"],"nested":{"b":true,"n":null},"z":-3})";
  auto v = gj::parse(doc);
  auto v2 = gj::parse(v.dump());
  EXPECT_TRUE(v == v2);
  // Pretty printing also round-trips.
  auto v3 = gj::parse(v.dump(2));
  EXPECT_TRUE(v == v3);
}

TEST(Json, BuildProgrammatically) {
  gj::Object obj;
  obj["type"] = gj::Value("mpir");
  obj["iterations"] = gj::Value(10);
  gj::Array inner;
  inner.push_back(gj::Value("gauss-seidel"));
  obj["chain"] = gj::Value(std::move(inner));
  gj::Value v{std::move(obj)};
  auto parsed = gj::parse(v.dump());
  EXPECT_EQ(parsed.at("type").asString(), "mpir");
  EXPECT_EQ(parsed.at("iterations").asInt(), 10);
  EXPECT_EQ(parsed.at("chain").asArray()[0].asString(), "gauss-seidel");
}
