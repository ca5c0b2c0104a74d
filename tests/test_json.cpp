#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace grunt::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Parse("null").is_null());
  EXPECT_EQ(Parse("true").AsBool(), true);
  EXPECT_EQ(Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("3.25").AsDouble(), 3.25);
  EXPECT_EQ(Parse("-17").AsInt64(), -17);
  EXPECT_EQ(Parse("1e3").AsInt64(), 1000);
  EXPECT_EQ(Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParse, Containers) {
  const Value v = Parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.At("a").AsArray().size(), 3u);
  EXPECT_EQ(v.At("a").AsArray()[2].AsInt64(), 3);
  EXPECT_EQ(v.At("b").At("c").AsBool(), true);
  EXPECT_EQ(v.Find("nope"), nullptr);
  EXPECT_THROW(v.At("nope"), Error);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\/d\n\t")").AsString(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Parse(R"("Aé")").AsString(), "A\xc3\xa9");
  EXPECT_THROW(Parse(R"("\ud800")"), Error);  // lone surrogate
  EXPECT_THROW(Parse(R"("\q")"), Error);
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    Parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected duplicate-key error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key"),
              std::string::npos);
  }
  try {
    Parse("{\n  \"a\": tru\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParse, RejectsTrailingGarbageAndBadDocs) {
  EXPECT_THROW(Parse("1 2"), Error);
  EXPECT_THROW(Parse(""), Error);
  EXPECT_THROW(Parse("{"), Error);
  EXPECT_THROW(Parse("[1,]"), Error);
  EXPECT_THROW(Parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Parse("nul"), Error);
}

std::string NestedArrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParse, NestingAtTheDepthLimitParses) {
  const Value v = Parse(NestedArrays(kMaxDepth));
  std::size_t depth = 1;
  for (const Value* a = &v; !a->AsArray().empty(); ++depth) {
    a = &a->AsArray()[0];
  }
  EXPECT_EQ(depth, kMaxDepth);

  std::string objects;
  for (std::size_t i = 0; i < kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxDepth, '}');
  EXPECT_NO_THROW(Parse(objects));
}

TEST(JsonParse, NestingPastTheDepthLimitThrowsAtTheOffendingBracket) {
  try {
    Parse(NestedArrays(kMaxDepth + 1));
    FAIL() << "expected a nesting-depth error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
    // The (kMaxDepth + 1)-th '[' sits at column kMaxDepth + 1 of line 1.
    EXPECT_NE(what.find("at 1:" + std::to_string(kMaxDepth + 1) + ":"),
              std::string::npos)
        << what;
  }
  std::string objects;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW(Parse(objects + "1" + std::string(kMaxDepth + 1, '}')),
               Error);
}

TEST(JsonParse, MillionDeepInputThrowsInsteadOfOverflowingTheStack) {
  EXPECT_THROW(Parse(std::string(1'000'000, '[')), Error);
  EXPECT_THROW(Parse(NestedArrays(1'000'000)), Error);
  std::string objects;
  for (int i = 0; i < 1'000'000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Parse(objects), Error);
}

TEST(JsonValue, TypedAccessorMismatchThrows) {
  const Value v = Parse("[1]");
  EXPECT_THROW(v.AsBool(), Error);
  EXPECT_THROW(v.AsString(), Error);
  EXPECT_THROW(v.AsObject(), Error);
  EXPECT_THROW(Parse("1.5").AsInt64(), Error);  // not integral
}

TEST(JsonValue, SetPreservesInsertionOrder) {
  Value v{Object{}};
  v.Set("z", 1);
  v.Set("a", 2);
  v.Set("z", 3);  // replace keeps position
  EXPECT_EQ(v.Dump(0), R"({"z":3,"a":2})");
}

TEST(JsonDump, IntegersPrintWithoutFraction) {
  Value v{Object{}};
  v.Set("i", std::int64_t{42});
  v.Set("big", std::int64_t{1'000'000'000'000});
  v.Set("d", 0.5);
  EXPECT_EQ(v.Dump(0), R"({"i":42,"big":1000000000000,"d":0.5})");
}

TEST(JsonDump, RoundTripIsByteStable) {
  const std::string text =
      R"({"name":"x","arr":[1,2.5,"s",true,null],"nested":{"k":-3}})";
  const Value once = Parse(text);
  const std::string dump1 = once.Dump(2);
  const std::string dump2 = Parse(dump1).Dump(2);
  EXPECT_EQ(dump1, dump2);
  EXPECT_EQ(once, Parse(dump2));
}

TEST(JsonDump, EscapesControlCharacters) {
  const Value v{std::string("a\"b\\c\n\x01")};
  const std::string dumped = v.Dump(0);
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\n\\u0001\"");
  EXPECT_EQ(Parse(dumped).AsString(), v.AsString());
}

TEST(JsonDump, DoubleRoundTripsExactly) {
  const double vals[] = {0.1, 1.0 / 3.0, 1e-9, 123456.789,
                         std::numeric_limits<double>::max()};
  for (double d : vals) {
    EXPECT_EQ(Parse(Value{d}.Dump(0)).AsDouble(), d);
  }
}

TEST(JsonFile, ParseFileErrorsNamePath) {
  try {
    ParseFile("/nonexistent/spec.json");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/spec.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace grunt::json
