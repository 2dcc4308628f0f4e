// Unit tests for decisive_base: strings, LangString, CSV, XML, JSON, tables,
// and the deterministic PRNG.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/lang_string.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/base/xml.hpp"

using namespace decisive;

// ---------------------------------------------------------------- strings --

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("model.mdl", "model"));
  EXPECT_FALSE(starts_with("m", "model"));
  EXPECT_TRUE(ends_with("model.mdl", ".mdl"));
  EXPECT_FALSE(ends_with("mdl", "model.mdl"));
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("MCu-1"), "mcu-1");
  EXPECT_TRUE(iequals("ASIL-B", "asil-b"));
  EXPECT_FALSE(iequals("ASIL-B", "asil-c"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(Strings, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("  -1e-3 "), -1e-3);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW(parse_int("4.2"), ParseError);
}

TEST(Strings, ParseCountRejectsNegativeValues) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count(" 12 "), 12u);
  // A negative count must never wrap to a huge unsigned bound.
  EXPECT_THROW(parse_count("-1"), ParseError);
  EXPECT_THROW(parse_count("two"), ParseError);
}

TEST(Strings, ParseBool) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("TRUE"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_THROW(parse_bool("yes"), ParseError);
}

TEST(Strings, FormatNumberTrimsTrailingZeros) {
  EXPECT_EQ(format_number(3.14), "3.14");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(4.5), "4.5");
  EXPECT_EQ(format_number(-0.0), "0");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.9677), "96.77%");
  EXPECT_EQ(format_percent(0.3, 0), "30%");
}

namespace {

/// The "%.*f" rendering format_number trims, from a buffer wide enough for
/// any double (309 integer digits) at the precisions the sweep uses.
std::string printf_fixed(double value, int decimals) {
  std::vector<char> buffer(1200);
  std::snprintf(buffer.data(), buffer.size(), "%.*f", decimals, value);
  return buffer.data();
}

std::string trimmed_oracle(double value, int decimals) {
  std::string out = printf_fixed(value, decimals);
  if (out.find('.') != std::string::npos) {
    while (out.back() == '0') out.pop_back();
    if (out.back() == '.') out.pop_back();
  }
  return out == "-0" ? "0" : out;
}

}  // namespace

TEST(Strings, FormatNumberIsExactAtAnyMagnitude) {
  // A 64-byte buffer used to truncate these to a 63-digit number.
  EXPECT_EQ(format_number(1e300, 6), printf_fixed(1e300, 6).substr(0, 301));
  EXPECT_EQ(format_number(1e300, 6).size(), 301u);
  EXPECT_EQ(format_number(1e300, 6).substr(0, 20), "10000000000000000525");
  EXPECT_EQ(format_number(-1e70, 6), printf_fixed(-1e70, 0));
  EXPECT_EQ(format_number(-1e70, 6).size(), 72u);
  EXPECT_EQ(format_number(std::numeric_limits<double>::max()).size(), 309u);
  EXPECT_EQ(format_percent(1e300).size(), printf_fixed(1e302, 2).size() + 1);
  // Past the fixed buffer: a wide precision on a huge value.
  EXPECT_EQ(format_number(1.5e300, 100), trimmed_oracle(1.5e300, 100));
  EXPECT_EQ(format_number(std::numeric_limits<double>::denorm_min(), 800),
            trimmed_oracle(std::numeric_limits<double>::denorm_min(), 800));
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(Strings, FormatNumberMatchesPrintfOnASeededSweep) {
  std::mt19937_64 rng(20261018u);
  std::vector<double> values = {0.0,
                                -0.0,
                                0.0000005,   // ties at six decimals
                                -0.0000005,
                                2.5e-7,
                                1.0000005,
                                0.1234565,
                                -7.9999995,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                123456789012345678.0,
                                4.5,
                                -2.5};
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
    // Raw bit patterns reach subnormals, negatives and huge values alike.
    const double raw = std::bit_cast<double>(rng());
    if (std::isfinite(raw)) values.push_back(raw);
  }
  // The exact kernel's domain (|v| < 1e9, 0..9 decimals) and its edges.
  // k/2^j with k odd has exactly j decimals, so it is an exact tie at j - 1.
  for (int j = 1; j <= 10; ++j) {
    for (int k = 1; k < 64; k += 2) {
      const double tie = std::ldexp(static_cast<double>(k), -j);
      values.push_back(tie);
      values.push_back(-tie);
      values.push_back(std::ldexp(static_cast<double>(k + 2 * 1024), -j));
    }
  }
  const double bound = 1e9;
  for (const double edge : {bound, std::nextafter(bound, 0.0), std::nextafter(bound, 2e9),
                            999999999.5, 999999999.9999999, 0.99999999995, 0.9999995}) {
    values.push_back(edge);
    values.push_back(-edge);
  }
  // Negatives that round to zero ("-0" trims to "0"), subnormals, and
  // FIT-like values in [1, 50] with shares and FIT products beside them.
  for (const double tiny : {-1e-7, -4e-10, -0.5, -0.4999999, -5e-324, -2.2250738585072014e-308}) {
    values.push_back(tiny);
  }
  std::uniform_real_distribution<double> fit(1.0, 50.0);
  std::uniform_real_distribution<double> share(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    const double f = fit(rng);
    const double s = share(rng);
    values.push_back(f);
    values.push_back(s);
    values.push_back(f * s);
    values.push_back(f * s * (1.0 - share(rng)));
  }
  for (const double value : values) {
    if (!std::isfinite(value)) continue;
    for (const int decimals : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
      ASSERT_EQ(format_number(value, decimals), trimmed_oracle(value, decimals))
          << "value " << printf_fixed(value, 20) << " decimals " << decimals;
      ASSERT_EQ(format_percent(value, decimals), printf_fixed(value * 100.0, decimals) + "%")
          << "value " << printf_fixed(value, 20) << " decimals " << decimals;
    }
  }
}

TEST(ErrorHierarchy, KindsAndMessages) {
  const CapacityError error("too big");
  EXPECT_EQ(error.kind(), ErrorKind::Capacity);
  EXPECT_NE(std::string(error.what()).find("too big"), std::string::npos);
  EXPECT_EQ(to_string(ErrorKind::Simulation), "simulation");
}

// ------------------------------------------------------------- LangString --

TEST(LangString, DefaultsToEnglish) {
  const LangString name("power supply");
  EXPECT_EQ(name.get(), "power supply");
  EXPECT_EQ(name.get("en"), "power supply");
  EXPECT_TRUE(name.has("en"));
}

TEST(LangString, FallbackChain) {
  LangString name;
  EXPECT_EQ(name.get(), "");
  name.set("de", "Netzteil");
  EXPECT_EQ(name.get("en"), "Netzteil");  // any variant beats empty
  name.set("en", "power supply");
  EXPECT_EQ(name.get("fr"), "power supply");  // en fallback
  EXPECT_EQ(name.get("de"), "Netzteil");
  EXPECT_EQ(name.size(), 2u);
}

// -------------------------------------------------------------------- CSV --

TEST(Csv, ParsesHeaderAndRows) {
  const auto table = parse_csv("a,b\n1,2\n3,4\n");
  EXPECT_EQ(table.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.at(0, "b"), "2");
  EXPECT_EQ(table.at(1, "a"), "3");
}

TEST(Csv, HandlesQuotedFields) {
  const auto table = parse_csv("name,desc\n\"a,b\",\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(table.rows[0][0], "a,b");
  EXPECT_EQ(table.rows[0][1], "say \"hi\"");
}

TEST(Csv, HandlesCrLfAndTrailingNewlines) {
  const auto table = parse_csv("a,b\r\n1,2\r\n\r\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(Csv, ColumnLookupIsCaseInsensitive) {
  const auto table = parse_csv("Component,FIT\nDiode,10\n");
  EXPECT_EQ(table.column("component"), 0);
  EXPECT_EQ(table.column("fit"), 1);
  EXPECT_EQ(table.column("nope"), -1);
}

TEST(Csv, AtThrowsOnBadAccess) {
  const auto table = parse_csv("a\n1\n");
  EXPECT_THROW((void)table.at(0, "missing"), ModelError);
  EXPECT_THROW((void)table.at(5, "a"), ModelError);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("a\n\"unterminated\n"), ParseError);
}

TEST(Csv, WriteQuotesOnlyWhenNeeded) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"plain", "with,comma"}, {"with\"quote", "line\nbreak"}};
  const std::string text = write_csv(table);
  EXPECT_NE(text.find("plain"), std::string::npos);
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  const auto back = parse_csv(text);
  EXPECT_EQ(back.rows, table.rows);
}

TEST(Csv, WritePinsQuotingBytes) {
  // A cell is quoted when it holds the separator, a quote, \n or \r at any
  // position; inner quotes double. Empty cells and rows stay empty.
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{",x", "x,"},
                {"\"x", "x\""},
                {"\nx", "x\n"},
                {"\rx", "x\r"},
                {"", ""},
                {},
                {"plain", "say \"hi\""},
                {"\"", ","}};
  EXPECT_EQ(write_csv(table),
            "a,b\n"
            "\",x\",\"x,\"\n"
            "\"\"\"x\",\"x\"\"\"\n"
            "\"\nx\",\"x\n\"\n"
            "\"\rx\",\"x\r\"\n"
            ",\n"
            "\n"
            "plain,\"say \"\"hi\"\"\"\n"
            "\"\"\"\",\",\"\n");
  // Another separator: commas are plain, semicolons quoted.
  EXPECT_EQ(write_csv(table, ';').substr(0, 16), "a;b\n,x;x,\n\"\"\"x\";");
  CsvTable semi;
  semi.header = {"a;b"};
  EXPECT_EQ(write_csv(semi, ';'), "\"a;b\"\n");
  EXPECT_EQ(write_csv(CsvTable{}), "\n");
}

class CsvRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CsvRoundTrip, ParseWriteParseIsStable) {
  const auto first = parse_csv(GetParam());
  const auto second = parse_csv(write_csv(first));
  EXPECT_EQ(first.header, second.header);
  EXPECT_EQ(first.rows, second.rows);
}

INSTANTIATE_TEST_SUITE_P(Samples, CsvRoundTrip,
                         ::testing::Values("a,b\n1,2\n", "x\n\"quoted \"\"x\"\"\"\n",
                                           "h1,h2,h3\n,,\nval,,end\n",
                                           "only_header\n"));

// -------------------------------------------------------------------- XML --

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = xml::parse("<a x=\"1\"><b>text</b><b y='2'/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->attribute_or("x", ""), "1");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->text, "text");
  EXPECT_EQ(root->children[1]->attribute_or("y", ""), "2");
  EXPECT_EQ(root->children_named("b").size(), 2u);
}

TEST(Xml, DecodesEntities) {
  const auto root = xml::parse("<a v=\"&lt;&amp;&gt;&quot;&apos;\">x &#65; &#x42;</a>");
  EXPECT_EQ(root->attribute_or("v", ""), "<&>\"'");
  EXPECT_EQ(root->text, "x A B");
}

TEST(Xml, SkipsCommentsDeclarationsDoctype) {
  const auto root = xml::parse(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a><!-- inner --><b/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->children.size(), 1u);
}

TEST(Xml, CdataIsText) {
  const auto root = xml::parse("<a><![CDATA[1 < 2 && 3]]></a>");
  EXPECT_EQ(root->text, "1 < 2 && 3");
}

TEST(Xml, MalformedInputThrows) {
  EXPECT_THROW(xml::parse("<a><b></a>"), ParseError);
  EXPECT_THROW(xml::parse("<a"), ParseError);
  EXPECT_THROW(xml::parse("<a/><b/>"), ParseError);
  EXPECT_THROW(xml::parse("<a v=unquoted/>"), ParseError);
}

TEST(Xml, RoundTripPreservesStructure) {
  const auto root = xml::parse("<m p=\"ssam\"><o id=\"1\" class=\"C&amp;D\"><r t=\"2 3\"/></o></m>");
  const auto again = xml::parse(xml::write(*root));
  EXPECT_EQ(again->name, "m");
  EXPECT_EQ(again->children[0]->attribute_or("class", ""), "C&D");
  EXPECT_EQ(again->children[0]->children[0]->attribute_or("t", ""), "2 3");
}

// ------------------------------------------------------------------- JSON --

TEST(Json, ParsesAllTypes) {
  const auto v = json::parse(R"({"n": null, "b": true, "x": 1.5, "s": "hi",
                                 "a": [1, 2], "o": {"k": "v"}})");
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_DOUBLE_EQ(v.find("x")->as_number(), 1.5);
  EXPECT_EQ(v.find("s")->as_string(), "hi");
  EXPECT_EQ(v.find("a")->as_array().size(), 2u);
  EXPECT_EQ(v.find("o")->find("k")->as_string(), "v");
}

TEST(Json, DecodesEscapes) {
  const auto v = json::parse(R"(["a\"b", "\n\t\\", "A"])");
  EXPECT_EQ(v.as_array()[0].as_string(), "a\"b");
  EXPECT_EQ(v.as_array()[1].as_string(), "\n\t\\");
  EXPECT_EQ(v.as_array()[2].as_string(), "A");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("[1,]"), ParseError);
  EXPECT_THROW(json::parse("tru"), ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1} extra"), ParseError);
}

TEST(Json, TypeMismatchThrows) {
  const auto v = json::parse("42");
  EXPECT_THROW((void)v.as_string(), ParseError);
  EXPECT_THROW((void)v.as_array(), ParseError);
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
}

TEST(Json, RoundTrip) {
  const char* text = R"({"list": [1, true, null, "x"], "nested": {"deep": [{}]}})";
  const auto v = json::parse(text);
  const auto again = json::parse(json::write(v));
  EXPECT_EQ(json::write(v), json::write(again));
}

// ------------------------------------------------------------------ table --

TEST(TextTable, AlignsColumns) {
  TextTable table({"a", "bb"});
  table.add_row({"xxx", "y"});
  const std::string out = table.render();
  EXPECT_NE(out.find("a   | bb"), std::string::npos);
  EXPECT_NE(out.find("xxx | y"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_NO_THROW(table.render());
}

// -------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  EXPECT_EQ(rng.below(0), 0u);
}

// ------------------------------------------------------ whole-file I/O --

TEST(WholeFile, RoundTripsBytesAndRejectsDirectories) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("decisive-whole-file-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bytes.bin").string();
  const std::string bytes("a\0b\r\nc", 7);
  write_whole_file(path, bytes, "test file");
  EXPECT_EQ(read_whole_file(path, "test file"), bytes);
  write_whole_file(path, "", "test file");
  EXPECT_EQ(read_whole_file(path, "test file"), "");

  // A directory is an I/O error naming the path, never an empty document.
  try {
    (void)read_whole_file(dir.string(), "model file");
    ADD_FAILURE() << "reading a directory did not throw";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("'" + dir.string() + "': is a directory"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)read_whole_file((dir / "missing").string(), "model file"), IoError);
  EXPECT_THROW(write_whole_file((dir / "no" / "such" / "dir").string(), "x", "file"),
               IoError);
  std::filesystem::remove_all(dir);
}
