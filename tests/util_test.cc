/**
 * @file
 * Unit tests for the util module: formatting, statistics, CSV, RNG,
 * tables and unit conversions.
 */

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/json.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/types.h"

namespace pad {
namespace {

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(secondsToTicks(1.0), kTicksPerSecond);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerMinute), 60.0);
    EXPECT_EQ(secondsToTicks(0.1), 100);
    EXPECT_DOUBLE_EQ(wattHoursToJoules(1.0), 3600.0);
    EXPECT_DOUBLE_EQ(joulesToWattHours(7200.0), 2.0);
    EXPECT_EQ(kTicksPerDay, 24 * 60 * 60 * 1000);
}

TEST(Logging, FormatSubstitutesPlaceholders)
{
    EXPECT_EQ(detail::formatMessage("a {} c {}", 1, "b"), "a 1 c b");
    EXPECT_EQ(detail::formatMessage("no args"), "no args");
    EXPECT_EQ(detail::formatMessage("extra {} {}", 7), "extra 7 {}");
}

TEST(Logging, FormatBraceEscapes)
{
    EXPECT_EQ(detail::formatMessage("{{}}"), "{}");
    EXPECT_EQ(detail::formatMessage("{{{}}}", 5), "{5}");
    EXPECT_EQ(detail::formatMessage("json: {{\"k\": {}}}", 1),
              "json: {\"k\": 1}");
    EXPECT_EQ(detail::formatMessage("lone { and } stay"),
              "lone { and } stay");
    // A starved placeholder is kept verbatim, not dropped.
    EXPECT_EQ(detail::formatMessage("{{literal}} then {}"),
              "{literal} then {}");
}

TEST(Logging, LevelNamesRoundTrip)
{
    EXPECT_EQ(logLevelFromName("debug"), LogLevel::Debug);
    EXPECT_EQ(logLevelFromName("WARN"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromName("warning"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromName("Info"), LogLevel::Info);
    EXPECT_EQ(logLevelFromName("silent"), LogLevel::Silent);
    EXPECT_FALSE(logLevelFromName("loud").has_value());
    for (LogLevel level : {LogLevel::Silent, LogLevel::Error,
                           LogLevel::Warn, LogLevel::Info,
                           LogLevel::Debug})
        EXPECT_EQ(logLevelFromName(logLevelName(level)), level);
}

TEST(RunningStats, MeanVarianceExtrema)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_NEAR(s.mean(), 5.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeEqualsConcatenation)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.37 * i - 3.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 25.0), 7.0);
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);
    h.add(9.9);
    h.add(-100.0); // clamped into first bin
    h.add(100.0);  // clamped into last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.binLeft(1), 2.0);
}

TEST(Csv, ParseHandlesQuotingAndEscapes)
{
    const auto f = parseCsvLine("a,\"b,c\",\"d\"\"e\",f");
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "b,c");
    EXPECT_EQ(f[2], "d\"e");
    EXPECT_EQ(f[3], "f");
}

TEST(Csv, FormatQuotesWhenNeeded)
{
    EXPECT_EQ(formatCsvLine({"a", "b,c", "d\"e"}),
              "a,\"b,c\",\"d\"\"e\"");
}

TEST(Csv, RoundTripThroughFile)
{
    char path[] = "/tmp/pad_csv_XXXXXX";
    const int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    {
        CsvWriter w(path);
        w.write({"x", "y"});
        w.writeNumbers({1.5, -2.0});
        w.flush();
    }
    CsvReader r(path);
    std::vector<std::string> fields;
    ASSERT_TRUE(r.next(fields));
    EXPECT_EQ(fields[0], "x");
    ASSERT_TRUE(r.next(fields));
    EXPECT_EQ(fields[0], "1.5");
    EXPECT_FALSE(r.next(fields));
    std::remove(path);
}

TEST(Rng, DeterministicAndForkable)
{
    Rng a(7), b(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    Rng child = a.fork();
    EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(11);
    double mean = 0.0;
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.boundedPareto(1.5, 1.0, 100.0);
        EXPECT_GE(v, 1.0 - 1e-9);
        EXPECT_LE(v, 100.0 + 1e-9);
        mean += v;
    }
    mean /= 5000.0;
    // Heavy tail pulls the mean well above the minimum.
    EXPECT_GT(mean, 1.5);
    EXPECT_LT(mean, 20.0);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow("beta", {2.5, 3.25}, 2);
    std::ostringstream out;
    t.print(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("2.50"), std::string::npos);
    EXPECT_NE(s.find("3.25"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.431, 1), "43.1%");
}

// The JSON parser is the read side of every padtrace input; these
// tests pin the behaviors the forensics path depends on.

TEST(Json, DeeplyNestedDocumentsParse)
{
    // 64 levels of alternating object/array nesting, the shape a
    // pathological-but-legal trace args blob could take.
    std::string text;
    for (int i = 0; i < 32; ++i)
        text += "{\"a\":[";
    text += "42";
    for (int i = 0; i < 32; ++i)
        text += "]}";
    std::string error;
    const auto doc = parseJson(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *node = &*doc;
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(node->isObject());
        node = node->find("a");
        ASSERT_NE(node, nullptr);
        ASSERT_TRUE(node->isArray());
        ASSERT_EQ(node->array.size(), 1u);
        node = &node->array[0];
    }
    EXPECT_DOUBLE_EQ(node->number, 42.0);
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    std::string error;
    const auto doc = parseJson(
        "{\"ascii\":\"\\u0041\",\"latin\":\"\\u00e9\","
        "\"bmp\":\"\\u20ac\",\"controls\":\"\\n\\t\\\\\\\"\"}",
        &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("ascii")->str, "A");
    EXPECT_EQ(doc->find("latin")->str, "\xC3\xA9");   // é
    EXPECT_EQ(doc->find("bmp")->str, "\xE2\x82\xAC"); // €
    EXPECT_EQ(doc->find("controls")->str, "\n\t\\\"");

    // Truncated \u escape is a syntax error, not a crash.
    EXPECT_FALSE(parseJson("{\"x\":\"\\u12\"}", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(Json, TruncatedAndCorruptInputsFailCleanly)
{
    // Exactly the shapes a killed run leaves at the end of a JSONL
    // trace: cut-off objects, strings and numbers, plus raw garbage.
    const char *broken[] = {
        "{\"ts\":1000,\"name\":\"po",
        "{\"ts\":1000,",
        "{\"ts\":",
        "{",
        "[1, 2,",
        "\"unterminated",
        "{\"a\":1}trailing",
        "nul",
        "\x01\x02\x03",
    };
    for (const char *text : broken) {
        std::string error;
        EXPECT_FALSE(parseJson(text, &error).has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Json, WriterOutputRoundTripsThroughParser)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.key("name").value("padtrace \"report\"\nline2");
        w.key("survival").value(740.0625);
        w.key("count").value(std::int64_t{-3});
        w.key("flags").beginArray();
        w.value(true).value(false).null();
        w.endArray();
        w.key("nested").beginObject();
        w.key("unicode").value("é€");
        w.endObject();
        w.endObject();
    }
    std::string error;
    const auto doc = parseJson(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("name")->str, "padtrace \"report\"\nline2");
    // formatDouble guarantees bit-exact double round-trips.
    EXPECT_EQ(doc->find("survival")->number, 740.0625);
    EXPECT_DOUBLE_EQ(doc->find("count")->number, -3.0);
    ASSERT_EQ(doc->find("flags")->array.size(), 3u);
    EXPECT_TRUE(doc->find("flags")->array[2].isNull());
    EXPECT_EQ(doc->find("nested")->find("unicode")->str, "é€");
}

// ---------------------------------------------------------------------
// Number conversions: formatDouble and parseJson numbers must agree
// string for string (and bit for bit) with the printf/strtod loop
// they replaced, so every writer's output stays byte-identical.
// ---------------------------------------------------------------------

/** The historical formatDouble: smallest "%.{p}g" that round-trips. */
std::string
referenceFormatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** @p v and its neighbours one ulp away on either side. */
void
pushWithNeighbours(std::vector<double> &out, double v)
{
    out.push_back(v);
    out.push_back(std::nextafter(v, -HUGE_VAL));
    out.push_back(std::nextafter(v, HUGE_VAL));
}

TEST(NumberFormat, FormatDoubleMatchesPrintfLoopOnEdgeValues)
{
    std::vector<double> values;
    for (int e = -1074; e <= 1023; ++e)
        pushWithNeighbours(values, std::ldexp(1.0, e));
    for (int e = -323; e <= 308; ++e)
        pushWithNeighbours(values, std::strtod(
            ("1e" + std::to_string(e)).c_str(), nullptr));
    // Subnormals: the smallest few, and a sweep up to DBL_MIN.
    for (std::uint64_t m = 1; m <= 4096; ++m)
        values.push_back(std::bit_cast<double>(m));
    for (std::uint64_t m = 1; m < (1ULL << 52); m = m * 3 + 7)
        values.push_back(std::bit_cast<double>(m));
    pushWithNeighbours(values, DBL_MAX);
    pushWithNeighbours(values, DBL_MIN);
    pushWithNeighbours(values, DBL_TRUE_MIN);
    // Short decimals straddling the %g fixed/exponent switch.
    for (const double v : {0.0, 0.1, 0.5, 1.5, 100.0, 1e-5, 1.25e-4,
                           123456.0, 1e16, 1e17, 12345678901234567.0,
                           740.0625, 50125.5, 0.30000000000000004})
        pushWithNeighbours(values, v);

    std::size_t checked = 0;
    for (const double v : values) {
        for (const double s : {v, -v}) {
            ASSERT_EQ(JsonWriter::formatDouble(s),
                      referenceFormatDouble(s))
                << "bits 0x" << std::hex
                << std::bit_cast<std::uint64_t>(s);
            ++checked;
        }
    }
    EXPECT_GT(checked, 10000u);

    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
    EXPECT_EQ(JsonWriter::formatDouble(-0.0), "-0");
    EXPECT_EQ(JsonWriter::formatDouble(100.0), "1e+02");
    EXPECT_EQ(JsonWriter::formatDouble(DBL_TRUE_MIN), "5e-324");
    EXPECT_EQ(JsonWriter::formatDouble(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  -std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

/**
 * 2^20 seeded bit patterns, split over eight cases so ctest -j
 * spreads the reference loop's cost. Half are raw 64-bit patterns
 * (every exponent, NaN and infinity included); half keep the
 * exponent within 2^-30..2^70, where telemetry values live and %g
 * switches between fixed and exponent form. A failure names the
 * (seed, draw) pair that replays it.
 */
class FormatDoubleRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FormatDoubleRandom, MatchesPrintfLoopOnSeededBitPatterns)
{
    constexpr std::uint64_t kDraws = 1u << 17;
    const std::uint64_t seed = 0x9ad0f00d + GetParam();
    const CounterRng rng(seed);
    for (std::uint64_t n = 0; n < kDraws; ++n) {
        std::uint64_t bits = rng.at(n);
        if (n & 1) {
            const std::uint64_t exponent = 1023 - 30 + (bits >> 52) % 100;
            bits = (bits & 0x800fffffffffffffULL) | (exponent << 52);
        }
        const double v = std::bit_cast<double>(bits);
        ASSERT_EQ(JsonWriter::formatDouble(v), referenceFormatDouble(v))
            << "seed " << seed << " draw " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleRandom,
                         ::testing::Range(0, 8));

/**
 * 2^20 decimal-grid values k / 10^n and their neighbours one ulp
 * away, over eight cases. k has 1 to 15 digits and n is 0..22, so
 * both are exact doubles and the quotient is the double nearest the
 * decimal: the short values telemetry carries, where formatDouble
 * lays out the shortest form without the printf loop's check, and
 * the 17-digit values right next to them. A failure names the
 * (seed, draw) pair that replays it.
 */
class FormatDoubleDecimalGrid : public ::testing::TestWithParam<int>
{
};

TEST_P(FormatDoubleDecimalGrid, MatchesPrintfLoopOnDecimalsAndNeighbours)
{
    constexpr std::uint64_t kDraws = 1u << 17;
    const std::uint64_t seed = 0xdec1a1 + GetParam();
    const CounterRng rng(seed);
    for (std::uint64_t n = 0; n < kDraws; ++n) {
        const std::uint64_t bits = rng.at(n);
        std::uint64_t kRange = 1;
        for (std::uint64_t d = 0; d <= bits % 15; ++d)
            kRange *= 10;
        double divisor = 1.0; // 10^n, exact through 10^22
        for (std::uint64_t d = 0; d < (bits >> 4) % 23; ++d)
            divisor *= 10.0;
        const auto k = static_cast<double>((bits >> 12) % kRange);
        const double v = (bits >> 63 ? -k : k) / divisor;
        for (const double s : {v, std::nextafter(v, -HUGE_VAL),
                               std::nextafter(v, HUGE_VAL)})
            ASSERT_EQ(JsonWriter::formatDouble(s), referenceFormatDouble(s))
                << "seed " << seed << " draw " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleDecimalGrid,
                         ::testing::Range(0, 8));

/** Bit-exact equality (distinguishes -0 from 0, matches NaN payloads). */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " (0x" << std::hex << std::bit_cast<std::uint64_t>(a)
           << ") vs " << b << " (0x" << std::bit_cast<std::uint64_t>(b)
           << ")";
}

TEST(NumberParse, ParseJsonNumbersMatchStrtod)
{
    const char *numbers[] = {
        "0", "-0", "1", "-1", "0.1", "1e5", "1E5", "1e+5", "1.5e-7",
        "123456789012345678901234567890",
        "3.14159265358979323846264338327950288419716939937510",
        "0.30000000000000000555111512312578270211815834045410156250001",
        "1e999", "-1e999", "1e-400", "-1e-400", "4.9e-324",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308",
    };
    for (const char *text : numbers) {
        const auto doc = parseJson(text);
        ASSERT_TRUE(doc.has_value()) << text;
        ASSERT_TRUE(doc->isNumber()) << text;
        EXPECT_TRUE(sameBits(doc->number, std::strtod(text, nullptr)))
            << text;
    }
    EXPECT_EQ(parseJson("1e999")->number, HUGE_VAL);
    EXPECT_TRUE(std::signbit(parseJson("-0")->number));
    EXPECT_EQ(parseJson("1e-400")->number, 0.0);

    // formatDouble's output parses back bit for bit.
    const CounterRng rng(0x5eed);
    for (std::uint64_t n = 0; n < 100000; ++n) {
        const double v = std::bit_cast<double>(rng.at(n));
        if (!std::isfinite(v))
            continue;
        const std::string text = JsonWriter::formatDouble(v);
        const auto doc = parseJson(text);
        ASSERT_TRUE(doc.has_value()) << text;
        ASSERT_TRUE(sameBits(doc->number, v)) << text;
        ASSERT_TRUE(
            sameBits(doc->number, std::strtod(text.c_str(), nullptr)))
            << text;
    }
}

TEST(NumberParse, GrammarRejectionsSurvive)
{
    for (const char *bad : {"01", "-01", "00", ".5", "-.5", "1.", "1.e5",
                            "1e", "1e+", "1E-", "-", "+1", "--1",
                            "0x10", "1e5.0", "Infinity", "NaN"}) {
        std::string error;
        EXPECT_FALSE(parseJson(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

} // namespace
} // namespace pad
