/**
 * @file
 * Push-pipeline tests: the pad-rw-v1 codec, the RemoteWriteShipper's
 * failure envelope (bounded queue, backoff, disk spool, drain
 * deadline), the ReceiverServer merge semantics, and the PR's
 * headline guarantee — a replayed padd session ships the exact batch
 * stream the live run shipped, so two receivers fed from two replays
 * dump byte-identically.
 */

#include <atomic>
#include <bit>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <dirent.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "scoped_temp_dir.h"
#include "service/daemon.h"
#include "service/session.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "telemetry/remote_write.h"
#include "telemetry/receiver.h"
#include "util/json.h"
#include "util/json_writer.h"
#include "util/random.h"

using namespace pad;
using namespace pad::telemetry;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Names of the *.jsonl spool files under @p dir, sorted. */
std::vector<std::string>
spoolListing(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

/** Poll @p pred at 1 ms until true or ~5 s elapsed. */
bool
eventually(const std::function<bool()> &pred)
{
    for (int i = 0; i < 5000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

RwBatch
sampleBatch(const std::string &source, std::uint64_t seq, Tick tick)
{
    RwBatch b;
    b.source = source;
    b.seq = seq;
    b.tick = tick;
    RwSeriesChunk chunk;
    chunk.name = "rack0.power";
    chunk.samples.push_back({tick - 1000, 50000.0});
    chunk.samples.push_back({tick, 50125.5});
    b.series.push_back(chunk);
    RwSeriesChunk second;
    second.name = "rack1.power";
    second.samples.push_back({tick, 49000.25});
    b.series.push_back(second);
    return b;
}

/** Connect a raw client socket to a loopback receiver; -1 on error. */
int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send one wire frame and read back its ack line ("" on error). */
std::string
sendFrameForAck(int fd, const std::string &frame)
{
    if (::send(fd, frame.data(), frame.size(), 0) !=
        static_cast<ssize_t>(frame.size()))
        return "";
    std::string ack;
    char c = 0;
    while (ack.find('\n') == std::string::npos &&
           ::recv(fd, &c, 1, 0) == 1)
        ack.push_back(c);
    return ack;
}

/**
 * The pinned pad-rw-v1 pair: a batch whose samples cover the number
 * formatter's edge cases (both signs of zero, fixed/exponent form
 * switches, subnormals, the extremes, and a power of two whose
 * shortest digits do not round-trip at their own precision) and a
 * stats dump.
 */
std::vector<RwBatch>
goldenBatches()
{
    RwBatch batch;
    batch.source = "golden";
    batch.seq = 0;
    batch.tick = 86400000;
    RwSeriesChunk power;
    power.name = "pdu.power";
    const double values[] = {
        50125.5,         0.0,
        -0.0,            0.1,
        1.0 / 3.0,       0.1 + 0.2,
        1e-5,            1.25e-4,
        123456.0,        1e16,
        1e17,            9007199254740993.0,
        -2.5e-300,       DBL_MAX,
        -DBL_MAX,        DBL_MIN,
        DBL_TRUE_MIN,    std::ldexp(1.0, -1017),
        740.0625,        100.0,
    };
    Tick when = 86399000;
    for (const double v : values)
        power.samples.push_back({when += 50, v});
    batch.series.push_back(power);
    RwSeriesChunk soc;
    soc.name = "rack0.soc";
    soc.samples.push_back({86399500, 0.87654321});
    soc.samples.push_back({86400000, 0.8765432099999999});
    batch.series.push_back(soc);

    RwBatch stats;
    stats.type = "stats";
    stats.source = "golden";
    stats.seq = 1;
    stats.tick = 86400000;
    stats.scalars.emplace_back("attack.survival_sec", 1600.0);
    stats.scalars.emplace_back("deb.min_soc", 0.123456789012345678);
    stats.scalars.emplace_back("edge.neg_zero", -0.0);
    stats.scalars.emplace_back("edge.tiny", DBL_TRUE_MIN);
    stats.counters.emplace_back("attack.spikes_launched", 17);
    stats.counters.emplace_back("edge.two_pow_53", 9007199254740992ULL);
    return {batch, stats};
}

constexpr double kTwoPow63 = 9223372036854775808.0;
constexpr double kTwoPow64 = 18446744073709551616.0;

/**
 * The pad-rw-v1 parser as it was before the codec stopped building a
 * JSON tree: parseJson, then JsonValue::find for each field (so the
 * first of duplicate keys wins and unknown keys are only
 * syntax-checked), plus the range rule for every integer field. The
 * one-pass parser must accept exactly the lines this accepts, with
 * bit-equal results.
 */
std::optional<RwBatch>
referenceParse(std::string_view line)
{
    const auto doc = parseJson(line);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const auto inRange = [](const JsonValue *n, double lo, double hi) {
        return n && n->isNumber() && n->number >= lo && n->number < hi;
    };

    const JsonValue *v = doc->find("v");
    if (!v || !v->isNumber() || v->number != 1.0)
        return std::nullopt;
    RwBatch b;
    const JsonValue *type = doc->find("type");
    if (!type || !type->isString() ||
        (type->str != "batch" && type->str != "stats"))
        return std::nullopt;
    b.type = type->str;
    const JsonValue *source = doc->find("source");
    if (!source || !source->isString() || source->str.empty())
        return std::nullopt;
    b.source = source->str;
    const JsonValue *seq = doc->find("seq");
    if (!inRange(seq, 0.0, kTwoPow64))
        return std::nullopt;
    b.seq = static_cast<std::uint64_t>(seq->number);
    const JsonValue *tick = doc->find("tick");
    if (!inRange(tick, -kTwoPow63, kTwoPow63))
        return std::nullopt;
    b.tick = static_cast<Tick>(tick->number);

    if (b.type == "batch") {
        const JsonValue *series = doc->find("series");
        if (!series || !series->isArray())
            return std::nullopt;
        for (const JsonValue &entry : series->array) {
            const JsonValue *name =
                entry.isObject() ? entry.find("name") : nullptr;
            const JsonValue *samples =
                entry.isObject() ? entry.find("samples") : nullptr;
            if (!name || !name->isString() || name->str.empty() ||
                !samples || !samples->isArray())
                return std::nullopt;
            RwSeriesChunk chunk;
            chunk.name = name->str;
            for (const JsonValue &pair : samples->array) {
                if (!pair.isArray() || pair.array.size() != 2 ||
                    !inRange(&pair.array[0], -kTwoPow63, kTwoPow63) ||
                    !pair.array[1].isNumber())
                    return std::nullopt;
                chunk.samples.push_back(
                    Sample{static_cast<Tick>(pair.array[0].number),
                           pair.array[1].number});
            }
            b.series.push_back(std::move(chunk));
        }
    } else {
        const JsonValue *scalars = doc->find("scalars");
        const JsonValue *counters = doc->find("counters");
        if (!scalars || !scalars->isObject() || !counters ||
            !counters->isObject())
            return std::nullopt;
        for (const auto &[name, value] : scalars->members) {
            if (!value.isNumber())
                return std::nullopt;
            b.scalars.emplace_back(name, value.number);
        }
        for (const auto &[name, value] : counters->members) {
            if (!inRange(&value, 0.0, kTwoPow64))
                return std::nullopt;
            b.counters.emplace_back(
                name, static_cast<std::uint64_t>(value.number));
        }
    }
    return b;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Field-by-field equality, doubles compared bit for bit. */
::testing::AssertionResult
sameBatch(const RwBatch &a, const RwBatch &b)
{
    const auto differ = [](const std::string &what) {
        return ::testing::AssertionFailure() << what << " differs";
    };
    if (a.type != b.type || a.source != b.source)
        return differ("type or source");
    if (a.seq != b.seq || a.tick != b.tick)
        return differ("seq or tick");
    if (a.series.size() != b.series.size())
        return differ("series count");
    for (std::size_t c = 0; c < a.series.size(); ++c) {
        const auto &x = a.series[c];
        const auto &y = b.series[c];
        if (x.name != y.name || x.samples.size() != y.samples.size())
            return differ("series " + std::to_string(c));
        for (std::size_t k = 0; k < x.samples.size(); ++k)
            if (x.samples[k].when != y.samples[k].when ||
                !sameBits(x.samples[k].value, y.samples[k].value))
                return differ("series " + x.name + " sample " +
                              std::to_string(k));
    }
    if (a.scalars.size() != b.scalars.size())
        return differ("scalar count");
    for (std::size_t k = 0; k < a.scalars.size(); ++k)
        if (a.scalars[k].first != b.scalars[k].first ||
            !sameBits(a.scalars[k].second, b.scalars[k].second))
            return differ("scalar " + a.scalars[k].first);
    if (a.counters != b.counters)
        return differ("counters");
    return ::testing::AssertionSuccess();
}

/** "2^64 + n" in decimal, for length prefixes that wrap a size_t. */
std::string
twoPow64Plus(unsigned n)
{
    EXPECT_LT(n, 384u);
    return "18446744073709551" + std::to_string(616 + n);
}

} // namespace

// ---------------------------------------------------------------------
// pad-rw-v1 codec
// ---------------------------------------------------------------------

TEST(RwCodec, BatchLineRoundTrip)
{
    const RwBatch b = sampleBatch("nodeA", 7, 123000);
    const std::string line = renderRwBatchLine(b);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::string error;
    const auto back = parseRwBatchLine(line, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->type, "batch");
    EXPECT_EQ(back->source, "nodeA");
    EXPECT_EQ(back->seq, 7u);
    EXPECT_EQ(back->tick, 123000);
    ASSERT_EQ(back->series.size(), 2u);
    EXPECT_EQ(back->series[0].name, "rack0.power");
    ASSERT_EQ(back->series[0].samples.size(), 2u);
    EXPECT_EQ(back->series[0].samples[0].when, 122000);
    EXPECT_DOUBLE_EQ(back->series[0].samples[1].value, 50125.5);
    EXPECT_EQ(back->sampleCount(), 3u);

    // A second render of the parsed batch is byte-identical: the
    // codec is canonical, which the replay determinism tests rely on.
    EXPECT_EQ(renderRwBatchLine(*back), line);
}

TEST(RwCodec, StatsLineRoundTrip)
{
    RwBatch b;
    b.type = "stats";
    b.source = "padd";
    b.seq = 42;
    b.tick = 9000;
    b.scalars.emplace_back("attack.survival_sec", 123.5);
    b.scalars.emplace_back("deb.min_soc", 0.25);
    b.counters.emplace_back("detector.flags", 17);

    std::string error;
    const auto back = parseRwBatchLine(renderRwBatchLine(b), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->type, "stats");
    ASSERT_EQ(back->scalars.size(), 2u);
    EXPECT_EQ(back->scalars[0].first, "attack.survival_sec");
    EXPECT_DOUBLE_EQ(back->scalars[1].second, 0.25);
    ASSERT_EQ(back->counters.size(), 1u);
    EXPECT_EQ(back->counters[0].second, 17u);
    EXPECT_EQ(back->sampleCount(), 0u);
}

TEST(RwCodec, ParserRejectsMalformedLines)
{
    const char *cases[] = {
        "not json at all",
        "{}",
        "{\"v\":2,\"type\":\"batch\",\"source\":\"a\",\"seq\":0,"
        "\"tick\":0}",
        "{\"v\":1,\"type\":\"frob\",\"source\":\"a\",\"seq\":0,"
        "\"tick\":0}",
        "{\"v\":1,\"type\":\"batch\",\"source\":\"\",\"seq\":0,"
        "\"tick\":0}",
        "{\"v\":1,\"type\":\"batch\",\"source\":\"a\",\"seq\":-1,"
        "\"tick\":0}",
        "{\"v\":1,\"type\":\"batch\",\"source\":\"a\",\"seq\":0,"
        "\"tick\":0,\"series\":[{\"name\":\"x\","
        "\"samples\":[[1]]}]}",
    };
    for (const char *bad : cases) {
        std::string error;
        EXPECT_FALSE(parseRwBatchLine(bad, &error).has_value())
            << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// Pinned pad-rw-v1 bytes for goldenBatches(): any change to them is
// a wire format change, which receivers and spool files depend on.
constexpr const char *kGoldenBatchLine =
    "{\"v\":1,\"type\":\"batch\",\"source\":\"golden\","
    "\"seq\":0,\"tick\":86400000,"
    "\"series\":[{\"name\":\"pdu.power\",\"samples\":[[86399050,50125.5],"
    "[86399100,0],[86399150,-0],[86399200,0.1],[86399250,"
    "0.3333333333333333],[86399300,0.30000000000000004],[86399350,"
    "1e-05],[86399400,0.000125],[86399450,123456],[86399500,1e+16],"
    "[86399550,1e+17],[86399600,9007199254740992],[86399650,"
    "-2.5e-300],[86399700,1.7976931348623157e+308],[86399750,"
    "-1.7976931348623157e+308],[86399800,2.2250738585072014e-308],"
    "[86399850,5e-324],[86399900,7.1202363472230444e-307],[86399950,"
    "740.0625],[86400000,1e+02]]},{\"name\":\"rack0.soc\","
    "\"samples\":[[86399500,0.87654321],[86400000,"
    "0.8765432099999999]]}]}";
constexpr const char *kGoldenStatsLine =
    "{\"v\":1,\"type\":\"stats\",\"source\":\"golden\","
    "\"seq\":1,\"tick\":86400000,"
    "\"scalars\":{\"attack.survival_sec\":1.6e+03,"
    "\"deb.min_soc\":0.12345678901234568,\"edge.neg_zero\":-0,"
    "\"edge.tiny\":5e-324},\"counters\":{\"attack.spikes_launched\":17,"
    "\"edge.two_pow_53\":9007199254740992}}";
constexpr const char *kGoldenDump =
    "pad-rx-dump v1\n"
    "source golden last_seq 1\n"
    "series fleet.golden.pdu.power count 20 min "
    "-1.7976931348623157e+308 max 1.7976931348623157e+308 mean "
    "42.003125 last_tick 86400000 last_value 1e+02\n"
    "series fleet.golden.rack0.soc count 2 min 0.8765432099999999 "
    "max 0.87654321 mean 0.8765432099999999 last_tick 86400000 "
    "last_value 0.8765432099999999\n"
    "scalar fleet.golden.attack.survival_sec 1.6e+03\n"
    "scalar fleet.golden.deb.min_soc 0.12345678901234568\n"
    "scalar fleet.golden.edge.neg_zero -0\n"
    "scalar fleet.golden.edge.tiny 5e-324\n"
    "counter fleet.golden.attack.spikes_launched 17\n"
    "counter fleet.golden.edge.two_pow_53 9007199254740992\n";

TEST(RwCodec, GoldenWireBytesAndBitExactRoundTrip)
{
    const std::vector<RwBatch> batches = goldenBatches();
    const std::string golden[] = {kGoldenBatchLine, kGoldenStatsLine};
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::string line = renderRwBatchLine(batches[i]);
        EXPECT_EQ(line, golden[i]);

        std::string error;
        const auto back = parseRwBatchLine(line, &error);
        ASSERT_TRUE(back.has_value()) << error;
        ASSERT_EQ(back->series.size(), batches[i].series.size());
        for (std::size_t c = 0; c < back->series.size(); ++c) {
            const auto &want = batches[i].series[c].samples;
            const auto &got = back->series[c].samples;
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].when, want[k].when);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].value),
                          std::bit_cast<std::uint64_t>(want[k].value))
                    << batches[i].series[c].name << "[" << k << "]";
            }
        }
        ASSERT_EQ(back->scalars.size(), batches[i].scalars.size());
        for (std::size_t k = 0; k < back->scalars.size(); ++k)
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(back->scalars[k].second),
                std::bit_cast<std::uint64_t>(
                    batches[i].scalars[k].second))
                << back->scalars[k].first;
        EXPECT_EQ(back->counters, batches[i].counters);
        EXPECT_EQ(renderRwBatchLine(*back), line);
    }
}

TEST(RemoteWrite, GoldenReceiverDump)
{
    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;
    const int fd = connectLoopback(rx.port());
    ASSERT_GE(fd, 0);
    for (const RwBatch &b : goldenBatches()) {
        const std::string ack =
            sendFrameForAck(fd, frameRwLine(renderRwBatchLine(b)));
        EXPECT_NE(ack.find("\"ok\":true"), std::string::npos) << ack;
    }
    ::close(fd);
    EXPECT_TRUE(
        eventually([&] { return rx.counters().statsBatches == 1; }));
    rx.stop();
    EXPECT_EQ(rx.dumpMerged(), kGoldenDump);
}

TEST(RwCodec, ValidatesFramedAndBareStreams)
{
    const std::string l0 =
        renderRwBatchLine(sampleBatch("a", 0, 1000));
    const std::string l1 =
        renderRwBatchLine(sampleBatch("a", 1, 2000));
    const std::string l2 =
        renderRwBatchLine(sampleBatch("b", 0, 1500));

    // Framed wire capture.
    std::string error;
    RwStreamInfo info;
    ASSERT_TRUE(validateRwStream(
        frameRwLine(l0) + frameRwLine(l1) + frameRwLine(l2), &error,
        &info))
        << error;
    EXPECT_TRUE(info.framed);
    EXPECT_EQ(info.batches, 3u);
    EXPECT_EQ(info.samples, 9u);
    ASSERT_EQ(info.sources.size(), 2u);
    EXPECT_EQ(info.sources[0], "a");
    EXPECT_EQ(info.firstTick, 1000);
    EXPECT_EQ(info.lastTick, 1500); // stream order, not the max
    EXPECT_FALSE(info.truncatedTail);

    // Bare JSONL spool.
    RwStreamInfo bare;
    ASSERT_TRUE(validateRwStream(l0 + "\n" + l1 + "\n", &error, &bare))
        << error;
    EXPECT_FALSE(bare.framed);
    EXPECT_EQ(bare.batches, 2u);

    // A crash-cut tail — half a record, no terminator — is reported
    // but tolerated, in both formats.
    RwStreamInfo cut;
    ASSERT_TRUE(validateRwStream(
        l0 + "\n" + l1.substr(0, l1.size() / 2), &error, &cut))
        << error;
    EXPECT_TRUE(cut.truncatedTail);
    EXPECT_EQ(cut.batches, 1u);
    RwStreamInfo cutFramed;
    ASSERT_TRUE(validateRwStream(
        frameRwLine(l0) + frameRwLine(l1).substr(0, 8), &error,
        &cutFramed))
        << error;
    EXPECT_TRUE(cutFramed.truncatedTail);

    // Sequence regressions and gaps are hard errors: a stream that
    // validates must merge without duplicates.
    EXPECT_FALSE(validateRwStream(l1 + "\n" + l0 + "\n", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(validateRwStream(l0 + "\n" + l0 + "\n", &error));
    // A corrupt record in the *middle* is a hard error, not a
    // tolerated tail.
    EXPECT_FALSE(
        validateRwStream(l0.substr(4) + "\n" + l1 + "\n", &error));
}

TEST(RwCodec, ParseHostPortValidation)
{
    std::string error;
    const auto ok = parseHostPort("localhost:9009", &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(ok->first, "localhost");
    EXPECT_EQ(ok->second, 9009);

    for (const char *bad : {"", "nohost", ":123", "host:", "host:0",
                            "host:65536", "host:abc"}) {
        error.clear();
        EXPECT_FALSE(parseHostPort(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(RwCodec, RejectsNonFiniteAndOutOfRangeIntegers)
{
    // Each integer field is cast from a JSON number; a value outside
    // the target type's range must be rejected before the cast.
    const std::string head = "{\"v\":1,\"type\":\"batch\",\"source\":\"a\",";
    const std::string stats = "{\"v\":1,\"type\":\"stats\",\"source\":\"a\","
                              "\"seq\":0,\"tick\":0,\"scalars\":{},";
    const std::string bad[] = {
        head + "\"seq\":1e999,\"tick\":0,\"series\":[]}",
        head + "\"seq\":18446744073709551616,\"tick\":0,\"series\":[]}",
        head + "\"seq\":1e20,\"tick\":0,\"series\":[]}",
        head + "\"seq\":0,\"tick\":1e300,\"series\":[]}",
        head + "\"seq\":0,\"tick\":-1e999,\"series\":[]}",
        head + "\"seq\":0,\"tick\":9223372036854775808,\"series\":[]}",
        head + "\"seq\":0,\"tick\":-9.3e18,\"series\":[]}",
        head + "\"seq\":0,\"tick\":0,\"series\":[{\"name\":\"x\","
               "\"samples\":[[1e300,1]]}]}",
        head + "\"seq\":0,\"tick\":0,\"series\":[{\"name\":\"x\","
               "\"samples\":[[-1e999,1]]}]}",
        stats + "\"counters\":{\"c\":1e999}}",
        stats + "\"counters\":{\"c\":18446744073709551616}}",
    };
    for (const std::string &line : bad) {
        std::string error;
        EXPECT_FALSE(parseRwBatchLine(line, &error).has_value()) << line;
        EXPECT_FALSE(error.empty()) << line;
        EXPECT_FALSE(referenceParse(line).has_value()) << line;
    }

    // The largest in-range values still parse; values stay doubles.
    const std::string edge =
        head + "\"seq\":18446744073709549568,"
               "\"tick\":-9223372036854775808,\"series\":[{\"name\":"
               "\"x\",\"samples\":[[9223372036854774784,1e999]]}]}";
    std::string error;
    const auto b = parseRwBatchLine(edge, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->seq, 18446744073709549568ULL);
    EXPECT_EQ(b->tick, std::numeric_limits<Tick>::min());
    EXPECT_EQ(b->series[0].samples[0].when, 9223372036854774784LL);
    EXPECT_EQ(b->series[0].samples[0].value, HUGE_VAL);
}

TEST(RwCodec, ValidateRejectsOutOfRangeSeqAndTick)
{
    std::string error;
    EXPECT_FALSE(validateRwStream(
        "{\"v\":1,\"type\":\"batch\",\"source\":\"a\",\"seq\":1e999,"
        "\"tick\":0,\"series\":[]}\n",
        &error));
    EXPECT_NE(error.find("record 1"), std::string::npos) << error;
    EXPECT_FALSE(validateRwStream(
        "{\"v\":1,\"type\":\"batch\",\"source\":\"a\",\"seq\":0,"
        "\"tick\":1e300,\"series\":[]}\n",
        &error));
}

TEST(RwCodec, AcceptsAnyKeyOrderDuplicatesAndForeignKeys)
{
    const RwBatch want = sampleBatch("a", 3, 5000);
    const std::string series =
        "[{\"samples\":[[4000,50000],[5000,50125.5]],\"name\":"
        "\"rack0.power\",\"extra\":{\"deep\":[1,[2]]}},{\"name\":"
        "\"rack1.power\",\"samples\":[[5000,49000.25]],\"samples\":7}]";
    const std::string lines[] = {
        // Sections before "type", fields in reverse order.
        "{\"series\":" + series + ",\"tick\":5000,\"seq\":3,"
        "\"source\":\"a\",\"type\":\"batch\",\"v\":1}",
        // Duplicates: the first wins, later ones are only checked as
        // JSON; foreign keys and the other type's sections likewise.
        " {\"v\":1.0,\"v\":\"two\",\"type\":\"batch\",\"type\":\"stats\","
        "\"source\":\"\\u0061\",\"source\":\"\",\"seq\":3,\"seq\":-1,"
        "\"tick\":5000,\"tick\":1e999,\"scalars\":\"ignored\","
        "\"counters\":[true,false,null],\"series\":" + series +
        ",\"series\":{},\"x\":{}} \n",
    };
    for (const std::string &line : lines) {
        std::string error;
        const auto got = parseRwBatchLine(line, &error);
        ASSERT_TRUE(got.has_value()) << error << "\n" << line;
        EXPECT_TRUE(sameBatch(*got, want)) << line;
        const auto ref = referenceParse(line);
        ASSERT_TRUE(ref.has_value()) << line;
        EXPECT_TRUE(sameBatch(*got, *ref)) << line;
    }

    // A stats dump ignores a malformed "series" in either position.
    for (const std::string &line :
         {std::string("{\"series\":[1],\"v\":1,\"type\":\"stats\","
                      "\"source\":\"s\",\"seq\":0,\"tick\":0,"
                      "\"counters\":{\"c\":2},\"scalars\":{\"x\":0.5,"
                      "\"x\":-0}}"),
          std::string("{\"v\":1,\"type\":\"stats\",\"source\":\"s\","
                      "\"seq\":0,\"tick\":0,\"series\":[1],"
                      "\"scalars\":{\"x\":0.5,\"x\":-0},"
                      "\"counters\":{\"c\":2}}")}) {
        std::string error;
        const auto got = parseRwBatchLine(line, &error);
        ASSERT_TRUE(got.has_value()) << error << "\n" << line;
        ASSERT_EQ(got->scalars.size(), 2u); // duplicates inside stay
        EXPECT_TRUE(std::signbit(got->scalars[1].second));
        EXPECT_TRUE(sameBatch(*got, *referenceParse(line)));
    }
    // ...but a batch does not ignore a malformed first "series".
    EXPECT_FALSE(parseRwBatchLine(
                     "{\"series\":[1],\"series\":[],\"v\":1,\"type\":"
                     "\"batch\",\"source\":\"s\",\"seq\":0,\"tick\":0}")
                     .has_value());
}

namespace {

/** Bytes a mutation inserts: JSON structure, digits and junk. */
constexpr std::string_view kMutationBytes =
    "{}[]\",:\\ \t\n0123456789-+.eEtrufalsn\x01\x7f\xc3";

/** Numbers spliced over sample, seq and tick values. */
constexpr double kHostileNumbers[] = {
    1e300, -1e300, HUGE_VAL, -HUGE_VAL, kTwoPow63, -kTwoPow63,
    kTwoPow64, -0.0, 0.5, 1.0, -1.0, 1e-320};

/** Keys a mutation adds: real field names and foreign ones. */
constexpr const char *kMutationKeys[] = {
    "v", "type", "source", "seq", "tick", "series", "scalars",
    "counters", "name", "samples", "zz", "v\\u0000", "\\u0074ype"};

/** Every node of @p v, pre-order. */
void
collectNodes(JsonValue &v, std::vector<JsonValue *> &out)
{
    out.push_back(&v);
    for (JsonValue &e : v.array)
        collectNodes(e, out);
    for (auto &[key, member] : v.members)
        collectNodes(member, out);
}

/** Serialize @p v; with @p spaces, sprinkle JSON whitespace. */
void
emitJson(const JsonValue &v, std::string &out, CounterRng &rng,
         bool spaces)
{
    const auto ws = [&] {
        if (spaces && rng.next() % 3 == 0)
            out += " \t\n\r"[rng.next() % 4];
    };
    ws();
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        if (std::isinf(v.number))
            out += v.number > 0 ? "1e999" : "-1e999";
        else
            out += JsonWriter::formatDouble(v.number);
        break;
      case JsonValue::Kind::String:
        out += '"' + JsonWriter::escape(v.str) + '"';
        break;
      case JsonValue::Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i > 0)
                out += ',';
            emitJson(v.array[i], out, rng, spaces);
        }
        ws();
        out += ']';
        break;
      case JsonValue::Kind::Object:
        out += '{';
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i > 0)
                out += ',';
            ws();
            // Keys are emitted raw so escaped names stay escaped.
            out += '"' + v.members[i].first + '"';
            ws();
            out += ':';
            emitJson(v.members[i].second, out, rng, spaces);
        }
        ws();
        out += '}';
        break;
    }
    ws();
}

/** A random small value: scalars of each kind, or a copy of @p like. */
JsonValue
randomValue(CounterRng &rng, const JsonValue &like)
{
    JsonValue v;
    switch (rng.next() % 6) {
      case 0:
        v.kind = JsonValue::Kind::Number;
        v.number = kHostileNumbers[rng.next() % std::size(kHostileNumbers)];
        break;
      case 1:
        v.kind = JsonValue::Kind::String;
        v.str = rng.next() % 2 ? "batch" : "";
        break;
      case 2:
        v.kind = JsonValue::Kind::Array;
        break;
      case 3:
        v.kind = JsonValue::Kind::Object;
        break;
      case 4:
        v.kind = JsonValue::Kind::Bool;
        break;
      default:
        v = like;
    }
    return v;
}

/** One structural mutation of @p doc: permute, duplicate, add, splice. */
void
mutateTree(JsonValue &doc, CounterRng &rng)
{
    std::vector<JsonValue *> nodes;
    collectNodes(doc, nodes);
    std::vector<JsonValue *> objects, numbers;
    for (JsonValue *n : nodes) {
        if (n->isObject() && !n->members.empty())
            objects.push_back(n);
        if (n->isNumber())
            numbers.push_back(n);
    }
    const int op = static_cast<int>(rng.next() % 4);
    if (op == 3 && !numbers.empty()) {
        numbers[rng.next() % numbers.size()]->number =
            kHostileNumbers[rng.next() % std::size(kHostileNumbers)];
        return;
    }
    if (objects.empty())
        return;
    auto &members = objects[rng.next() % objects.size()]->members;
    const std::size_t i = rng.next() % members.size();
    const std::size_t at = rng.next() % (members.size() + 1);
    if (op == 0) {
        std::shuffle(members.begin(), members.end(), rng);
    } else if (op == 1) {
        auto copy = members[i];
        if (rng.next() % 2)
            copy.second = randomValue(rng, members[i].second);
        members.insert(members.begin() + static_cast<std::ptrdiff_t>(at),
                       std::move(copy));
    } else {
        members.insert(
            members.begin() + static_cast<std::ptrdiff_t>(at),
            {kMutationKeys[rng.next() % std::size(kMutationKeys)],
             randomValue(rng, members[i].second)});
    }
}

/** One byte-level mutation: flip, insert, delete or truncate. */
void
mutateBytes(std::string &text, CounterRng &rng)
{
    if (text.empty())
        return;
    const std::size_t at = rng.next() % text.size();
    switch (rng.next() % 4) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << (rng.next() % 8)));
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kMutationBytes[rng.next() % kMutationBytes.size()]);
        break;
      case 2:
        text.erase(at, 1 + rng.next() % 3);
        break;
      default:
        text.resize(at);
    }
}

} // namespace

TEST(RwCodec, MutatedLinesParseLikeTheReferenceParser)
{
    // Corpus: the golden pair plus a rendered snapshot of a small hub.
    TelemetryHub hub;
    for (int t = 0; t < 4; ++t) {
        hub.record("rack0.power", t * 1000, 50000.0 + t * 0.1);
        hub.record("rack1.soc", t * 1000, 1.0 - t / 3.0);
    }
    RwBatch snap;
    snap.source = "fuzz";
    snap.seq = 9;
    snap.tick = 3000;
    for (const auto &s : hub.rawSnapshot())
        snap.series.push_back({s.name, s.raw});
    const std::string corpus[] = {kGoldenBatchLine, kGoldenStatsLine,
                                  renderRwBatchLine(snap)};

    // Every failure replays from (seed, iteration) alone.
    constexpr std::uint64_t kSeed = 0x5eed19;
    constexpr std::uint64_t kIterations = 24000;
    const CounterRng root(kSeed);
    std::uint64_t accepted = 0;
    for (std::uint64_t it = 0; it < kIterations; ++it) {
        CounterRng rng = root.split(it);
        std::string text = corpus[rng.next() % std::size(corpus)];
        if (rng.next() % 4 != 0) {
            auto doc = parseJson(text);
            ASSERT_TRUE(doc.has_value());
            const int edits = 1 + static_cast<int>(rng.next() % 2);
            for (int e = 0; e < edits; ++e)
                mutateTree(*doc, rng);
            text.clear();
            emitJson(*doc, text, rng, rng.next() % 2 == 0);
        }
        const int flips = static_cast<int>(rng.next() % 3);
        for (int f = 0; f < flips; ++f)
            mutateBytes(text, rng);

        const auto want = referenceParse(text);
        std::string error;
        const auto got = parseRwBatchLine(text, &error);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed " << kSeed << " iteration " << it << ": " << error
            << "\n" << text;
        if (got) {
            ++accepted;
            ASSERT_TRUE(sameBatch(*got, *want))
                << "seed " << kSeed << " iteration " << it << "\n" << text;
        } else {
            ASSERT_FALSE(error.empty());
        }
    }
    // Both outcomes must be well represented, or the corpus has
    // drifted away from the parser's interesting edges.
    EXPECT_GT(accepted, kIterations / 10);
    EXPECT_LT(accepted, kIterations * 9 / 10);
}

TEST(RwCodec, FrameHeaderParserCapsTheLength)
{
    using Status = RwFrameHeader::Status;
    const auto status = [](std::string_view buf) {
        return parseRwFrameHeader(buf).status;
    };
    EXPECT_EQ(status(""), Status::Incomplete);
    EXPECT_EQ(status("pad-r"), Status::Incomplete);
    EXPECT_EQ(status("pad-rw-v1 1234"), Status::Incomplete);
    EXPECT_EQ(status("pad-rw-v1 16777216\n"), Status::Ok);
    EXPECT_EQ(parseRwFrameHeader("pad-rw-v1 42\nxyz").headerBytes, 13u);
    EXPECT_EQ(parseRwFrameHeader("pad-rw-v1 42\nxyz").payloadBytes, 42u);
    for (const std::string bad :
         {"pad-rx", "pad\n", "pad-rw-v1 \n", "pad-rw-v1 0\n",
          "pad-rw-v1 12x", "pad-rw-v1 -1\n", "pad-rw-v1 16777217\n",
          "pad-rw-v1 123456789", "pad-rw-v1 000000001\n"}) {
        const RwFrameHeader h = parseRwFrameHeader(bad);
        EXPECT_EQ(h.status, Status::Bad) << bad;
        EXPECT_NE(std::string(h.error), "") << bad;
    }
    // A length that would wrap a size_t back to a small number.
    EXPECT_EQ(status("pad-rw-v1 " + twoPow64Plus(66) + "\n"), Status::Bad);
}

TEST(RwCodec, ValidateRejectsWrappingFrameLength)
{
    // 2^64 + N: a size_t accumulator wraps to exactly N, the size of
    // the record that follows, and the stream would look valid.
    const std::string line = renderRwBatchLine(sampleBatch("a", 0, 1000));
    const std::string wrapped = "pad-rw-v1 " +
                                twoPow64Plus(static_cast<unsigned>(
                                    line.size() + 1)) +
                                "\n" + line + "\n";
    std::string error;
    EXPECT_FALSE(validateRwStream(wrapped, &error));
    EXPECT_NE(error.find("bad frame length"), std::string::npos) << error;
    // The same record with its true length validates.
    EXPECT_TRUE(validateRwStream(frameRwLine(line), &error)) << error;
}

// ---------------------------------------------------------------------
// Shipper <-> receiver happy path
// ---------------------------------------------------------------------

TEST(RemoteWrite, ShipsToReceiverAndMerges)
{
    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;

    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = rx.port();
    opts.source = "padd0";
    opts.intervalS = 1.0;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;

    // Two interval snapshots plus the final flush.
    hub.record("rack0.power", 100, 51000.0);
    hub.record("rack0.soc", 100, 0.99);
    shipper.observe(100); // anchors the interval clock
    hub.record("rack0.power", 600, 52000.0);
    shipper.observe(600); // within the interval: no batch
    hub.record("rack0.power", 1200, 53000.0);
    shipper.observe(1200); // interval elapsed: batch 0
    hub.record("rack0.soc", 1800, 0.97);

    sim::StatsRegistry stats;
    stats.registerScalar("attack.survival_sec", "t").set(42.5);
    stats.registerCounter("detector.flags", "n").add(3);
    shipper.finish(2000, &stats);

    const auto sc = shipper.counters();
    EXPECT_EQ(sc.batchesDropped, 0u);
    EXPECT_EQ(sc.samplesLost, 0u);
    EXPECT_EQ(sc.batchesSent, sc.batchesEnqueued);
    EXPECT_EQ(sc.samplesShipped, 5u);
    EXPECT_GE(sc.reconnects, 1u);

    // finish() drains stop-and-wait, so once it returns the receiver
    // has merged (ack follows merge) — no polling needed.
    const auto rc = rx.counters();
    EXPECT_EQ(rc.samples, 5u);
    EXPECT_EQ(rc.statsBatches, 1u);
    EXPECT_EQ(rc.duplicates, 0u);
    EXPECT_EQ(rc.protocolErrors, 0u);
    EXPECT_EQ(rx.sourceCount(), 1u);
    EXPECT_EQ(rx.maxTick(), 2000);

    const std::string dump = rx.dumpMerged();
    EXPECT_NE(dump.find("series fleet.padd0.rack0.power count 3"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("series fleet.padd0.rack0.soc count 2"),
              std::string::npos);
    EXPECT_NE(dump.find("scalar fleet.padd0.attack.survival_sec"),
              std::string::npos);
    EXPECT_NE(dump.find("counter fleet.padd0.detector.flags 3"),
              std::string::npos);

    // The aggregate exposition passes the in-tree grammar check and
    // carries the receiver self-metrics.
    const std::string metrics = rx.renderMetrics();
    EXPECT_TRUE(validatePromExposition(metrics, &error)) << error;
    EXPECT_NE(metrics.find("pad_rx_sources 1"), std::string::npos);
    EXPECT_NE(metrics.find(
                  "pad_series_last{series=\"fleet.padd0.rack0.power\"}"),
              std::string::npos);

    rx.stop();

    // The shipper's self-metric exposition is grammar-clean too.
    EXPECT_TRUE(validatePromExposition(
        RemoteWriteShipper::renderPromCounters(sc), &error))
        << error;
    EXPECT_NE(RemoteWriteShipper::renderPromCounters(sc).find(
                  "pad_rw_dropped_total 0"),
              std::string::npos);
}

TEST(RemoteWrite, ReceiverSkipsButAcksDuplicateSeq)
{
    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;

    const int fd = connectLoopback(rx.port());
    ASSERT_GE(fd, 0);

    // The same frame twice — a resend after a lost ack. Both must be
    // acked, the second skipped.
    const std::string frame =
        frameRwLine(renderRwBatchLine(sampleBatch("dup", 0, 5000)));
    for (int round = 0; round < 2; ++round) {
        const std::string ack = sendFrameForAck(fd, frame);
        EXPECT_NE(ack.find("\"ok\":true"), std::string::npos) << ack;
        EXPECT_NE(ack.find("\"seq\":0"), std::string::npos) << ack;
    }
    ::close(fd);

    EXPECT_TRUE(eventually([&] { return rx.counters().batches == 1; }));
    EXPECT_EQ(rx.counters().duplicates, 1u);
    EXPECT_EQ(rx.counters().samples, 3u);
    rx.stop();
}

TEST(RemoteWrite, ReceiverDropsWrappingFrameLength)
{
    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;
    const int fd = connectLoopback(rx.port());
    ASSERT_GE(fd, 0);

    // 2^64 + N wraps a size_t to N, the true size of the record that
    // follows; the receiver must drop the connection, not merge it.
    const std::string line =
        renderRwBatchLine(sampleBatch("wrap", 0, 1000));
    const std::string frame =
        "pad-rw-v1 " +
        twoPow64Plus(static_cast<unsigned>(line.size() + 1)) + "\n" +
        line + "\n";
    EXPECT_EQ(sendFrameForAck(fd, frame).find("\"ok\":true"),
              std::string::npos);
    ::close(fd);
    EXPECT_TRUE(
        eventually([&] { return rx.counters().protocolErrors == 1; }));
    EXPECT_EQ(rx.counters().batches, 0u);
    EXPECT_EQ(rx.sourceCount(), 0u);
    rx.stop();
}

// ---------------------------------------------------------------------
// Failure envelope
// ---------------------------------------------------------------------

TEST(RemoteWrite, ReceiverNeverUpStaysBoundedAndCountsDrops)
{
    // Grab a port that is definitely closed: bind, resolve, close.
    ReceiverServer probe(0);
    std::string error;
    ASSERT_TRUE(probe.start(&error)) << error;
    const int deadPort = probe.port();
    probe.stop();

    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = deadPort;
    opts.source = "lonely";
    opts.queueLimit = 2; // tiny on purpose: force the drop policy
    opts.drainDeadlineS = 0.2;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 5;
    opts.ackTimeoutMs = 50;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;

    shipper.observe(0);
    for (int i = 1; i <= 6; ++i) {
        hub.record("rack0.power", i * 1000, 50000.0 + i);
        shipper.snapshotNow(i * 1000);
    }

    const auto start = std::chrono::steady_clock::now();
    shipper.finish(7000);
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    // The drain deadline is hard: a dead receiver cannot stall
    // shutdown (generous margin for slow CI machines).
    EXPECT_LT(waited, 3.0);

    const auto c = shipper.counters();
    // batchesEnqueued counts batches the bounded queue accepted.
    // With the receiver down and queueLimit 2 the first two fit; the
    // sender may additionally pop one into flight (where it retries
    // until the hard stop), freeing exactly one more slot.
    EXPECT_GE(c.batchesEnqueued, 2u);
    EXPECT_LE(c.batchesEnqueued, 3u);
    EXPECT_EQ(c.batchesSent, 0u);
    EXPECT_EQ(c.batchesSpooled, 0u);
    // Every batch is accounted for: what the bounded queue shed plus
    // what the deadline abandoned equals the six cut.
    EXPECT_EQ(c.batchesDropped, 6u);
    EXPECT_GE(c.sendFailures, 1u);
}

TEST(RemoteWrite, FullQueueDefersIntervalCutsInsteadOfDropping)
{
    // A sim running faster than its peer acknowledges fills the
    // queue; observe() then leaves the samples in the hub ring, and
    // the first cut after the queue drains carries all of them.
    ReceiverServer probe(0);
    std::string error;
    ASSERT_TRUE(probe.start(&error)) << error;
    const int port = probe.port();
    probe.stop();

    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = port;
    opts.source = "eager";
    opts.intervalS = 1.0;
    opts.queueLimit = 2;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 5;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;

    shipper.observe(0);
    for (int i = 1; i <= 6; ++i) {
        hub.record("rack0.power", i * kTicksPerSecond, 50000.0 + i);
        shipper.observe(i * kTicksPerSecond);
    }
    // One batch in flight at most, two queued; the rest never cut.
    EXPECT_LE(shipper.counters().batchesEnqueued, 3u);
    EXPECT_EQ(shipper.counters().batchesDropped, 0u);

    ReceiverServer rx(port);
    ASSERT_TRUE(rx.start(&error)) << error;
    const auto enqueued = shipper.counters().batchesEnqueued;
    ASSERT_TRUE(eventually(
        [&] { return shipper.counters().batchesSent == enqueued; }));
    hub.record("rack0.power", 7 * kTicksPerSecond, 50007.0);
    shipper.observe(7 * kTicksPerSecond);
    shipper.finish(7 * kTicksPerSecond);

    EXPECT_EQ(shipper.counters().batchesDropped, 0u);
    EXPECT_EQ(shipper.counters().samplesLost, 0u);
    EXPECT_EQ(rx.counters().samples, 7u);
    rx.stop();
}

TEST(RemoteWrite, CutsShipTheSamplesPastEachCursorOnly)
{
    // Every cut must ship exactly the bytes the whole-ring cut did:
    // each series' samples past its cursor, sorted by name, evicted
    // ones counted as lost. The reference re-derives each batch from
    // rawSnapshot() and per-name cursors before the shipper cuts.
    const test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const std::string spool = tmp.path("spool");
    ReceiverServer probe(0);
    std::string error;
    ASSERT_TRUE(probe.start(&error)) << error;
    const int deadPort = probe.port();
    probe.stop();

    TimeSeriesOptions ring;
    ring.rawCapacity = 8;
    TelemetryHub hub(ring);
    RemoteWriteOptions opts;
    opts.port = deadPort;
    opts.source = "tail";
    opts.spoolDir = spool;
    opts.queueLimit = 64;
    opts.drainDeadlineS = 0.2;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 5;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;
    shipper.observe(0);

    std::map<std::string, std::uint64_t> refCursor;
    std::vector<std::string> expected;
    std::uint64_t expectedLost = 0;
    const char *names[] = {"zeta", "rack1.power", "alpha", "rack0.soc"};
    for (int cut = 1; cut <= 12; ++cut) {
        // Uneven fill: some series idle, some overflow the 8-slot ring.
        for (int k = 0; k < 4; ++k)
            for (int i = 0; i < (cut * (k + 1)) % 11; ++i)
                hub.record(names[k], cut * 1000 + i, cut + 0.25 * i + k);
        RwBatch b;
        b.source = "tail";
        b.seq = expected.size();
        b.tick = cut * 1000;
        for (TelemetryHub::RawSeries &s : hub.rawSnapshot()) {
            std::uint64_t &cursor = refCursor[s.name];
            const std::uint64_t fresh = s.totalSamples - cursor;
            if (fresh == 0)
                continue;
            cursor = s.totalSamples;
            const auto take = static_cast<std::size_t>(
                std::min<std::uint64_t>(fresh, s.raw.size()));
            expectedLost += fresh - take;
            b.series.push_back(RwSeriesChunk{
                s.name, std::vector<Sample>(s.raw.end() - take,
                                            s.raw.end())});
        }
        if (!b.series.empty())
            expected.push_back(renderRwBatchLine(b));
        shipper.snapshotNow(cut * 1000);
    }
    ASSERT_GT(expectedLost, 0u);
    ASSERT_TRUE(eventually([&] {
        return shipper.counters().batchesSpooled == expected.size();
    }));
    EXPECT_EQ(shipper.counters().samplesLost, expectedLost);

    std::vector<std::string> shipped;
    for (const std::string &f : spoolListing(spool)) {
        std::istringstream in(slurp(spool + "/" + f));
        for (std::string line; std::getline(in, line);)
            shipped.push_back(line);
    }
    // The sender spools in queue order, which is seq order.
    EXPECT_EQ(shipped, expected);
    shipper.finish(13000);
}

TEST(RemoteWrite, SpoolsAcrossOutageAndReplaysInOrder)
{
    const test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const std::string spool = tmp.path("spool");

    // Phase 1: receiver up; first batch delivered live.
    auto rx = std::make_unique<ReceiverServer>(0);
    std::string error;
    ASSERT_TRUE(rx->start(&error)) << error;
    const int port = rx->port();

    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = port;
    opts.source = "survivor";
    opts.spoolDir = spool;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 5;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;

    shipper.observe(0);
    hub.record("rack0.power", 1000, 51000.0);
    shipper.snapshotNow(1000);
    ASSERT_TRUE(eventually(
        [&] { return shipper.counters().batchesSent == 1; }));

    // Phase 2: receiver dies mid-stream. Batches cut during the
    // outage land in the write-ahead spool, in order.
    rx->stop();
    rx.reset();
    for (int i = 2; i <= 4; ++i) {
        hub.record("rack0.power", i * 1000, 50000.0 + i);
        shipper.snapshotNow(i * 1000);
    }
    ASSERT_TRUE(eventually(
        [&] { return shipper.counters().batchesSpooled == 3; }));
    const auto files = spoolListing(spool);
    ASSERT_FALSE(files.empty());
    // The spool is a valid bare pad-rw-v1 stream (what padtrace rw
    // checks), with the outage batches in sequence order.
    std::string spooled;
    for (const auto &f : files)
        spooled += slurp(spool + "/" + f);
    RwStreamInfo info;
    ASSERT_TRUE(validateRwStream(spooled, &error, &info)) << error;
    EXPECT_FALSE(info.framed);
    EXPECT_EQ(info.batches, 3u);

    // Phase 3: receiver back on the same port; reconnect replays the
    // spool first, then live delivery resumes. Nothing lost, nothing
    // duplicated, order preserved.
    ReceiverServer rx2(port);
    ASSERT_TRUE(rx2.start(&error)) << error;
    hub.record("rack0.power", 5000, 50005.0);
    shipper.snapshotNow(5000);
    shipper.finish(5000);

    const auto c = shipper.counters();
    EXPECT_EQ(c.spoolReplayed, 3u);
    EXPECT_EQ(c.batchesDropped, 0u);
    // Receiver 2 missed the live batch (seq 0) but merged the spool
    // replay and everything after, gap-free from seq 1.
    const auto rc = rx2.counters();
    EXPECT_EQ(rc.batches, 4u);
    EXPECT_EQ(rc.duplicates, 0u);
    EXPECT_EQ(rc.protocolErrors, 0u);
    const std::string dump = rx2.dumpMerged();
    EXPECT_NE(dump.find("source survivor last_seq 4"),
              std::string::npos)
        << dump;
    // Replayed spool files are consumed.
    EXPECT_TRUE(spoolListing(spool).empty());

    rx2.stop();
}

TEST(RemoteWrite, CrashCutSpoolReplaysCompleteRecords)
{
    const test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const std::string spool = tmp.path("spool");
    ASSERT_EQ(::mkdir(spool.c_str(), 0755), 0);

    // A spool left behind by a crashed run: two whole batches and a
    // torn third record (the crash cut the write mid-line).
    const std::string l0 =
        renderRwBatchLine(sampleBatch("crashed", 0, 1000));
    const std::string l1 =
        renderRwBatchLine(sampleBatch("crashed", 1, 2000));
    {
        std::ofstream f(spool + "/rw_spool-0000.jsonl");
        f << l0 << "\n" << l1 << "\n"
          << l1.substr(0, l1.size() / 2);
    }

    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;

    // A fresh shipper adopting the crashed run's spool dir. Its own
    // source label differs, so the receiver tracks both runs'
    // sequence spaces independently.
    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = rx.port();
    opts.source = "fresh";
    opts.spoolDir = spool;
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;
    shipper.observe(0);
    hub.record("rack0.power", 1000, 51000.0);
    shipper.snapshotNow(1000);
    shipper.finish(1000);

    EXPECT_EQ(shipper.counters().spoolReplayed, 2u);
    EXPECT_EQ(shipper.counters().batchesDropped, 0u);
    const auto rc = rx.counters();
    EXPECT_EQ(rc.batches, 3u); // 2 replayed + 1 live
    EXPECT_EQ(rc.protocolErrors, 0u);
    EXPECT_EQ(rx.sourceCount(), 2u);
    const std::string dump = rx.dumpMerged();
    EXPECT_NE(dump.find("source crashed last_seq 1"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("source fresh last_seq 0"),
              std::string::npos);
    EXPECT_TRUE(spoolListing(spool).empty());

    rx.stop();
}

// ---------------------------------------------------------------------
// Concurrency (run under TSan in CI)
// ---------------------------------------------------------------------

TEST(RemoteWrite, ConcurrentSnapshotWhileSimSteps)
{
    ReceiverServer rx(0);
    std::string error;
    ASSERT_TRUE(rx.start(&error)) << error;

    TelemetryHub hub;
    RemoteWriteOptions opts;
    opts.port = rx.port();
    opts.source = "busy";
    RemoteWriteShipper shipper(opts, &hub);
    ASSERT_TRUE(shipper.start(&error)) << error;

    // A scrape thread hammers the cross-thread read paths while the
    // "sim thread" below records and cuts snapshots and the sender
    // and receiver threads move batches — the full four-thread
    // picture a live padd with --push-to runs.
    std::atomic<bool> done{false};
    std::thread scraper([&] {
        while (!done.load(std::memory_order_relaxed)) {
            (void)shipper.counters();
            (void)rx.renderMetrics();
            (void)rx.counters();
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });

    shipper.observe(0);
    for (int step = 1; step <= 400; ++step) {
        const Tick now = step * 100;
        for (int r = 0; r < 4; ++r)
            hub.record("rack" + std::to_string(r) + ".power", now,
                       50000.0 + step + r);
        if (step % 25 == 0)
            shipper.snapshotNow(now);
        else
            shipper.observe(now);
    }
    sim::StatsRegistry stats;
    stats.registerScalar("demo.scalar", "d").set(1.0);
    shipper.finish(40000, &stats);
    done.store(true, std::memory_order_relaxed);
    scraper.join();

    EXPECT_EQ(shipper.counters().batchesDropped, 0u);
    EXPECT_EQ(rx.counters().samples, 1600u);
    EXPECT_EQ(rx.counters().protocolErrors, 0u);
    rx.stop();
}

// ---------------------------------------------------------------------
// Replay determinism through the push pipeline
// ---------------------------------------------------------------------

TEST(RemoteWrite, ReplayedSessionShipsIdenticalStream)
{
    using namespace pad::service;

    // Record a short headless daemon session that pushes while
    // running.
    ReceiverServer liveRx(0);
    std::string error;
    ASSERT_TRUE(liveRx.start(&error)) << error;

    DaemonOptions opts;
    opts.config.durationSec = 900.0;
    opts.config.seed = 11;
    opts.speed = 0.0;
    opts.metricsPort = -1;
    opts.controlPort = -1;
    const test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    opts.sessionPath = tmp.path("session.jsonl");
    opts.pushTo = "127.0.0.1:" + std::to_string(liveRx.port());
    opts.pushIntervalS = 120.0;
    ServiceDaemon daemon(std::move(opts));
    ASSERT_TRUE(daemon.start(&error)) << error;
    daemon.run();
    EXPECT_EQ(daemon.result().commands, 0u);

    const auto log = readSessionFile(tmp.path("session.jsonl"), &error);
    ASSERT_TRUE(log.has_value()) << error;

    // Replay the session twice, each into its own fresh receiver.
    auto replayInto = [&](ReceiverServer &rx) {
        ReplayArtifacts out;
        out.pushTo = "127.0.0.1:" + std::to_string(rx.port());
        out.pushIntervalS = 120.0;
        ASSERT_TRUE(replaySession(*log, out, &error)) << error;
    };
    ReceiverServer rxA(0), rxB(0);
    ASSERT_TRUE(rxA.start(&error)) << error;
    ASSERT_TRUE(rxB.start(&error)) << error;
    replayInto(rxA);
    replayInto(rxB);
    rxA.stop();
    rxB.stop();

    // Byte-identical merged state across the two replays — and
    // against the live run: batches are cut at sim-tick boundaries,
    // never wall-clock ones.
    const std::string a = rxA.dumpMerged();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, rxB.dumpMerged());
    liveRx.stop();
    EXPECT_EQ(a, liveRx.dumpMerged());
    EXPECT_EQ(rxA.counters().samples, liveRx.counters().samples);
}
