/**
 * @file
 * Tests for the observability layer: trace sinks (JSONL golden
 * output, Chrome-trace JSON validity), the thread-local tracer
 * binding, histogram/timer/counter statistics and their merge
 * semantics, run manifests, and the JSON parser that closes the
 * write-then-validate loop.
 */

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "counting_new.h"
#include "obs/manifest.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "obs/version.h"
#include "scoped_temp_dir.h"
#include "sim/stats_registry.h"
#include "util/json.h"

using namespace pad;

namespace {

// ---------------------------------------------------------------------
// Tracer binding
// ---------------------------------------------------------------------

TEST(Tracer, DisabledByDefault)
{
    EXPECT_FALSE(obs::traceEnabled());
}

TEST(Tracer, ScopeBindsAndRestores)
{
    obs::CountingTraceSink sink;
    EXPECT_FALSE(obs::traceEnabled());
    {
        const obs::TraceScope scope(&sink);
        EXPECT_TRUE(obs::traceEnabled());
        obs::emit("test", "event");
        {
            // Nested scope with nullptr disables tracing again.
            const obs::TraceScope inner(nullptr);
            EXPECT_FALSE(obs::traceEnabled());
            obs::emit("test", "dropped");
        }
        EXPECT_TRUE(obs::traceEnabled());
        obs::emit("test", "event");
    }
    EXPECT_FALSE(obs::traceEnabled());
    EXPECT_EQ(sink.count(), 2u);
}

TEST(Tracer, ScopeRestoresClock)
{
    obs::CountingTraceSink sink;
    const obs::TraceScope outer(&sink);
    obs::setTraceClock(500);
    {
        const obs::TraceScope inner(&sink);
        EXPECT_EQ(obs::traceClock(), 0);
        obs::setTraceClock(99);
    }
    EXPECT_EQ(obs::traceClock(), 500);
}

TEST(Tracer, DisabledEmitIsAllocationFree)
{
    ASSERT_FALSE(obs::traceEnabled());
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        if (obs::traceEnabled())
            obs::emit("test", "event",
                      {obs::TraceField::integer("i", i),
                       obs::TraceField::num("x", 1.5)});
    }
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed), before);
}

TEST(Tracer, NullSinkEmitIsAllocationFree)
{
    obs::NullTraceSink sink;
    const obs::TraceScope scope(&sink);
    // Warm any lazy TLS/stream state.
    obs::emit("test", "warmup", {obs::TraceField::integer("i", 0)});
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        if (obs::traceEnabled())
            obs::emit("test", "event",
                      {obs::TraceField::integer("i", i),
                       obs::TraceField::str("k", "v")});
    }
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------

TEST(JsonlSink, GoldenLines)
{
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    const obs::TraceScope scope(&sink);

    obs::setTraceClock(1500);
    obs::emit("policy", "policy.transition",
              {obs::TraceField::str("from", "L1"),
               obs::TraceField::str("to", "L2"),
               obs::TraceField::integer("transitions", 3)});
    obs::emitSpan(1000, 2500, "sim", "sim.run",
                  {obs::TraceField::integer("events", 42)});
    obs::emit("detector", "detector.anomaly");

    EXPECT_EQ(out.str(),
              "{\"ts\":1500,\"component\":\"policy\","
              "\"name\":\"policy.transition\",\"args\":{\"from\":\"L1\","
              "\"to\":\"L2\",\"transitions\":3}}\n"
              "{\"ts\":1000,\"dur\":1500,\"component\":\"sim\","
              "\"name\":\"sim.run\",\"args\":{\"events\":42}}\n"
              "{\"ts\":1500,\"component\":\"detector\","
              "\"name\":\"detector.anomaly\"}\n");
}

TEST(JsonlSink, JobIndexAndFieldKinds)
{
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    const obs::TraceScope scope(&sink, /*job=*/7);

    obs::emitAt(10, "udeb", "udeb.shave",
                {obs::TraceField::num("soc", 0.5),
                 obs::TraceField::boolean("engaged", true)});

    EXPECT_EQ(out.str(),
              "{\"ts\":10,\"job\":7,\"component\":\"udeb\","
              "\"name\":\"udeb.shave\",\"args\":{\"soc\":0.5,"
              "\"engaged\":true}}\n");
}

TEST(JsonlSink, EveryLineParses)
{
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    const obs::TraceScope scope(&sink, 2);
    for (int i = 0; i < 10; ++i) {
        obs::setTraceClock(i * 100);
        obs::emit("comp", "ev",
                  {obs::TraceField::integer("i", i),
                   obs::TraceField::str("quote", "a\"b\\c\n")});
    }
    std::istringstream in(out.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc.has_value()) << line;
        EXPECT_TRUE(doc->isObject());
        EXPECT_TRUE(doc->contains("ts"));
        EXPECT_TRUE(doc->contains("component"));
        EXPECT_TRUE(doc->contains("name"));
        EXPECT_EQ(doc->find("job")->number, 2.0);
        ++lines;
    }
    EXPECT_EQ(lines, 10);
}

// ---------------------------------------------------------------------
// Chrome-trace sink
// ---------------------------------------------------------------------

TEST(ChromeSink, ProducesValidChromeTraceJson)
{
    std::ostringstream out;
    {
        obs::ChromeTraceSink sink(out);
        const obs::TraceScope scope(&sink, /*job=*/0);
        obs::setTraceClock(250);
        obs::emit("detector", "detector.anomaly",
                  {obs::TraceField::num("avg_w", 120.5)});
        obs::emitSpan(100, 400, "datacenter", "attack.window",
                      {obs::TraceField::num("survival_sec", 0.3)});
        sink.finish();
    }

    const auto doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // thread_name metadata for each distinct component + 2 events.
    ASSERT_EQ(events->array.size(), 4u);

    const JsonValue &meta = events->array[0];
    EXPECT_EQ(meta.find("ph")->str, "M");
    EXPECT_EQ(meta.find("name")->str, "thread_name");
    EXPECT_EQ(meta.find("args")->find("name")->str, "detector");

    const JsonValue &instant = events->array[1];
    EXPECT_EQ(instant.find("ph")->str, "i");
    EXPECT_EQ(instant.find("name")->str, "detector.anomaly");
    // Sim ms -> trace us.
    EXPECT_EQ(instant.find("ts")->number, 250000.0);
    EXPECT_EQ(instant.find("pid")->number, 1.0);
    EXPECT_EQ(instant.find("s")->str, "t");

    const JsonValue &span = events->array[3];
    EXPECT_EQ(span.find("ph")->str, "X");
    EXPECT_EQ(span.find("ts")->number, 100000.0);
    EXPECT_EQ(span.find("dur")->number, 300000.0);
    EXPECT_EQ(span.find("args")->find("survival_sec")->number, 0.3);
}

TEST(ChromeSink, PerJobProcessesAndStableThreadIds)
{
    std::ostringstream out;
    {
        obs::ChromeTraceSink sink(out);
        for (int job = 0; job < 2; ++job) {
            const obs::TraceScope scope(&sink, job);
            obs::emit("vdeb", "vdeb.assign");
            obs::emit("vdeb", "vdeb.assign");
        }
        sink.finish();
    }
    const auto doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 2 jobs x (1 metadata + 2 events).
    ASSERT_EQ(events->array.size(), 6u);
    // Same component in different jobs gets different pid and tid.
    int pids[2] = {0, 0};
    int n = 0;
    for (const JsonValue &e : events->array)
        if (e.find("ph")->str == "M")
            pids[n++] = static_cast<int>(e.find("pid")->number);
    ASSERT_EQ(n, 2);
    EXPECT_EQ(pids[0], 1);
    EXPECT_EQ(pids[1], 2);
}

TEST(FileSink, WritesAndCompletesChromeFile)
{
    const test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const std::string path = tmp.path("trace.json");
    {
        auto sink = obs::FileTraceSink::open(
            path, obs::FileTraceSink::Format::Chrome);
        ASSERT_NE(sink, nullptr);
        const obs::TraceScope scope(sink.get());
        obs::emit("comp", "ev");
        sink->close();
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = parseJson(buf.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("traceEvents")->array.size(), 2u);
}

TEST(FileSink, FormatNames)
{
    EXPECT_EQ(obs::traceFormatFromName("jsonl"),
              obs::FileTraceSink::Format::Jsonl);
    EXPECT_EQ(obs::traceFormatFromName("chrome"),
              obs::FileTraceSink::Format::Chrome);
    EXPECT_FALSE(obs::traceFormatFromName("xml").has_value());
}

// ---------------------------------------------------------------------
// Histograms / timers / counters
// ---------------------------------------------------------------------

TEST(StatsHistogram, DeterministicBucketing)
{
    sim::StatsRegistry reg;
    auto h = reg.registerHistogram("soc", "state of charge",
                                   {0.0, 1.0, 4});
    h.record(-0.1); // underflow
    h.record(0.0);  // bucket 0
    h.record(0.24); // bucket 0
    h.record(0.25); // bucket 1
    h.record(0.5);  // bucket 2
    h.record(0.99); // bucket 3
    h.record(1.0);  // overflow (hi is exclusive)
    h.record(2.0);  // overflow

    EXPECT_EQ(h.count(), 8u);
    std::ostringstream dump;
    reg.dump(dump);
    EXPECT_NE(dump.str().find("count=8"), std::string::npos);
    EXPECT_NE(dump.str().find("under=1"), std::string::npos);
    EXPECT_NE(dump.str().find("over=2"), std::string::npos);
    EXPECT_NE(dump.str().find("[2 1 1 1]"), std::string::npos);
}

TEST(StatsHistogram, MergeAddsCounts)
{
    sim::StatsRegistry a, b;
    const sim::HistogramSpec spec{0.0, 10.0, 5};
    auto ha = a.registerHistogram("h", "d", spec);
    auto hb = b.registerHistogram("h", "d", spec);
    ha.record(1.0);
    ha.record(9.0);
    hb.record(1.0);
    hb.record(-5.0);
    a.mergeFrom(b);
    EXPECT_EQ(ha.count(), 4u);

    // A histogram present only in the source is created wholesale.
    sim::StatsRegistry c;
    c.mergeFrom(a);
    EXPECT_TRUE(c.contains("h"));
    std::ostringstream ja, jc;
    a.dumpJson(ja);
    c.dumpJson(jc);
    EXPECT_EQ(ja.str(), jc.str());
}

TEST(StatsTimer, AccumulatesAndMerges)
{
    sim::StatsRegistry a, b;
    auto ta = a.registerTimer("job.wall", "per-job wall time");
    auto tb = b.registerTimer("job.wall", "per-job wall time");
    ta.record(1.0);
    ta.record(3.0);
    tb.record(0.5);
    a.mergeFrom(b);
    EXPECT_EQ(ta.count(), 3u);
    EXPECT_DOUBLE_EQ(ta.totalSeconds(), 4.5);

    std::ostringstream dump;
    a.dump(dump);
    EXPECT_NE(dump.str().find("count=3"), std::string::npos);
    EXPECT_NE(dump.str().find("min_s=0.5"), std::string::npos);
    EXPECT_NE(dump.str().find("max_s=3"), std::string::npos);
}

TEST(StatsCounter, MergeAndLookup)
{
    sim::StatsRegistry a, b;
    a.registerCounter("events", "e").add(5);
    b.registerCounter("events", "e").add(7);
    b.registerCounter("only_b", "o").inc();
    a.mergeFrom(b);
    EXPECT_EQ(a.lookupCounter("events"), 12u);
    EXPECT_EQ(a.lookupCounter("only_b"), 1u);
    EXPECT_EQ(a.lookupCounter("missing"), 0u);
}

TEST(StatsRegistry, TextDumpUnchangedWithoutNewKinds)
{
    // The historical text dump must be byte-identical whether or not
    // the registry *class* knows about counters/histograms/timers, as
    // long as none are registered — new kinds may only append.
    sim::StatsRegistry reg;
    reg.registerScalar("b.scalar", "second").set(2.5);
    reg.registerScalar("a.scalar", "first").set(1.0);
    reg.setVector("v.vec", "values", {1.0, 2.0});
    std::ostringstream dump;
    reg.dump(dump);
    const std::string text = dump.str();
    // Banner-framed, sorted, one `name value # desc` line each, and
    // nothing after the vectors (no empty new-kind sections).
    EXPECT_EQ(text.find("---------- begin stats ----------"), 0u);
    EXPECT_LT(text.find("a.scalar"), text.find("b.scalar"));
    EXPECT_LT(text.find("b.scalar"), text.find("v.vec"));
    EXPECT_NE(text.find("# first"), std::string::npos);
    EXPECT_NE(text.find("[1 2]"), std::string::npos);
    const std::size_t end =
        text.find("---------- end stats ----------");
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(text.substr(end),
              "---------- end stats ----------\n");
}

TEST(StatsRegistry, DumpJsonRoundTrips)
{
    sim::StatsRegistry reg;
    reg.registerScalar("s", "scalar").set(1.25);
    reg.registerCounter("c", "counter").add(3);
    reg.registerHistogram("h", "hist", {0.0, 1.0, 2}).record(0.75);
    reg.registerTimer("t", "timer").record(0.125);
    reg.setVector("v", "vec", {1.0, 2.5});

    const auto doc = parseJson(reg.dumpJsonString());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("scalars")->find("s")->number, 1.25);
    EXPECT_EQ(doc->find("counters")->find("c")->number, 3.0);
    const JsonValue *h = doc->find("histograms")->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->number, 1.0);
    ASSERT_NE(h->find("buckets"), nullptr);
    EXPECT_EQ(h->find("buckets")->array.size(), 2u);
    EXPECT_EQ(h->find("buckets")->array[1].number, 1.0);
    EXPECT_EQ(h->find("underflow")->number, 0.0);
    const JsonValue *t = doc->find("timers")->find("t");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->find("total_seconds")->number, 0.125);
    EXPECT_EQ(doc->find("vectors")->find("v")->array[1].number, 2.5);
}

// ---------------------------------------------------------------------
// Manifests
// ---------------------------------------------------------------------

TEST(Manifest, RendersAllSections)
{
    obs::RunManifest m;
    m.tool = "padsim";
    m.experiment = "PAD";
    m.seed = 42;
    m.config = {{"scheme", "PAD"}, {"duration_sec", "60.0"}};
    m.argv = {"padsim", "--scheme", "PAD"};
    m.traceFile = "run.json";
    m.traceFormat = "chrome";
    m.statsJsonFile = "stats.json";
    m.statsJson = "{\"scalars\":{\"x\":1}}";
    m.wallSeconds = 1.5;

    std::ostringstream out;
    obs::writeManifest(out, m);
    const auto doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("tool")->str, "padsim");
    EXPECT_EQ(doc->find("experiment")->str, "PAD");
    EXPECT_EQ(doc->find("seed")->number, 42.0);
    EXPECT_EQ(doc->find("version")->str, obs::versionString());
    EXPECT_EQ(doc->find("config")->find("scheme")->str, "PAD");
    EXPECT_EQ(doc->find("argv")->array.size(), 3u);
    const JsonValue *artifacts = doc->find("artifacts");
    ASSERT_NE(artifacts, nullptr);
    EXPECT_EQ(artifacts->find("trace")->str, "run.json");
    EXPECT_EQ(artifacts->find("trace_format")->str, "chrome");
    EXPECT_EQ(artifacts->find("stats_json")->str, "stats.json");
    EXPECT_EQ(doc->find("stats")->find("scalars")->find("x")->number,
              1.0);
    EXPECT_EQ(doc->find("wall_seconds")->number, 1.5);
}

TEST(Manifest, OmitsEmptySections)
{
    obs::RunManifest m;
    m.tool = "bench";
    std::ostringstream out;
    obs::writeManifest(out, m);
    const auto doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(doc->contains("experiment"));
    EXPECT_FALSE(doc->contains("argv"));
    EXPECT_FALSE(doc->contains("stats"));
    EXPECT_FALSE(doc->contains("wall_seconds"));
    EXPECT_FALSE(doc->find("artifacts")->contains("trace"));
}

TEST(Manifest, VersionStringNonEmpty)
{
    EXPECT_FALSE(obs::versionString().empty());
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndEscapes)
{
    auto doc = parseJson(
        "{\"a\":-1.5e2,\"b\":true,\"c\":null,\"d\":\"x\\n\\\"\\u0041\"}");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("a")->number, -150.0);
    EXPECT_TRUE(doc->find("b")->boolean);
    EXPECT_TRUE(doc->find("c")->isNull());
    EXPECT_EQ(doc->find("d")->str, "x\n\"A");
}

TEST(JsonParser, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseJson("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\":1,}").has_value());
    EXPECT_FALSE(parseJson("01").has_value());
    EXPECT_FALSE(parseJson("{} trailing").has_value());
    EXPECT_FALSE(parseJson("\"unterminated").has_value());
    EXPECT_FALSE(parseJson("").has_value());
}

TEST(JsonParser, RejectsExcessiveNesting)
{
    std::string deep;
    for (int i = 0; i < 500; ++i)
        deep += "[";
    EXPECT_FALSE(parseJson(deep).has_value());
}

// ---------------------------------------------------------------------
// Sink thread safety
// ---------------------------------------------------------------------

TEST(Sinks, ConcurrentWritersProduceValidChromeJson)
{
    std::ostringstream out;
    {
        obs::ChromeTraceSink sink(out);
        std::vector<std::thread> workers;
        for (int w = 0; w < 4; ++w) {
            workers.emplace_back([&sink, w] {
                const obs::TraceScope scope(&sink, w);
                for (int i = 0; i < 50; ++i) {
                    obs::setTraceClock(i);
                    obs::emit("worker", "tick",
                              {obs::TraceField::integer("i", i)});
                }
            });
        }
        for (auto &t : workers)
            t.join();
        sink.finish();
    }
    const auto doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    // 4 metadata + 200 events, interleaving nondeterministic.
    EXPECT_EQ(doc->find("traceEvents")->array.size(), 204u);
}

} // namespace
