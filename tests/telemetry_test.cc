/**
 * @file
 * Unit tests for the telemetry subsystem: bounded time series, the
 * TelemetryHub, the tracer-event feed, Prometheus exposition (writer
 * and grammar validator), the scrape HTTP
 * endpoint, the JSONL trace reader, and the StatsRegistry
 * histogram-quantile boundary contract the exposition relies on.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/stats_registry.h"
#include "telemetry/http.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "telemetry/time_series.h"
#include "telemetry/trace_feed.h"
#include "telemetry/trace_reader.h"

using namespace pad;
using namespace pad::telemetry;

// ---------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------

TEST(TimeSeries, EmptySeriesIsWellDefined)
{
    const TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.totalSamples(), 0u);
    EXPECT_EQ(ts.rawSize(), 0u);
    EXPECT_EQ(ts.overallMin(), 0.0);
    EXPECT_EQ(ts.overallMax(), 0.0);
    EXPECT_EQ(ts.overallMean(), 0.0);
    EXPECT_TRUE(ts.raw().empty());
}

TEST(TimeSeries, MinuteRollupAggregates)
{
    TimeSeries ts;
    ts.record(0, 10.0);
    ts.record(20 * kTicksPerSecond, 30.0);
    ts.record(40 * kTicksPerSecond, 20.0);
    ts.record(kTicksPerMinute + 1, 5.0);

    EXPECT_EQ(ts.totalSamples(), 4u);
    EXPECT_DOUBLE_EQ(ts.overallMin(), 5.0);
    EXPECT_DOUBLE_EQ(ts.overallMax(), 30.0);
    EXPECT_DOUBLE_EQ(ts.overallMean(), 65.0 / 4.0);
    EXPECT_EQ(ts.last().when, kTicksPerMinute + 1);
}

TEST(TimeSeries, RingEvictionKeepsAggregatesExact)
{
    TimeSeriesOptions opts;
    opts.rawCapacity = 4;
    TimeSeries ts(opts);
    for (int i = 0; i < 10; ++i)
        ts.record(i * kTicksPerSecond, static_cast<double>(i));

    EXPECT_EQ(ts.totalSamples(), 10u);
    EXPECT_EQ(ts.rawSize(), 4u);
    const auto raw = ts.raw();
    ASSERT_EQ(raw.size(), 4u);
    // Chronological order, newest four survive.
    EXPECT_DOUBLE_EQ(raw.front().value, 6.0);
    EXPECT_DOUBLE_EQ(raw.back().value, 9.0);
    // Whole-series aggregates still cover evicted samples.
    EXPECT_DOUBLE_EQ(ts.overallMin(), 0.0);
    EXPECT_DOUBLE_EQ(ts.overallMax(), 9.0);
    EXPECT_DOUBLE_EQ(ts.overallMean(), 4.5);
}

TEST(TimeSeries, NewestIsTheTailOfRaw)
{
    TimeSeriesOptions opts;
    opts.rawCapacity = 5;
    TimeSeries ts(opts);
    EXPECT_TRUE(ts.newest(3).empty());
    // Every fill level, wrapped or not, and every tail length.
    for (int i = 0; i < 13; ++i) {
        ts.record(i, static_cast<double>(i));
        const auto raw = ts.raw();
        for (std::size_t n = 0; n <= raw.size() + 1; ++n) {
            const auto tail = ts.newest(n);
            const std::size_t take = std::min(n, raw.size());
            ASSERT_EQ(tail.size(), take) << i << " " << n;
            for (std::size_t k = 0; k < take; ++k)
                EXPECT_EQ(tail[k].when, raw[raw.size() - take + k].when)
                    << i << " " << n;
        }
    }
}

// ---------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------

TEST(TelemetryHub, RawSinceCopiesOnlySamplesPastTheCursors)
{
    TimeSeriesOptions opts;
    opts.rawCapacity = 4;
    TelemetryHub hub(opts);
    EXPECT_TRUE(hub.rawSince({}).empty());

    const std::uint32_t zeta = hub.seriesId("zeta");
    const std::uint32_t alpha = hub.seriesId("alpha");
    hub.seriesId("empty"); // no samples: never listed
    for (Tick t = 0; t < 3; ++t)
        hub.record("zeta", t, 1.0);
    for (Tick t = 10; t < 16; ++t) // six through a 4-slot ring
        hub.record("alpha", t, 2.0);

    // No cursors (all 0): every retained sample, sorted by name.
    auto cut = hub.rawSince({});
    ASSERT_EQ(cut.size(), 2u);
    EXPECT_EQ(cut[0].name, "alpha");
    EXPECT_EQ(cut[0].id, alpha);
    EXPECT_EQ(cut[0].totalSamples, 6u);
    ASSERT_EQ(cut[0].raw.size(), 4u); // two evicted
    EXPECT_EQ(cut[0].raw.front().when, 12);
    EXPECT_EQ(cut[1].name, "zeta");
    EXPECT_EQ(cut[1].raw.size(), 3u);

    // Cursors by id: zeta fully seen, alpha seen up to 4 of 6.
    std::vector<std::uint64_t> cursors(2);
    cursors[zeta] = 3;
    cursors[alpha] = 4;
    cut = hub.rawSince(cursors);
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(cut[0].name, "alpha");
    ASSERT_EQ(cut[0].raw.size(), 2u);
    EXPECT_EQ(cut[0].raw[0].when, 14);
    EXPECT_EQ(cut[0].raw[1].when, 15);
    // Every cursor at its total: nothing new.
    cursors[alpha] = 6;
    EXPECT_TRUE(hub.rawSince(cursors).empty());
}

TEST(TelemetryHub, LazyCreationAndSortedNames)
{
    TelemetryHub hub;
    EXPECT_TRUE(hub.empty());
    hub.record("zeta", 0, 1.0);
    hub.record("alpha", 0, 2.0);
    hub.record("zeta", 1, 3.0);
    EXPECT_EQ(hub.size(), 2u);
    const auto names = hub.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
    ASSERT_NE(hub.find("zeta"), nullptr);
    EXPECT_EQ(hub.find("zeta")->totalSamples(), 2u);
    EXPECT_EQ(hub.find("missing"), nullptr);
}

TEST(TelemetryHub, SummaryDigest)
{
    TelemetryHub hub;
    hub.record("s", 0, 1.0);
    hub.record("s", kTicksPerSecond, 3.0);
    const auto digest = hub.summary();
    ASSERT_EQ(digest.size(), 1u);
    EXPECT_EQ(digest[0].name, "s");
    EXPECT_EQ(digest[0].count, 2u);
    EXPECT_DOUBLE_EQ(digest[0].min, 1.0);
    EXPECT_DOUBLE_EQ(digest[0].max, 3.0);
    EXPECT_DOUBLE_EQ(digest[0].mean, 2.0);
    EXPECT_DOUBLE_EQ(digest[0].last.value, 3.0);
}

TEST(TelemetryHub, MergeFromPrefixesAndIsIdempotent)
{
    TelemetryHub job;
    job.record("rack0.power", 0, 100.0);
    job.record("policy.level", 0, 1.0);

    TelemetryHub merged;
    merged.mergeFrom(job, "job0.");
    merged.mergeFrom(job, "job0."); // idempotent replace
    EXPECT_EQ(merged.size(), 2u);
    ASSERT_NE(merged.find("job0.rack0.power"), nullptr);
    EXPECT_EQ(merged.find("job0.rack0.power")->totalSamples(), 1u);
    EXPECT_EQ(merged.find("rack0.power"), nullptr);
}

TEST(TelemetryHub, MergeFromSkipsEmptySeries)
{
    // Regression: merging must never create sample-less series in
    // the target — they would render as zero-valued rows in
    // summaries and Prometheus expositions.
    TelemetryHub empty;
    TelemetryHub merged;
    merged.record("real", 0, 1.0);
    merged.mergeFrom(empty, "job0.");
    EXPECT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged.names(), std::vector<std::string>{"real"});
    for (const auto &s : merged.summary())
        EXPECT_GT(s.count, 0u);
}

TEST(TelemetryHub, ListenerSeesEverySampleAndDetaches)
{
    struct Capture : telemetry::SampleListener {
        std::vector<std::string> seen;
        void
        onSample(std::string_view name, Tick when,
                 double value) override
        {
            seen.push_back(std::string(name) + "@" +
                           std::to_string(when) + "=" +
                           std::to_string(static_cast<int>(value)));
        }
    };

    TelemetryHub hub;
    Capture capture;
    hub.record("a", 0, 1.0); // before attach: unseen
    hub.setListener(&capture);
    hub.record("a", 1, 2.0);
    hub.record("b", 2, 3.0);
    hub.setListener(nullptr);
    hub.record("a", 3, 4.0); // after detach: unseen

    EXPECT_EQ(capture.seen,
              (std::vector<std::string>{"a@1=2", "b@2=3"}));
}

TEST(TelemetryHub, ConcurrentRecordingIsSafe)
{
    TelemetryHub hub;
    constexpr int kPer = 2000;
    std::thread a([&] {
        for (int i = 0; i < kPer; ++i)
            hub.record("a", i, 1.0);
    });
    std::thread b([&] {
        for (int i = 0; i < kPer; ++i)
            hub.record("b", i, 2.0);
    });
    a.join();
    b.join();
    EXPECT_EQ(hub.size(), 2u);
    EXPECT_EQ(hub.find("a")->totalSamples(),
              static_cast<std::uint64_t>(kPer));
    EXPECT_EQ(hub.find("b")->totalSamples(),
              static_cast<std::uint64_t>(kPer));
}

/** Every listener call, by id, as "id:name@when=value". */
struct IdCapture : telemetry::SampleListener {
    std::vector<std::string> seen;
    void
    onSample(std::string_view, Tick, double) override
    {
        ADD_FAILURE() << "the hub must call the id overload";
    }
    void
    onSample(std::uint32_t id, std::string_view name, Tick when,
             double value) override
    {
        seen.push_back(std::to_string(id) + ":" + std::string(name) +
                       "@" + std::to_string(when) + "=" +
                       std::to_string(value));
    }
};

TEST(TelemetryHub, RecordRowMatchesRecordingByName)
{
    const std::vector<std::string> row = {"rack0.power", "rack0.soc",
                                          "pdu.power", "detector.score"};
    const auto value = [](int step, std::size_t i) {
        return 100.0 * static_cast<double>(i) + 0.25 * step;
    };

    TelemetryHub byName, byId;
    IdCapture nameCalls, idCalls;
    // A series that exists before the row is first recorded keeps
    // its id on both paths.
    byName.record("pdu.power", 0, -1.0);
    byId.record("pdu.power", 0, -1.0);
    byName.setListener(&nameCalls);
    byId.setListener(&idCalls);

    std::vector<std::uint32_t> ids;
    for (const std::string &name : row)
        ids.push_back(byId.seriesId(name));
    EXPECT_EQ(ids[2], 0u);
    std::vector<double> values(row.size());
    for (int step = 1; step <= 5; ++step) {
        const Tick when = step * kTicksPerSecond;
        for (std::size_t i = 0; i < row.size(); ++i) {
            byName.record(row[i], when, value(step, i));
            values[i] = value(step, i);
        }
        byId.recordRow(when, ids.data(), values.data(), values.size());
    }

    const auto a = byName.rawSnapshot();
    const auto b = byId.rawSnapshot();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].name, b[k].name);
        EXPECT_EQ(a[k].id, b[k].id);
        EXPECT_EQ(a[k].totalSamples, b[k].totalSamples);
        ASSERT_EQ(a[k].raw.size(), b[k].raw.size());
        for (std::size_t i = 0; i < a[k].raw.size(); ++i) {
            EXPECT_EQ(a[k].raw[i].when, b[k].raw[i].when);
            EXPECT_EQ(a[k].raw[i].value, b[k].raw[i].value);
        }
    }
    EXPECT_EQ(nameCalls.seen.size(), 5 * row.size());
    EXPECT_EQ(nameCalls.seen, idCalls.seen);
}

TEST(TelemetryHub, RecordRowRacesWithReaders)
{
    // Run under ThreadSanitizer: rows recorded by id on one thread
    // while another takes every kind of concurrent-safe read.
    TelemetryHub hub;
    std::vector<std::uint32_t> ids;
    for (int s = 0; s < 93; ++s)
        ids.push_back(hub.seriesId("s" + std::to_string(s)));
    constexpr int kRows = 500;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        std::vector<double> values(ids.size());
        for (int r = 0; r < kRows; ++r) {
            for (std::size_t i = 0; i < values.size(); ++i)
                values[i] = r + 0.5 * static_cast<double>(i);
            hub.recordRow(r * kTicksPerSecond, ids.data(), values.data(),
                          values.size());
        }
        done = true;
    });
    std::uint64_t seen = 0;
    while (!done) {
        for (const auto &s : hub.rawSnapshot())
            seen = std::max<std::uint64_t>(seen, s.raw.size());
        for (const auto &s : hub.summary())
            seen = std::max(seen, s.count);
        EXPECT_EQ(hub.names().size(), ids.size());
    }
    writer.join();
    EXPECT_LE(seen, static_cast<std::uint64_t>(kRows));
    for (const auto &s : hub.summary()) {
        EXPECT_EQ(s.count, static_cast<std::uint64_t>(kRows));
        EXPECT_EQ(s.last.when, (kRows - 1) * kTicksPerSecond);
    }
}

// ---------------------------------------------------------------------
// TelemetryTraceSink
// ---------------------------------------------------------------------

TEST(TraceFeed, NameHelpers)
{
    EXPECT_EQ(securityLevelFromName("L1-Normal"), 1);
    EXPECT_EQ(securityLevelFromName("L2-MinorIncident"), 2);
    EXPECT_EQ(securityLevelFromName("L3-Emergency"), 3);
    EXPECT_EQ(securityLevelFromName("garbage"), 0);
    EXPECT_EQ(securityLevelFromName(""), 0);

    EXPECT_EQ(attackerPhaseFromName("Prepare"), 0);
    EXPECT_EQ(attackerPhaseFromName("Drain"), 1);
    EXPECT_EQ(attackerPhaseFromName("Recover"), 2);
    EXPECT_EQ(attackerPhaseFromName("Spike"), 3);
    EXPECT_EQ(attackerPhaseFromName("???"), -1);
}

TEST(TraceFeed, CuratedEventsBecomeSeries)
{
    TelemetryHub hub;
    obs::CountingTraceSink inner;
    TelemetryTraceSink sink(hub, &inner);
    const obs::TraceScope scope(&sink);
    obs::setTraceClock(kTicksPerSecond);

    obs::emit("policy", "policy.transition",
              {obs::TraceField::str("from", "L1-Normal"),
               obs::TraceField::str("to", "L3-Emergency"),
               obs::TraceField::integer("transitions", 1)});
    obs::emit("detector", "detector.anomaly",
              {obs::TraceField::integer("rack", 3)});
    obs::emit("detector", "detector.anomaly",
              {obs::TraceField::integer("rack", 4)});
    obs::emit("rack3.udeb", "udeb.shave",
              {obs::TraceField::num("excess_w", 50.0),
               obs::TraceField::num("shaved_w", 42.0),
               obs::TraceField::num("soc", 0.8),
               obs::TraceField::num("engaged_sec", 1.0)});
    obs::emit("attacker", "attacker.phase",
              {obs::TraceField::str("from", "Drain"),
               obs::TraceField::str("to", "Spike"),
               obs::TraceField::num("at_sec", 1.0)});
    obs::emit("attacker", "attacker.spike_launch",
              {obs::TraceField::integer("index", 0)});
    obs::emit("telemetry", "soc.sample",
              {obs::TraceField::integer("rack", 7),
               obs::TraceField::num("soc", 0.9),
               obs::TraceField::num("udeb_soc", 0.7),
               obs::TraceField::num("power_w", 1000.0),
               obs::TraceField::num("draw_w", 1100.0),
               obs::TraceField::integer("level", 2)});
    obs::emit("other", "unrelated.event", {});

    ASSERT_NE(hub.find("policy.level"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("policy.level")->last().value, 3.0);
    EXPECT_EQ(hub.find("policy.level")->last().when, kTicksPerSecond);

    ASSERT_NE(hub.find("detector.anomalies"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("detector.anomalies")->last().value,
                     2.0);

    ASSERT_NE(hub.find("rack3.udeb.soc"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("rack3.udeb.soc")->last().value, 0.8);
    ASSERT_NE(hub.find("rack3.udeb.shaved_w"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("rack3.udeb.shaved_w")->last().value,
                     42.0);

    ASSERT_NE(hub.find("attacker.phase"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("attacker.phase")->last().value, 3.0);
    ASSERT_NE(hub.find("attacker.spikes"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("attacker.spikes")->last().value, 1.0);

    ASSERT_NE(hub.find("rack7.soc"), nullptr);
    ASSERT_NE(hub.find("rack7.udeb_soc"), nullptr);
    ASSERT_NE(hub.find("rack7.power"), nullptr);
    ASSERT_NE(hub.find("rack7.draw"), nullptr);
    EXPECT_DOUBLE_EQ(hub.find("rack7.draw")->last().value, 1100.0);

    // The unrelated event produced no series but passed through.
    EXPECT_EQ(hub.find("unrelated.event"), nullptr);
    EXPECT_EQ(inner.count(), 8u);
}

// ---------------------------------------------------------------------
// PromWriter + validator
// ---------------------------------------------------------------------

namespace {

/** A registry exercising every stat kind. */
sim::StatsRegistry
makeRegistry()
{
    sim::StatsRegistry stats;
    stats.registerScalar("attack.survival_sec", "survival").set(740.5);
    stats.registerCounter("breaker.trips", "trips").add(3);
    stats.setVector("rack.soc", "per-rack soc", {0.9, 0.8, 0.7});
    auto hist = stats.registerHistogram("step.power_w", "step power",
                                        {0.0, 100.0, 10});
    for (int i = 0; i < 100; ++i)
        hist.record(static_cast<double>(i));
    auto timer = stats.registerTimer("phase.duration", "phase time");
    timer.record(0.5);
    timer.record(1.5);
    return stats;
}

} // namespace

TEST(Prom, SanitizeMapsToMetricCharset)
{
    EXPECT_EQ(promSanitize("rack3.power"), "rack3_power");
    EXPECT_EQ(promSanitize("job0.rack3.udeb_soc"),
              "job0_rack3_udeb_soc");
    EXPECT_EQ(promSanitize("3abc"), "_3abc");
    EXPECT_EQ(promSanitize("weird name-with/stuff"),
              "weird_name_with_stuff");
}

TEST(Prom, RendersEveryStatKindAndValidates)
{
    const sim::StatsRegistry stats = makeRegistry();
    TelemetryHub hub;
    hub.record("rack0.power", 0, 900.5);
    hub.record("rack0.power", kTicksPerSecond, 1100.5);

    const std::string text = PromWriter().render(&stats, &hub);

    EXPECT_NE(text.find("# TYPE pad_attack_survival_sec gauge"),
              std::string::npos);
    EXPECT_NE(text.find("pad_attack_survival_sec 740.5"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE pad_breaker_trips_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("pad_breaker_trips_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("pad_rack_soc{index=\"2\"} 0.7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE pad_step_power_w summary"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(text.find("pad_step_power_w_count 100"),
              std::string::npos);
    EXPECT_NE(text.find("pad_phase_duration_seconds_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("pad_phase_duration_seconds_sum 2"),
              std::string::npos);
    EXPECT_NE(
        text.find("pad_series_last{series=\"rack0.power\"} 1100.5"),
        std::string::npos);
    EXPECT_NE(
        text.find(
            "pad_series_samples_total{series=\"rack0.power\"} 2"),
        std::string::npos);

    std::string error;
    EXPECT_TRUE(validatePromExposition(text, &error)) << error;
}

TEST(Prom, EmptyInputsValidate)
{
    const std::string text = PromWriter().render(nullptr, nullptr);
    std::string error;
    EXPECT_TRUE(validatePromExposition(text, &error)) << error;
}

TEST(Prom, ValidatorRejectsMalformedExpositions)
{
    std::string error;
    // Unknown TYPE.
    EXPECT_FALSE(validatePromExposition("# TYPE foo widget\nfoo 1\n",
                                        &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    // Metric name starting with a digit.
    EXPECT_FALSE(validatePromExposition("3foo 1\n", &error));
    // Unparsable value.
    EXPECT_FALSE(validatePromExposition("foo banana\n", &error));
    // TYPE after a sample of the same metric.
    EXPECT_FALSE(validatePromExposition(
        "foo 1\n# TYPE foo gauge\n", &error));
    // Duplicate TYPE.
    EXPECT_FALSE(validatePromExposition(
        "# TYPE foo gauge\n# TYPE foo gauge\n", &error));
    // Unterminated label value.
    EXPECT_FALSE(
        validatePromExposition("foo{bar=\"baz} 1\n", &error));
    // Well-formed corner cases pass.
    EXPECT_TRUE(validatePromExposition("foo NaN\nbar +Inf\n", &error))
        << error;
    EXPECT_TRUE(validatePromExposition("", &error)) << error;
}

TEST(Prom, LabelValuesRoundTripThroughEscaping)
{
    using telemetry::promEscapeLabel;
    using telemetry::promUnescapeLabel;

    const std::string hostile[] = {
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "multi\nline",
        "\\n literal then real\n",
        "\"\\\n",
        "",
    };
    for (const std::string &value : hostile) {
        const std::string escaped = promEscapeLabel(value);
        // Escaped text never contains a raw newline or bare quote.
        EXPECT_EQ(escaped.find('\n'), std::string::npos) << value;
        const auto back = promUnescapeLabel(escaped);
        ASSERT_TRUE(back.has_value()) << value;
        EXPECT_EQ(*back, value);
        // And the escaped value embeds in a valid exposition line.
        std::string error;
        EXPECT_TRUE(validatePromExposition(
            "m{l=\"" + escaped + "\"} 1\n", &error))
            << value << ": " << error;
    }

    // Dangling or unknown escapes are rejected, not guessed at.
    EXPECT_FALSE(promUnescapeLabel("dangling\\").has_value());
    EXPECT_FALSE(promUnescapeLabel("unknown\\t").has_value());
}

TEST(Prom, InvalidPrefixIsRejectedWithAClearError)
{
    sim::StatsRegistry stats;
    stats.registerScalar("x", "").set(1.0);
    std::ostringstream os;

    // A leading digit is not a valid metric-name start.
    EXPECT_THROW(PromWriter(PromWriter::Options{"9bad"})
                     .write(os, &stats, nullptr),
                 std::invalid_argument);
    // Neither is an embedded invalid character.
    try {
        PromWriter(PromWriter::Options{"pad metrics"})
            .write(os, &stats, nullptr);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("' '"),
                  std::string::npos)
            << e.what();
    }

    // Valid and empty prefixes both render cleanly.
    std::string error;
    EXPECT_TRUE(validatePromExposition(
        PromWriter(PromWriter::Options{"ok_prefix"})
            .render(&stats, nullptr),
        &error))
        << error;
    EXPECT_TRUE(validatePromExposition(
        PromWriter(PromWriter::Options{""}).render(&stats, nullptr),
        &error))
        << error;
}

// ---------------------------------------------------------------------
// StatsRegistry histogram quantiles (exposition contract)
// ---------------------------------------------------------------------

TEST(HistogramQuantile, EmptyHistogramReturnsZero)
{
    sim::StatsRegistry::HistogramData data;
    data.spec = {0.0, 100.0, 10};
    data.counts.assign(10, 0);
    EXPECT_DOUBLE_EQ(data.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(data.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, SingleSampleReturnsThatSample)
{
    sim::StatsRegistry stats;
    auto h = stats.registerHistogram("h", "h", {0.0, 100.0, 10});
    h.record(37.0);
    double p50 = 0.0, p99 = 0.0;
    stats.forEachHistogram(
        [&](const std::string &,
            const sim::StatsRegistry::HistogramData &d,
            const std::string &) {
            p50 = d.quantile(0.5);
            p99 = d.quantile(0.99);
        });
    EXPECT_DOUBLE_EQ(p50, 37.0);
    EXPECT_DOUBLE_EQ(p99, 37.0);
}

TEST(HistogramQuantile, AllSamplesInOneBucketStayInsideData)
{
    sim::StatsRegistry stats;
    auto h = stats.registerHistogram("h", "h", {0.0, 100.0, 10});
    // All mass in bucket [30, 40); observed range [33, 36].
    h.record(33.0);
    h.record(34.0);
    h.record(35.0);
    h.record(36.0);
    stats.forEachHistogram(
        [&](const std::string &,
            const sim::StatsRegistry::HistogramData &d,
            const std::string &) {
            for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
                const double v = d.quantile(q);
                EXPECT_GE(v, 33.0) << "q=" << q;
                EXPECT_LE(v, 36.0) << "q=" << q;
            }
            EXPECT_DOUBLE_EQ(d.quantile(0.0), 33.0);
            EXPECT_DOUBLE_EQ(d.quantile(1.0), 36.0);
        });
}

TEST(HistogramQuantile, UniformSpreadInterpolates)
{
    sim::StatsRegistry stats;
    auto h = stats.registerHistogram("h", "h", {0.0, 100.0, 10});
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>(i));
    stats.forEachHistogram(
        [&](const std::string &,
            const sim::StatsRegistry::HistogramData &d,
            const std::string &) {
            // Median of 0..99 estimated within its bucket.
            EXPECT_NEAR(d.quantile(0.5), 50.0, 1.0);
            EXPECT_NEAR(d.quantile(0.95), 95.0, 1.0);
            // Quantiles are monotone in q.
            EXPECT_LE(d.quantile(0.5), d.quantile(0.95));
            EXPECT_LE(d.quantile(0.95), d.quantile(0.99));
        });
}

TEST(HistogramQuantile, OverflowMassSitsAtHi)
{
    sim::StatsRegistry stats;
    auto h = stats.registerHistogram("h", "h", {0.0, 10.0, 10});
    h.record(500.0);
    h.record(600.0);
    stats.forEachHistogram(
        [&](const std::string &,
            const sim::StatsRegistry::HistogramData &d,
            const std::string &) {
            // All mass overflowed: the estimate is spec.hi, clamped
            // into the observed range [500, 600].
            EXPECT_DOUBLE_EQ(d.quantile(0.5), 500.0);
        });
}

// ---------------------------------------------------------------------
// MetricsHttpServer
// ---------------------------------------------------------------------

namespace {

/** Minimal HTTP GET against 127.0.0.1:port; returns the raw reply. */
std::string
httpGet(int port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), 0);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

} // namespace

TEST(MetricsHttp, ServesRenderedMetricsAndFourOhFour)
{
    MetricsHttpServer server(0, [] {
        return std::string("demo_metric 42\n");
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0);
    EXPECT_TRUE(server.running());

    const std::string ok = httpGet(server.port(), "/metrics");
    EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
    EXPECT_NE(ok.find("demo_metric 42"), std::string::npos) << ok;
    EXPECT_NE(ok.find("text/plain"), std::string::npos);

    const std::string root = httpGet(server.port(), "/");
    EXPECT_NE(root.find("200 OK"), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos) << missing;

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent
}

TEST(MetricsHttp, HealthzAnswersWithoutRenderingMetrics)
{
    // /healthz must stay cheap: a liveness probe cannot pay for a
    // full exposition render, so the handler answers before the
    // renderer runs. A throwing renderer proves it was never called.
    bool rendered = false;
    MetricsHttpServer server(0, [&rendered] {
        rendered = true;
        return std::string("demo_metric 1\n");
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
    EXPECT_NE(health.find("pad_service_up 1"), std::string::npos)
        << health;
    EXPECT_FALSE(rendered);
    server.stop();
}

TEST(MetricsHttp, ContentTypePinsUtf8Charset)
{
    // Prometheus scrapers key on the exact content type; pin it so a
    // refactor cannot silently drop the charset.
    MetricsHttpServer server(0,
                             [] { return std::string("m 1\n"); });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("Content-Type: text/plain; "
                           "version=0.0.4; charset=utf-8"),
              std::string::npos)
        << metrics;
    for (const char *path : {"/healthz", "/nope"}) {
        const std::string reply = httpGet(server.port(), path);
        EXPECT_NE(reply.find(
                      "Content-Type: text/plain; charset=utf-8"),
                  std::string::npos)
            << path << ": " << reply;
    }
    server.stop();
}

TEST(MetricsHttp, ServesLiveHubSnapshot)
{
    TelemetryHub hub;
    MetricsHttpServer server(
        0, [&hub] { return PromWriter().render(nullptr, &hub); });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    hub.record("policy.level", 0, 1.0);
    const std::string first = httpGet(server.port(), "/metrics");
    EXPECT_NE(
        first.find("pad_series_last{series=\"policy.level\"} 1"),
        std::string::npos)
        << first;

    hub.record("policy.level", kTicksPerSecond, 3.0);
    const std::string second = httpGet(server.port(), "/metrics");
    EXPECT_NE(
        second.find("pad_series_last{series=\"policy.level\"} 3"),
        std::string::npos)
        << second;

    // Grammar-check the exposition body (strip the HTTP headers).
    const auto split = second.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string verror;
    EXPECT_TRUE(
        validatePromExposition(second.substr(split + 4), &verror))
        << verror;
    server.stop();
}

TEST(MetricsHttp, EphemeralPortsAreDistinct)
{
    // Port 0 asks the kernel for an ephemeral port; two servers must
    // come up side by side on distinct resolved ports.
    MetricsHttpServer a(0, [] { return std::string("a 1\n"); });
    MetricsHttpServer b(0, [] { return std::string("b 2\n"); });
    std::string error;
    ASSERT_TRUE(a.start(&error)) << error;
    ASSERT_TRUE(b.start(&error)) << error;
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    EXPECT_NE(a.port(), b.port());
    EXPECT_NE(httpGet(a.port(), "/metrics").find("a 1"),
              std::string::npos);
    EXPECT_NE(httpGet(b.port(), "/metrics").find("b 2"),
              std::string::npos);
    a.stop();
    b.stop();
}

TEST(MetricsHttp, BindFailureIsAOneLineError)
{
    MetricsHttpServer first(0, [] { return std::string(); });
    std::string error;
    ASSERT_TRUE(first.start(&error)) << error;

    // A second server on the same port must fail fast with a single
    // diagnostic line — the padd startup contract is one-line error
    // plus nonzero exit, never a silently dead scrape endpoint.
    MetricsHttpServer second(first.port(),
                             [] { return std::string(); });
    EXPECT_FALSE(second.start(&error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    EXPECT_FALSE(second.running());
    first.stop();
}

TEST(MetricsHttp, ConcurrentScrapesWhileHubIsWritten)
{
    // The padd data path: the simulation thread records into the hub
    // while scrapers render it. Every render must be a coherent
    // snapshot and the interleaving must be TSan-clean.
    TelemetryHub hub;
    MetricsHttpServer server(
        0, [&hub] { return PromWriter().render(nullptr, &hub); });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::thread writer([&hub] {
        for (int i = 0; i < 400; ++i) {
            hub.record("rack0.power", i * kTicksPerSecond,
                       100.0 + i);
            hub.record("cluster.util", i * kTicksPerSecond,
                       0.5 + 0.001 * i);
        }
    });
    std::vector<std::thread> scrapers;
    std::vector<int> failures(3, 0);
    for (int s = 0; s < 3; ++s)
        scrapers.emplace_back([&, s] {
            for (int i = 0; i < 20; ++i) {
                const std::string reply =
                    httpGet(server.port(), "/metrics");
                if (reply.find("200 OK") == std::string::npos) {
                    ++failures[s];
                    continue;
                }
                const auto split = reply.find("\r\n\r\n");
                std::string verror;
                if (split == std::string::npos ||
                    !validatePromExposition(reply.substr(split + 4),
                                            &verror))
                    ++failures[s];
            }
        });
    writer.join();
    for (auto &t : scrapers)
        t.join();
    for (int s = 0; s < 3; ++s)
        EXPECT_EQ(failures[s], 0) << "scraper " << s;

    // After the writer finished, a final scrape sees its last word.
    const std::string last = httpGet(server.port(), "/metrics");
    EXPECT_NE(
        last.find("pad_series_last{series=\"rack0.power\"} 499"),
        std::string::npos)
        << last;
    server.stop();
}

// ---------------------------------------------------------------------
// Trace reader
// ---------------------------------------------------------------------

TEST(TraceReader, ParsesRecordsAndSkipsCorruptLines)
{
    std::istringstream in(
        "{\"ts\":1000,\"component\":\"policy\","
        "\"name\":\"policy.transition\","
        "\"args\":{\"from\":\"L1-Normal\",\"to\":\"L2-MinorIncident\""
        "}}\n"
        "\n"
        "{\"ts\":2000,\"dur\":500,\"job\":3,\"component\":\"dc\","
        "\"name\":\"attack.window\",\"args\":{\"survival_sec\":7.25}}"
        "\n"
        "{\"this\":\"is json but not a record\"}\n"
        "{\"ts\":3000,\"component\":\"x\",\"name\":\"trunc");
    const TraceLog log = readTraceLog(in);
    ASSERT_EQ(log.records.size(), 2u);
    EXPECT_EQ(log.skipped, 2u);
    EXPECT_EQ(log.lines, 5u);

    const TraceRecord &first = log.records[0];
    EXPECT_EQ(first.ts, 1000);
    EXPECT_EQ(first.dur, 0);
    EXPECT_EQ(first.job, -1);
    EXPECT_EQ(first.component, "policy");
    EXPECT_EQ(first.name, "policy.transition");
    EXPECT_EQ(first.argString("to"), "L2-MinorIncident");
    EXPECT_EQ(first.argString("absent"), "");
    EXPECT_DOUBLE_EQ(first.argNumber("absent", -7.0), -7.0);

    const TraceRecord &second = log.records[1];
    EXPECT_EQ(second.ts, 2000);
    EXPECT_EQ(second.dur, 500);
    EXPECT_EQ(second.job, 3);
    EXPECT_DOUBLE_EQ(second.argNumber("survival_sec"), 7.25);
    EXPECT_NE(second.arg("survival_sec"), nullptr);
    EXPECT_EQ(second.arg("nope"), nullptr);
}

TEST(TraceReader, SkipsNumbersOutOfRange)
{
    const auto line = [](const char *ts, const char *dur,
                         const char *job) {
        return std::string("{\"name\":\"n\",\"ts\":") + ts +
               ",\"dur\":" + dur + ",\"job\":" + job + "}\n";
    };
    std::string text = line("7", "2", "1");
    std::size_t bad = 0;
    for (const char *value : {"1e300", "-1e300", "1e999"}) {
        text += line(value, "2", "1") + line("7", value, "1") +
                line("7", "2", value);
        bad += 3;
    }
    text += line("7", "2", "3e9");
    ++bad;
    std::istringstream in(text);
    const TraceLog log = readTraceLog(in);
    ASSERT_EQ(log.records.size(), 1u);
    EXPECT_EQ(log.skipped, bad);
    EXPECT_EQ(log.records[0].ts, 7);
    EXPECT_EQ(log.records[0].dur, 2);
    EXPECT_EQ(log.records[0].job, 1);
}

TEST(TraceReader, MissingFileReportsError)
{
    std::string error;
    const auto log =
        readTraceLogFile("/nonexistent/trace.jsonl", &error);
    EXPECT_FALSE(log.has_value());
    EXPECT_FALSE(error.empty());
}
