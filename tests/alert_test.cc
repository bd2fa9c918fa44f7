/**
 * @file
 * Tests for the online alerting subsystem (src/alert): rule parsing,
 * the alert-instance lifecycle of every predicate kind, flight-
 * recorder context capture, incident JSONL round-trips, the HTML
 * dashboard, Prometheus alert-state exposition, and the determinism
 * contract — parallel sweep incidents bit-identical to serial, plus
 * a golden incident sequence for the 22-rack two-phase attack under
 * the shipped default rules.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alert/engine.h"
#include "alert/flight_recorder.h"
#include "alert/html.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "runner/experiment.h"
#include "runner/sweep_runner.h"
#include "telemetry/prom.h"
#include "util/types.h"

namespace pad {
namespace {

using alert::AlertEngine;
using alert::AlertRule;
using alert::CompareOp;
using alert::Incident;
using alert::PredicateKind;
using alert::RuleSet;
using alert::Severity;

// ---------------------------------------------------------------------
// Rule parsing
// ---------------------------------------------------------------------

TEST(AlertRules, ParsesEveryPredicateKind)
{
    const char *doc = R"({"rules": [
      {"name": "peak", "severity": "critical",
       "predicate": "threshold", "signal": "detector.score",
       "op": ">", "value": 1.0, "for_sec": 30,
       "description": "sustained visible peak"},
      {"name": "collapse", "predicate": "rate_of_change",
       "signal": "rack*.soc", "op": "<", "value": -0.001,
       "window_sec": 60, "for_sec": 10},
      {"name": "stall", "severity": "info", "predicate": "absence",
       "signal": "pdu.power", "window_sec": 900},
      {"name": "burst", "predicate": "event_count",
       "signal": "udeb.shave", "op": ">=", "value": 5,
       "window_sec": 10}
    ]})";

    std::string error;
    const auto rules = alert::parseRules(doc, &error);
    ASSERT_TRUE(rules.has_value()) << error;
    ASSERT_EQ(rules->size(), 4u);

    EXPECT_EQ(rules->rules[0].name, "peak");
    EXPECT_EQ(rules->rules[0].severity, Severity::Critical);
    EXPECT_EQ(rules->rules[0].predicate, PredicateKind::Threshold);
    EXPECT_EQ(rules->rules[0].op, CompareOp::Gt);
    EXPECT_EQ(rules->rules[0].value, 1.0);
    EXPECT_EQ(rules->rules[0].forSec, 30.0);
    EXPECT_EQ(rules->rules[0].description, "sustained visible peak");

    EXPECT_EQ(rules->rules[1].severity, Severity::Warning); // default
    EXPECT_EQ(rules->rules[1].predicate,
              PredicateKind::RateOfChange);
    EXPECT_EQ(rules->rules[1].windowSec, 60.0);

    EXPECT_EQ(rules->rules[2].severity, Severity::Info);
    EXPECT_EQ(rules->rules[2].predicate, PredicateKind::Absence);

    EXPECT_EQ(rules->rules[3].predicate, PredicateKind::EventCount);
    EXPECT_EQ(rules->rules[3].op, CompareOp::Ge);
}

TEST(AlertRules, RejectsMalformedDocuments)
{
    const char *bad[] = {
        // not JSON at all
        "rules: peak",
        // missing name
        R"({"rules": [{"predicate": "threshold",
            "signal": "a", "value": 1}]})",
        // missing signal
        R"({"rules": [{"name": "x", "value": 1}]})",
        // threshold without value
        R"({"rules": [{"name": "x", "signal": "a"}]})",
        // duplicate rule names
        R"({"rules": [
            {"name": "x", "signal": "a", "value": 1},
            {"name": "x", "signal": "b", "value": 2}]})",
        // unknown key
        R"({"rules": [{"name": "x", "signal": "a", "value": 1,
            "for": 3}]})",
        // unknown severity
        R"({"rules": [{"name": "x", "signal": "a", "value": 1,
            "severity": "fatal"}]})",
        // unknown operator
        R"({"rules": [{"name": "x", "signal": "a", "value": 1,
            "op": "=="}]})",
        // absence without a window
        R"({"rules": [{"name": "x", "signal": "a",
            "predicate": "absence"}]})",
        // non-positive window
        R"({"rules": [{"name": "x", "signal": "a",
            "predicate": "absence", "window_sec": 0}]})",
        // negative hold
        R"({"rules": [{"name": "x", "signal": "a", "value": 1,
            "for_sec": -1}]})",
    };
    for (const char *doc : bad) {
        std::string error;
        EXPECT_FALSE(alert::parseRules(doc, &error).has_value())
            << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
}

TEST(AlertRules, SignalPatternMatching)
{
    EXPECT_TRUE(alert::signalMatches("pdu.power", "pdu.power"));
    EXPECT_TRUE(alert::signalMatches("rack*.soc", "rack19.soc"));
    EXPECT_TRUE(alert::signalMatches("*.soc", "rack3.soc"));
    EXPECT_TRUE(alert::signalMatches("*", "policy"));

    EXPECT_FALSE(alert::signalMatches("rack*.soc", "rack3.power"));
    EXPECT_FALSE(alert::signalMatches("rack*.soc", "pdu.power"));
    // Component counts must agree: no implicit deep matching.
    EXPECT_FALSE(alert::signalMatches("rack*", "rack3.soc"));
    EXPECT_FALSE(alert::signalMatches("rack*.soc.x", "rack3.soc"));
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, KeepsTheNewestSamplesPerSignal)
{
    alert::FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record("a", secondsToTicks(i), double(i));
    rec.record("b", secondsToTicks(3), 33.0);

    const auto w = rec.window("a", 0, secondsToTicks(100));
    ASSERT_EQ(w.size(), 4u); // ring evicted the oldest six
    EXPECT_EQ(w.front().when, secondsToTicks(6));
    EXPECT_EQ(w.back().when, secondsToTicks(9));
    EXPECT_TRUE(std::is_sorted(
        w.begin(), w.end(),
        [](const alert::FlightSample &x, const alert::FlightSample &y)
        { return x.when < y.when; }));

    // Window bounds are inclusive.
    const auto mid =
        rec.window("a", secondsToTicks(7), secondsToTicks(8));
    ASSERT_EQ(mid.size(), 2u);
    EXPECT_EQ(mid[0].value, 7.0);
    EXPECT_EQ(mid[1].value, 8.0);

    EXPECT_TRUE(rec.window("unknown", 0, 100).empty());
    EXPECT_EQ(rec.lastSeen("a"), secondsToTicks(9));
    EXPECT_EQ(rec.lastSeen("unknown"), kTickNever);
    EXPECT_EQ(rec.signals(),
              (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// Engine lifecycle, one predicate at a time
// ---------------------------------------------------------------------

RuleSet
oneRule(AlertRule rule)
{
    RuleSet rs;
    rs.rules.push_back(std::move(rule));
    return rs;
}

TEST(AlertEngine, ThresholdWithHoldWalksTheFullLifecycle)
{
    AlertRule rule;
    rule.name = "hot";
    rule.signal = "pdu.power";
    rule.op = CompareOp::Gt;
    rule.value = 100.0;
    rule.forSec = 10.0;
    AlertEngine engine(oneRule(rule));

    // Breach at t=0 that lapses before the hold elapses: no alert.
    engine.onSample("pdu.power", secondsToTicks(0), 150.0);
    engine.onSample("pdu.power", secondsToTicks(5), 90.0);
    // Second breach held past the 10 s hold, resolved at t=40.
    engine.onSample("pdu.power", secondsToTicks(20), 120.0);
    engine.onSample("pdu.power", secondsToTicks(30), 130.0);
    engine.onSample("pdu.power", secondsToTicks(40), 80.0);
    engine.finalize(secondsToTicks(60));

    ASSERT_EQ(engine.incidents().size(), 1u);
    const Incident &inc = engine.incidents()[0];
    EXPECT_EQ(inc.rule, "hot");
    EXPECT_EQ(inc.signal, "pdu.power");
    EXPECT_EQ(inc.pendingSince, secondsToTicks(20));
    EXPECT_EQ(inc.firingSince, secondsToTicks(30));
    EXPECT_EQ(inc.resolvedAt, secondsToTicks(40));
    EXPECT_EQ(inc.triggerValue, 130.0);
    EXPECT_EQ(inc.threshold, 100.0);
    EXPECT_EQ(inc.id(), "hot:pdu.power@" +
                            std::to_string(secondsToTicks(30)));
    // The flight recorder supplied full-resolution context.
    ASSERT_FALSE(inc.context.empty());
    EXPECT_EQ(inc.context[0].signal, "pdu.power");
    EXPECT_FALSE(inc.context[0].samples.empty());
}

TEST(AlertEngine, ZeroHoldFiresImmediatelyAndStaysOpenAtEnd)
{
    AlertRule rule;
    rule.name = "l3";
    rule.signal = "policy.level";
    rule.op = CompareOp::Ge;
    rule.value = 3.0;
    AlertEngine engine(oneRule(rule));

    engine.onSample("policy.level", secondsToTicks(1), 1.0);
    engine.onSample("policy.level", secondsToTicks(2), 3.0);
    engine.finalize(secondsToTicks(10));

    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_EQ(engine.incidents()[0].firingSince, secondsToTicks(2));
    EXPECT_EQ(engine.incidents()[0].resolvedAt, kTickNever);
}

TEST(AlertEngine, RateOfChangeFiresOnSustainedDecline)
{
    AlertRule rule;
    rule.name = "collapse";
    rule.predicate = PredicateKind::RateOfChange;
    rule.signal = "rack*.soc";
    rule.op = CompareOp::Lt;
    rule.value = -0.005; // SOC per second
    rule.windowSec = 20.0;
    AlertEngine engine(oneRule(rule));

    // Flat: ~0/s, never fires. Then a 0.01/s decline.
    double soc = 1.0;
    for (int t = 0; t <= 20; t += 5)
        engine.onSample("rack7.soc", secondsToTicks(t), soc);
    for (int t = 25; t <= 60; t += 5) {
        soc -= 0.05;
        engine.onSample("rack7.soc", secondsToTicks(t), soc);
    }
    engine.finalize(secondsToTicks(120));

    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_EQ(engine.incidents()[0].rule, "collapse");
    EXPECT_EQ(engine.incidents()[0].signal, "rack7.soc");
    EXPECT_LT(engine.incidents()[0].triggerValue, -0.005);
}

TEST(AlertEngine, AbsenceFiresAfterSilenceAndResolvesOnReturn)
{
    AlertRule rule;
    rule.name = "stall";
    rule.predicate = PredicateKind::Absence;
    rule.signal = "pdu.power";
    rule.windowSec = 30.0;
    AlertEngine engine(oneRule(rule));

    engine.onSample("pdu.power", secondsToTicks(0), 1.0);
    engine.onSample("pdu.power", secondsToTicks(10), 1.0);
    // Silence; the clock advances via an unrelated signal.
    for (int t = 20; t <= 120; t += 10)
        engine.onSample("other.signal", secondsToTicks(t), 0.0);
    // The signal comes back, resolving the alert. Finalize before
    // another 30 s of silence accumulates a second incident.
    engine.onSample("pdu.power", secondsToTicks(130), 1.0);
    engine.finalize(secondsToTicks(150));

    ASSERT_EQ(engine.incidents().size(), 1u);
    const Incident &inc = engine.incidents()[0];
    EXPECT_EQ(inc.rule, "stall");
    // Fires on the first evaluation after 10 s + 30 s of silence.
    EXPECT_EQ(inc.firingSince, secondsToTicks(50));
    EXPECT_EQ(inc.resolvedAt, secondsToTicks(130));
}

TEST(AlertEngine, EventCountFiresOnBurst)
{
    AlertRule rule;
    rule.name = "burst";
    rule.predicate = PredicateKind::EventCount;
    rule.signal = "udeb.shave";
    rule.op = CompareOp::Ge;
    rule.value = 3.0;
    rule.windowSec = 10.0;
    AlertEngine engine(oneRule(rule));

    // Two events 30 s apart never coexist in the 10 s window.
    engine.observeEvent("udeb.shave", secondsToTicks(0));
    engine.observeEvent("udeb.shave", secondsToTicks(30));
    engine.advanceTo(secondsToTicks(50));
    // Three in 4 s do.
    engine.observeEvent("udeb.shave", secondsToTicks(60));
    engine.observeEvent("udeb.shave", secondsToTicks(62));
    engine.observeEvent("udeb.shave", secondsToTicks(64));
    engine.finalize(secondsToTicks(120));

    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_EQ(engine.incidents()[0].rule, "burst");
    EXPECT_EQ(engine.incidents()[0].firingSince, secondsToTicks(64));
    EXPECT_EQ(engine.incidents()[0].triggerValue, 3.0);
    // The window drained afterwards, resolving the incident.
    EXPECT_NE(engine.incidents()[0].resolvedAt, kTickNever);
}

TEST(AlertEngine, WildcardRulesTrackIndependentInstances)
{
    AlertRule rule;
    rule.name = "low";
    rule.signal = "rack*.soc";
    rule.op = CompareOp::Lt;
    rule.value = 0.5;
    AlertEngine engine(oneRule(rule));

    engine.onSample("rack0.soc", secondsToTicks(1), 0.4); // fires
    engine.onSample("rack1.soc", secondsToTicks(2), 0.9); // does not
    engine.onSample("rack2.soc", secondsToTicks(3), 0.3); // fires
    engine.finalize(secondsToTicks(10));

    ASSERT_EQ(engine.incidents().size(), 2u);
    EXPECT_EQ(engine.incidents()[0].signal, "rack0.soc");
    EXPECT_EQ(engine.incidents()[1].signal, "rack2.soc");

    const auto states = engine.ruleStates();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0].rule, "low");
    EXPECT_EQ(states[0].state, 2); // worst instance is still firing
    EXPECT_EQ(states[0].fired, 2u);
}

// ---------------------------------------------------------------------
// Incident JSONL round-trip
// ---------------------------------------------------------------------

std::vector<Incident>
sampleIncidents()
{
    Incident a;
    a.rule = "hot";
    a.signal = "pdu.power";
    a.severity = Severity::Critical;
    a.predicate = PredicateKind::Threshold;
    a.description = "pdu power \"high\"\nsecond line";
    a.pendingSince = secondsToTicks(20);
    a.firingSince = secondsToTicks(30);
    a.resolvedAt = secondsToTicks(40);
    a.triggerValue = 130.5;
    a.threshold = 100.0;
    a.contextFrom = secondsToTicks(25);
    a.contextUntil = secondsToTicks(35);
    a.context.push_back(
        {"pdu.power",
         {{secondsToTicks(25), 110.0}, {secondsToTicks(30), 130.5}}});

    Incident b;
    b.rule = "stall";
    b.signal = "pdu.power";
    b.severity = Severity::Info;
    b.predicate = PredicateKind::Absence;
    b.job = 3;
    b.firingSince = secondsToTicks(90);
    // resolvedAt stays kTickNever: open at end of run.
    return {a, b};
}

TEST(Incidents, JsonlRoundTripPreservesEveryField)
{
    const auto incidents = sampleIncidents();
    const std::string text = alert::renderIncidentsJsonl(incidents);

    std::string error;
    const auto back = alert::readIncidentsJsonl(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    ASSERT_EQ(back->size(), incidents.size());
    for (std::size_t i = 0; i < incidents.size(); ++i) {
        const Incident &x = incidents[i];
        const Incident &y = (*back)[i];
        EXPECT_EQ(x.id(), y.id());
        EXPECT_EQ(x.rule, y.rule);
        EXPECT_EQ(x.signal, y.signal);
        EXPECT_EQ(x.severity, y.severity);
        EXPECT_EQ(x.predicate, y.predicate);
        EXPECT_EQ(x.description, y.description);
        EXPECT_EQ(x.job, y.job);
        EXPECT_EQ(x.pendingSince, y.pendingSince);
        EXPECT_EQ(x.firingSince, y.firingSince);
        EXPECT_EQ(x.resolvedAt, y.resolvedAt);
        EXPECT_EQ(x.triggerValue, y.triggerValue);
        EXPECT_EQ(x.threshold, y.threshold);
        EXPECT_EQ(x.contextFrom, y.contextFrom);
        EXPECT_EQ(x.contextUntil, y.contextUntil);
        ASSERT_EQ(x.context.size(), y.context.size());
        for (std::size_t s = 0; s < x.context.size(); ++s) {
            EXPECT_EQ(x.context[s].signal, y.context[s].signal);
            ASSERT_EQ(x.context[s].samples.size(),
                      y.context[s].samples.size());
            for (std::size_t k = 0; k < x.context[s].samples.size();
                 ++k) {
                EXPECT_EQ(x.context[s].samples[k].when,
                          y.context[s].samples[k].when);
                EXPECT_EQ(x.context[s].samples[k].value,
                          y.context[s].samples[k].value);
            }
        }
    }

    // Job-stamped IDs carry the sweep prefix.
    EXPECT_EQ(incidents[1].id(),
              "job3.stall:pdu.power@" +
                  std::to_string(secondsToTicks(90)));
}

TEST(Incidents, ReaderReportsTheOffendingLine)
{
    const std::string text =
        alert::renderIncidentsJsonl({sampleIncidents()[0]}) +
        "{\"rule\": \"x\"\n";
    std::string error;
    EXPECT_FALSE(alert::readIncidentsJsonl(text, &error).has_value());
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Incidents, ReaderRejectsOutOfRangeNumbers)
{
    const std::string line =
        alert::renderIncidentsJsonl({sampleIncidents()[0]});
    ASSERT_TRUE(alert::readIncidentsJsonl(line).has_value());
    // Each integer field, and the context sample timestamp, with a
    // value no Tick (or, for job, no int) can hold.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"\"job\":", "3e9"},
        {"\"job\":", "-3e9"},
    };
    std::vector<std::pair<std::string, std::string>> all = cases;
    for (const char *field :
         {"\"job\":", "\"pending_ts\":", "\"firing_ts\":",
          "\"resolved_ts\":", "\"context_from\":",
          "\"context_until\":", "\"samples\":[["})
        for (const char *bad : {"1e300", "-1e300", "1e999"})
            all.emplace_back(field, bad);
    for (const auto &[field, bad] : all) {
        std::size_t at = line.find(field);
        ASSERT_NE(at, std::string::npos) << field;
        at += field.size();
        const std::size_t end = line.find_first_of(",]}", at);
        const std::string text =
            line.substr(0, at) + bad + line.substr(end);
        std::string error;
        EXPECT_FALSE(alert::readIncidentsJsonl(text, &error).has_value())
            << text;
        EXPECT_NE(error.find("out of range"), std::string::npos)
            << field << bad << ": " << error;
    }
}

// ---------------------------------------------------------------------
// HTML dashboard
// ---------------------------------------------------------------------

TEST(IncidentDashboard, IsSelfContainedWellFormedHtml)
{
    const std::string html =
        alert::renderIncidentDashboard(sampleIncidents());

    EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    // Zero external references: no scripts, links or remote assets.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("src="), std::string::npos);
    // The hostile description was escaped, not emitted raw.
    EXPECT_EQ(html.find("pdu power \"high\""), std::string::npos);

    // Deterministic rendering.
    EXPECT_EQ(html, alert::renderIncidentDashboard(sampleIncidents()));

    // The empty dashboard is still a complete document.
    const std::string empty = alert::renderIncidentDashboard({});
    EXPECT_EQ(empty.rfind("<!doctype html>", 0), 0u);
    EXPECT_NE(empty.find("</html>"), std::string::npos);
}

TEST(IncidentDashboard, EscapesHtmlMetacharacters)
{
    EXPECT_EQ(alert::htmlEscape("a<b>&\"c\""),
              "a&lt;b&gt;&amp;&quot;c&quot;");
}

// ---------------------------------------------------------------------
// Prometheus exposition of alert states
// ---------------------------------------------------------------------

TEST(AlertProm, RuleStatesRenderAsValidExposition)
{
    std::vector<telemetry::AlertStateSample> states;
    states.push_back({"hot", "critical", 2, 3});
    states.push_back({"weird\"rule\\with\nnewline", "info", 0, 0});

    const std::string text =
        telemetry::PromWriter().render(nullptr, nullptr, &states);
    std::string error;
    EXPECT_TRUE(telemetry::validatePromExposition(text, &error))
        << error << "\n" << text;
    EXPECT_NE(
        text.find(
            "pad_alert_state{rule=\"hot\",severity=\"critical\"} 2"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("pad_alert_fired_total{rule=\"hot\"} 3"),
              std::string::npos);
    // Hostile label values are escaped, keeping the line parseable.
    EXPECT_NE(
        text.find("rule=\"weird\\\"rule\\\\with\\nnewline\""),
        std::string::npos)
        << text;
}

// ---------------------------------------------------------------------
// End-to-end determinism through the runner
// ---------------------------------------------------------------------

std::shared_ptr<const RuleSet>
defaultRules()
{
    std::string error;
    auto rules = alert::loadRulesFile(
        std::string(PAD_RULES_DIR) + "/pad_default.json", &error);
    EXPECT_TRUE(rules.has_value()) << error;
    return std::make_shared<const RuleSet>(std::move(*rules));
}

TEST(AlertRunner, AlertingNeverPerturbsExperimentResults)
{
    const auto cw = runner::makeClusterWorkload(1.0);
    runner::ClusterAttackSpec spec;
    spec.durationSec = 120.0;
    auto plain = runner::Experiment::clusterAttack(spec, cw);
    plain.seed = 42;

    auto alerted = plain;
    alerted.alertRules = defaultRules();

    const auto a = runner::runExperiment(plain);
    const auto b = runner::runExperiment(alerted);

    EXPECT_EQ(a.attack().survivalSec, b.attack().survivalSec);
    EXPECT_EQ(a.attack().throughput, b.attack().throughput);
    EXPECT_EQ(a.attack().spikesLaunched, b.attack().spikesLaunched);
    EXPECT_EQ(a.stats->dumpJsonString(), b.stats->dumpJsonString());

    // Alerts travel with the result only when requested; the hub
    // stays internal unless telemetry was asked for explicitly.
    EXPECT_EQ(a.alerts, nullptr);
    ASSERT_NE(b.alerts, nullptr);
    EXPECT_TRUE(b.alerts->finalized());
    EXPECT_EQ(b.hub, nullptr);
}

TEST(AlertRunner, ParallelIncidentsAreBitIdenticalToSerial)
{
    const auto cw = runner::makeClusterWorkload(1.0);
    const auto rules = defaultRules();

    std::vector<runner::Experiment> grid;
    for (core::SchemeKind scheme :
         {core::SchemeKind::Conv, core::SchemeKind::Pad,
          core::SchemeKind::VdebOnly}) {
        runner::ClusterAttackSpec spec;
        spec.scheme = scheme;
        spec.durationSec = 120.0;
        auto e = runner::Experiment::clusterAttack(spec, cw);
        e.alertRules = rules;
        grid.push_back(std::move(e));
    }
    runner::SweepRunner::assignSeeds(grid, 7);

    const auto serial =
        runner::SweepRunner({.jobs = 1}).runWithReport(grid);
    const auto parallel =
        runner::SweepRunner({.jobs = 4}).runWithReport(grid);

    // The merged incident stream — job stamps included — is byte-
    // identical for any worker count.
    EXPECT_EQ(alert::renderIncidentsJsonl(serial.incidents),
              alert::renderIncidentsJsonl(parallel.incidents));

    // So is the rule-state exposition block.
    EXPECT_EQ(telemetry::PromWriter().render(nullptr, nullptr,
                                             &serial.alertStates),
              telemetry::PromWriter().render(nullptr, nullptr,
                                             &parallel.alertStates));
}

TEST(AlertRunner, GoldenIncidentSequenceFor22RackAttack)
{
    // Pins the default-rules incident sequence for the paper's
    // 22-rack two-phase attack scenario. A change here means alert
    // semantics (or the simulation itself) changed — update the
    // golden list only after confirming that was intended.
    const auto cw = runner::makeClusterWorkload(1.0);
    runner::ClusterAttackSpec spec;
    spec.victimRacks = 22;
    spec.durationSec = 300.0;
    auto e = runner::Experiment::clusterAttack(spec, cw);
    e.seed = 42;
    e.alertRules = defaultRules();

    const auto result = runner::runExperiment(e);
    ASSERT_NE(result.alerts, nullptr);
    const auto &incidents = result.alerts->incidents();

    std::vector<std::string> sequence;
    sequence.reserve(incidents.size());
    for (const Incident &inc : incidents)
        sequence.push_back(inc.rule + ":" + inc.signal + "@" +
                           std::to_string(inc.firingSince));

    const std::vector<std::string> golden = {
        "sustained-visible-peak:detector.score@34200000",
        "sustained-visible-peak:detector.score@40800000",
        "sustained-visible-peak:detector.score@42000000",
        "sustained-visible-peak:detector.score@43500000",
        "sustained-visible-peak:detector.score@45600000",
        "sustained-visible-peak:detector.score@50400000",
        "sustained-visible-peak:detector.score@51600000",
        "sustained-visible-peak:detector.score@54000000",
        "sustained-visible-peak:detector.score@57000000",
        "sustained-visible-peak:detector.score@62700000",
    };
    EXPECT_EQ(sequence, golden);
}

/** FNV-1a over @p n bytes at @p data, chained from @p hash. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

TEST(AlertRunner, HubSnapshotAndIncidentsArePinned)
{
    // Pins every telemetry sample and incident of a 300 s PAD attack
    // with the default rules attached: the hub's raw snapshot (names,
    // series ids, totals and the bits of every retained sample) and
    // the incidents JSONL bytes. The values were captured before the
    // hub learned to record rows by series id; a change means the
    // samples, their ids or the listener's view of them moved.
    const auto cw = runner::makeClusterWorkload(1.0);
    runner::ClusterAttackSpec spec;
    spec.durationSec = 300.0;
    auto e = runner::Experiment::clusterAttack(spec, cw);
    e.seed = 42;
    e.telemetryEnabled = true;
    e.alertRules = defaultRules();

    const auto result = runner::runExperiment(e);
    ASSERT_NE(result.hub, nullptr);
    ASSERT_NE(result.alerts, nullptr);

    std::uint64_t hub = 14695981039346656037ull;
    const auto snapshot = result.hub->rawSnapshot();
    for (const auto &s : snapshot) {
        hub = fnv1a(hub, s.name.data(), s.name.size() + 1);
        hub = fnv1a(hub, &s.id, sizeof s.id);
        hub = fnv1a(hub, &s.totalSamples, sizeof s.totalSamples);
        for (const auto &sample : s.raw) {
            hub = fnv1a(hub, &sample.when, sizeof sample.when);
            hub = fnv1a(hub, &sample.value, sizeof sample.value);
        }
    }
    const std::string jsonl =
        alert::renderIncidentsJsonl(result.alerts->incidents());
    const std::uint64_t incidents =
        fnv1a(14695981039346656037ull, jsonl.data(), jsonl.size());

    EXPECT_EQ(snapshot.size(), 93u);
    EXPECT_EQ(hub, 0xc4d9733712b6d899ull);
    EXPECT_FALSE(jsonl.empty());
    EXPECT_EQ(incidents, 0xdab48032c2f25a43ull);
}

} // namespace
} // namespace pad
