/**
 * @file
 * padtrace — attack-forensics toolkit over padsim JSONL traces.
 *
 * Reads the one-event-per-line trace a `padsim --trace run.jsonl`
 * (or any sweep with --trace) produces and reconstructs the incident
 * from the defender's point of view:
 *
 *   padtrace report   [options] TRACE.jsonl   full incident report
 *   padtrace timeline [options] TRACE.jsonl   chronological key events
 *   padtrace summary  [options] TRACE.jsonl   one-paragraph digest
 *   padtrace incidents [options] INCIDENTS.jsonl
 *                      alert incidents (from padsim/sweep --incidents)
 *   padtrace incidents --follow INCIDENTS.jsonl
 *                      poll-tail a growing incidents stream (padd)
 *   padtrace perf     [options] PROFILE.json
 *                      engine phase breakdown (see below)
 *   padtrace perf --compare OLD.json NEW.json
 *                      flag perf regressions between two runs
 *   padtrace prom     EXPOSITION.txt
 *                      grammar-check a Prometheus exposition (a padd
 *                      /metrics scrape or --prom dump); one line on
 *                      stderr and exit 1 on the first violation
 *   padtrace rw       STREAM
 *                      validate a pad-rw-v1 remote-write stream — a
 *                      framed wire capture or a bare JSONL spool file
 *                      (rw_spool-NNNN.jsonl), auto-detected — and print
 *                      a one-paragraph digest; exit 1 on the first
 *                      malformed record or sequence violation. A
 *                      crash-cut final record is tolerated (reported
 *                      as a truncated tail), matching the shipper's
 *                      spool-replay contract.
 *
 * `prom` and `rw` accept `-` as the input path to read stdin, so CI
 * can pipe a live scrape straight in: `curl .../metrics | padtrace
 * prom -`.
 *
 * Options:
 *   --format md|json|csv   output format (default md)
 *   --out FILE             write to FILE instead of stdout
 *   --job N                only events from sweep job N
 *   --html FILE            (incidents) write the standalone HTML
 *                          dashboard next to the textual output
 *   --follow               (incidents) keep polling the file and
 *                          print each newly sealed incident as one
 *                          markdown line; only complete (newline-
 *                          terminated) records are consumed, so
 *                          tailing a live padd stream never reads a
 *                          torn write
 *   --poll-ms N            (--follow) poll interval, default 500
 *   --idle-exit N          (--follow) stop after N consecutive
 *                          polls with no new incidents; 0 (default)
 *                          = follow until killed
 *
 * The perf command reads either a stats export from a profiled run
 * (`padsim --profile-engine --stats-json run.json`, identified by
 * its engine.phase.* entries) or a perfbench result file
 * (pad-perfbench-v2/-v3, identified by its schema field) and renders
 * the engine phase-breakdown table: sampled seconds, share and lap
 * count per pipeline phase, plus cache hit rates when present. With
 * --compare it diffs two inputs of the same kind — benchmark
 * throughput per backend and phase shares — and flags rows that got
 * more than 5% worse, benchmark rows only when the move also exceeds
 * both files' recorded IQRs (run-to-run noise). The comparison is
 * advisory (exit 0; wire it warn-only into CI), but an input with no profiling data at all —
 * a stats export from an unprofiled run, or a v2 bench file asked
 * for a phase table — is a hard error: one line on stderr, exit 1.
 *
 * The report covers the attack window (survival time recomputed from
 * the first overload event, cross-checked against the value the
 * simulator recorded), the attacker's phase timeline with the ground
 * truth Phase I -> Phase II boundary, the defender-visible estimate
 * of that boundary (first µDEB engagement or policy escalation),
 * time-to-detection, per-rack security-level transitions, and DEB
 * depletion curves from soc.sample events. `report --format csv`
 * exports the depletion curve rows.
 *
 * Corrupt or truncated trailing lines are skipped with a warning
 * (the count appears in the report and is echoed to stderr);
 * padtrace never refuses a trace just because the run died
 * mid-write. A missing or unreadable input, however, is a hard
 * error: one line on stderr and a nonzero exit.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alert/html.h"
#include "alert/incident.h"
#include "telemetry/prom.h"
#include "telemetry/remote_write.h"
#include "telemetry/trace_reader.h"
#include "util/json.h"
#include "util/json_writer.h"
#include "util/table.h"
#include "util/types.h"

using namespace pad;

namespace {

struct Options {
    std::string command = "report";
    std::string format = "md";
    std::string outPath;
    std::string htmlPath;
    int job = -1; // -1 = all jobs
    std::string tracePath;
    std::string secondPath; // perf --compare NEW file
    bool compare = false;
    bool follow = false;    // incidents: poll-tail the file
    int pollMs = 500;       // --follow poll interval
    int idleExit = 0;       // --follow: stop after N idle polls
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: padtrace [report|timeline|summary]\n"
           "                [--format md|json|csv] [--out FILE]\n"
           "                [--job N] TRACE.jsonl\n"
           "       padtrace incidents [--format md|json]\n"
           "                [--out FILE] [--html FILE]\n"
           "                INCIDENTS.jsonl\n"
           "       padtrace incidents --follow [--poll-ms N]\n"
           "                [--idle-exit N] INCIDENTS.jsonl\n"
           "       padtrace perf [--format md|json] [--out FILE]\n"
           "                PROFILE.json\n"
           "       padtrace perf --compare OLD.json NEW.json\n"
           "                [--format md|json] [--out FILE]\n"
           "       padtrace prom EXPOSITION.txt|-\n"
           "       padtrace rw STREAM|-\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> std::string {
        if (++i >= argc)
            usage();
        return argv[i];
    };
    bool commandSet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--format")
            opt.format = need(i);
        else if (arg == "--out")
            opt.outPath = need(i);
        else if (arg == "--html")
            opt.htmlPath = need(i);
        else if (arg == "--job")
            opt.job = std::atoi(need(i).c_str());
        else if (arg == "--compare")
            opt.compare = true;
        else if (arg == "--follow")
            opt.follow = true;
        else if (arg == "--poll-ms")
            opt.pollMs = std::atoi(need(i).c_str());
        else if (arg == "--idle-exit")
            opt.idleExit = std::atoi(need(i).c_str());
        else if (!commandSet && (arg == "report" || arg == "timeline" ||
                                 arg == "summary" ||
                                 arg == "incidents" ||
                                 arg == "perf" || arg == "prom" ||
                                 arg == "rw")) {
            opt.command = arg;
            commandSet = true;
        } else if (arg == "-" && opt.tracePath.empty()) {
            opt.tracePath = arg; // stdin (prom/rw only, checked below)
        } else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (opt.tracePath.empty())
            opt.tracePath = arg;
        else if (opt.secondPath.empty())
            opt.secondPath = arg;
        else
            usage();
    }
    if (opt.tracePath.empty())
        usage();
    if (opt.format != "md" && opt.format != "json" &&
        opt.format != "csv")
        usage();
    if (opt.command == "incidents" && opt.format == "csv")
        usage();
    if (opt.command != "incidents" && !opt.htmlPath.empty())
        usage();
    if (opt.compare != !opt.secondPath.empty())
        usage(); // --compare takes exactly two files
    if (opt.command != "perf" && (opt.compare || !opt.secondPath.empty()))
        usage();
    if (opt.command == "perf" && opt.format == "csv")
        usage();
    if ((opt.command == "prom" || opt.command == "rw") &&
        (opt.format != "md" || !opt.outPath.empty() ||
         !opt.htmlPath.empty() || opt.job != -1))
        usage(); // validate-only: no rendering options apply
    if (opt.tracePath == "-" && opt.command != "prom" &&
        opt.command != "rw")
        usage(); // only the validators stream from stdin
    if (opt.follow &&
        (opt.command != "incidents" || opt.format != "md" ||
         !opt.htmlPath.empty()))
        usage();
    if ((opt.pollMs != 500 || opt.idleExit != 0) && !opt.follow)
        usage();
    if (opt.pollMs < 1 || opt.idleExit < 0)
        usage();
    return opt;
}

/** One attacker phase transition, in file order. */
struct PhaseChange {
    Tick ts = 0;
    std::string from, to, reason;
};

/** One security-policy level transition. */
struct LevelChange {
    Tick ts = 0;
    std::string from, to;
};

/** One soc.sample row (DEB depletion curve point). */
struct SocSample {
    Tick ts = 0;
    int rack = 0;
    double soc = 0.0, udebSoc = 0.0, powerW = 0.0, drawW = 0.0;
    int level = 0;
};

/** Per-rack depletion digest. */
struct RackDepletion {
    std::size_t samples = 0;
    double firstSoc = 1.0, minSoc = 1.0, lastSoc = 1.0;
    double minUdebSoc = 1.0;
    Tick minSocTs = kTickNever;
};

/** Everything the report needs, distilled from one pass. */
struct Forensics {
    std::size_t records = 0, skipped = 0, lines = 0;

    bool hasWindow = false;
    Tick windowStart = 0, windowDur = 0;
    double recordedSurvivalSec = -1.0;
    double throughput = 0.0;
    int spikesRecorded = -1;

    Tick firstOverload = kTickNever;
    std::size_t rackOverloads = 0, clusterOverloads = 0;

    std::vector<PhaseChange> phases;
    double phase2GroundTruthSec = -1.0; // relative to window start
    Tick firstSpikeLaunch = kTickNever;
    std::size_t spikeLaunches = 0, probes = 0;
    double autonomySec = -1.0;
    std::string virusKind;

    std::vector<LevelChange> transitions;
    Tick firstEscalation = kTickNever;
    Tick firstDetection = kTickNever;
    std::size_t detections = 0;
    Tick firstShave = kTickNever;
    std::size_t shaves = 0;

    std::vector<SocSample> socSamples;
    std::map<int, RackDepletion> depletion;

    /** Survival from events; falls back to the recorded value when
     * the run saw no overload (the simulator then reports the full
     * scenario duration, which only it knows exactly). */
    double
    survivalSec() const
    {
        if (hasWindow && firstOverload != kTickNever)
            return ticksToSeconds(firstOverload - windowStart);
        return recordedSurvivalSec;
    }

    /** Absolute sim-seconds of the first detector flag; -1 = never.
     * Comparable bit-for-bit with stats detector.first_flag_sec. */
    double
    timeToDetectionSec() const
    {
        return firstDetection == kTickNever
                   ? -1.0
                   : ticksToSeconds(firstDetection);
    }

    /** Absolute sim-seconds of the first escalation; -1 = never.
     * Comparable with stats policy.first_escalation_sec. */
    double
    firstEscalationSec() const
    {
        return firstEscalation == kTickNever
                   ? -1.0
                   : ticksToSeconds(firstEscalation);
    }

    /**
     * Defender-visible Phase II estimate relative to the window
     * start: the earliest distress signal (µDEB engagement or policy
     * escalation). -1 when neither fired.
     */
    double
    phase2EstimateSec() const
    {
        Tick first = kTickNever;
        for (Tick t : {firstShave, firstEscalation})
            if (t != kTickNever && (first == kTickNever || t < first))
                first = t;
        if (!hasWindow || first == kTickNever)
            return -1.0;
        return ticksToSeconds(first - windowStart);
    }
};

Forensics
analyze(const telemetry::TraceLog &log, int jobFilter)
{
    Forensics fx;
    fx.skipped = log.skipped;
    fx.lines = log.lines;
    for (const auto &rec : log.records) {
        if (jobFilter >= 0 && rec.job != jobFilter)
            continue;
        ++fx.records;
        if (rec.name == "attack.window") {
            fx.hasWindow = true;
            fx.windowStart = rec.ts;
            fx.windowDur = rec.dur;
            fx.recordedSurvivalSec =
                rec.argNumber("survival_sec", -1.0);
            fx.throughput = rec.argNumber("throughput", 0.0);
            fx.spikesRecorded =
                static_cast<int>(rec.argNumber("spikes", -1.0));
        } else if (rec.name == "attack.overload") {
            if (fx.firstOverload == kTickNever ||
                rec.ts < fx.firstOverload)
                fx.firstOverload = rec.ts;
            if (rec.argString("scope") == "cluster")
                ++fx.clusterOverloads;
            else
                ++fx.rackOverloads;
        } else if (rec.name == "attacker.phase") {
            fx.phases.push_back({rec.ts, rec.argString("from"),
                                 rec.argString("to"),
                                 rec.argString("reason")});
        } else if (rec.name == "attack.phase2") {
            fx.phase2GroundTruthSec =
                rec.argNumber("start_sec", -1.0);
        } else if (rec.name == "attacker.spike_launch") {
            ++fx.spikeLaunches;
            if (fx.firstSpikeLaunch == kTickNever ||
                rec.ts < fx.firstSpikeLaunch)
                fx.firstSpikeLaunch = rec.ts;
        } else if (rec.name == "attacker.probe") {
            ++fx.probes;
        } else if (rec.name == "attacker.autonomy") {
            fx.autonomySec = rec.argNumber("autonomy_sec", -1.0);
        } else if (rec.name == "virus.deploy") {
            fx.virusKind = rec.argString("kind");
        } else if (rec.name == "policy.transition") {
            fx.transitions.push_back(
                {rec.ts, rec.argString("from"), rec.argString("to")});
            if (rec.argString("to") != "L1-Normal" &&
                fx.firstEscalation == kTickNever)
                fx.firstEscalation = rec.ts;
        } else if (rec.name == "detector.anomaly") {
            ++fx.detections;
            if (fx.firstDetection == kTickNever)
                fx.firstDetection = rec.ts;
        } else if (rec.name == "udeb.shave") {
            ++fx.shaves;
            if (fx.firstShave == kTickNever)
                fx.firstShave = rec.ts;
        } else if (rec.name == "soc.sample") {
            SocSample s;
            s.ts = rec.ts;
            s.rack = static_cast<int>(rec.argNumber("rack", -1.0));
            s.soc = rec.argNumber("soc", 0.0);
            s.udebSoc = rec.argNumber("udeb_soc", 1.0);
            s.powerW = rec.argNumber("power_w", 0.0);
            s.drawW = rec.argNumber("draw_w", 0.0);
            s.level = static_cast<int>(rec.argNumber("level", 0.0));
            fx.socSamples.push_back(s);
            auto &d = fx.depletion[s.rack];
            if (d.samples == 0)
                d.firstSoc = s.soc;
            ++d.samples;
            if (s.soc < d.minSoc) {
                d.minSoc = s.soc;
                d.minSocTs = s.ts;
            }
            d.minUdebSoc = std::min(d.minUdebSoc, s.udebSoc);
            d.lastSoc = s.soc;
        }
    }
    return fx;
}

std::string
fmtSec(double sec)
{
    return sec < 0.0 ? std::string("n/a") : formatFixed(sec, 1);
}

double
relSec(const Forensics &fx, Tick t)
{
    if (t == kTickNever || !fx.hasWindow)
        return -1.0;
    return ticksToSeconds(t - fx.windowStart);
}

void
reportMarkdown(const Forensics &fx, std::ostream &os)
{
    os << "# padtrace incident report\n\n";
    os << "Events: " << fx.records << " parsed";
    if (fx.skipped > 0)
        os << ", " << fx.skipped << " corrupt line(s) skipped";
    os << ".\n\n";

    os << "## Attack window\n\n";
    if (!fx.hasWindow) {
        os << "No attack.window span found — was the run traced to "
              "completion?\n\n";
    } else {
        TextTable t("attack window");
        t.setHeader({"metric", "value"});
        t.addRow({"window start (s)",
                  formatFixed(ticksToSeconds(fx.windowStart), 1)});
        t.addRow({"window length (s)",
                  formatFixed(ticksToSeconds(fx.windowDur), 1)});
        t.addRow({"survival (s)", fmtSec(fx.survivalSec())});
        t.addRow(
            {"survival (recorded)", fmtSec(fx.recordedSurvivalSec)});
        t.addRow({"rack overloads",
                  std::to_string(fx.rackOverloads)});
        t.addRow({"cluster overloads",
                  std::to_string(fx.clusterOverloads)});
        t.addRow({"throughput", formatFixed(fx.throughput, 4)});
        t.print(os);
        os << "\n";
    }

    os << "## Attacker forensics\n\n";
    {
        TextTable t("attacker");
        t.setHeader({"metric", "value"});
        if (!fx.virusKind.empty())
            t.addRow({"virus", fx.virusKind});
        t.addRow({"phase transitions",
                  std::to_string(fx.phases.size())});
        t.addRow({"side-channel probes", std::to_string(fx.probes)});
        t.addRow({"learned autonomy (s)", fmtSec(fx.autonomySec)});
        t.addRow({"phase II start, ground truth (s)",
                  fmtSec(fx.phase2GroundTruthSec)});
        t.addRow({"phase II start, defender estimate (s)",
                  fmtSec(fx.phase2EstimateSec())});
        t.addRow({"hidden spikes launched",
                  std::to_string(fx.spikeLaunches)});
        t.print(os);
        os << "\n";
    }
    if (!fx.phases.empty()) {
        TextTable t("attacker phase timeline");
        t.setHeader({"t (s)", "from", "to", "reason"});
        for (const auto &p : fx.phases)
            t.addRow({formatFixed(ticksToSeconds(p.ts), 1), p.from,
                      p.to, p.reason});
        t.print(os);
        os << "\n";
    }

    os << "## Defender response\n\n";
    {
        TextTable t("defender");
        t.setHeader({"metric", "value"});
        t.addRow({"time to detection (s, absolute)",
                  fmtSec(fx.timeToDetectionSec())});
        t.addRow({"time to detection (s, in-window)",
                  fmtSec(relSec(fx, fx.firstDetection))});
        t.addRow({"detector flags", std::to_string(fx.detections)});
        t.addRow({"first escalation (s, absolute)",
                  fmtSec(fx.firstEscalationSec())});
        t.addRow({"policy transitions",
                  std::to_string(fx.transitions.size())});
        t.addRow({"µDEB engagements", std::to_string(fx.shaves)});
        t.print(os);
        os << "\n";
    }
    if (!fx.transitions.empty()) {
        TextTable t("policy-level timeline");
        t.setHeader({"t (s)", "from", "to"});
        for (const auto &c : fx.transitions)
            t.addRow({formatFixed(ticksToSeconds(c.ts), 1), c.from,
                      c.to});
        t.print(os);
        os << "\n";
    }

    os << "## DEB depletion\n\n";
    if (fx.depletion.empty()) {
        os << "No soc.sample events (trace predates telemetry or "
              "tracing was off during the attack).\n";
    } else {
        TextTable t("per-rack depletion");
        t.setHeader({"rack", "samples", "soc start", "soc min",
                     "soc min at (s)", "udeb min", "soc end"});
        for (const auto &[rack, d] : fx.depletion)
            t.addRow({std::to_string(rack),
                      std::to_string(d.samples),
                      formatFixed(d.firstSoc, 3),
                      formatFixed(d.minSoc, 3),
                      fmtSec(relSec(fx, d.minSocTs)),
                      formatFixed(d.minUdebSoc, 3),
                      formatFixed(d.lastSoc, 3)});
        t.print(os);
    }
}

void
reportJson(const Forensics &fx, std::ostream &os)
{
    JsonWriter w(os, 2);
    w.beginObject();
    w.key("records").value(static_cast<std::uint64_t>(fx.records));
    w.key("skipped").value(static_cast<std::uint64_t>(fx.skipped));
    w.key("window").beginObject();
    w.key("found").value(fx.hasWindow);
    if (fx.hasWindow) {
        w.key("start_sec").value(ticksToSeconds(fx.windowStart));
        w.key("length_sec").value(ticksToSeconds(fx.windowDur));
    }
    w.key("survival_sec").value(fx.survivalSec());
    w.key("survival_recorded_sec").value(fx.recordedSurvivalSec);
    w.key("rack_overloads")
        .value(static_cast<std::uint64_t>(fx.rackOverloads));
    w.key("cluster_overloads")
        .value(static_cast<std::uint64_t>(fx.clusterOverloads));
    w.key("throughput").value(fx.throughput);
    w.endObject();

    w.key("attacker").beginObject();
    w.key("virus").value(fx.virusKind);
    w.key("phase2_ground_truth_sec").value(fx.phase2GroundTruthSec);
    w.key("phase2_estimate_sec").value(fx.phase2EstimateSec());
    w.key("spike_launches")
        .value(static_cast<std::uint64_t>(fx.spikeLaunches));
    w.key("spikes_recorded").value(fx.spikesRecorded);
    w.key("probes").value(static_cast<std::uint64_t>(fx.probes));
    w.key("autonomy_sec").value(fx.autonomySec);
    w.key("phases").beginArray();
    for (const auto &p : fx.phases) {
        w.beginObject();
        w.key("t_sec").value(ticksToSeconds(p.ts));
        w.key("from").value(p.from);
        w.key("to").value(p.to);
        w.key("reason").value(p.reason);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("defender").beginObject();
    w.key("time_to_detection_sec").value(fx.timeToDetectionSec());
    w.key("time_to_detection_in_window_sec")
        .value(relSec(fx, fx.firstDetection));
    w.key("detector_flags")
        .value(static_cast<std::uint64_t>(fx.detections));
    w.key("first_escalation_sec").value(fx.firstEscalationSec());
    w.key("udeb_engagements")
        .value(static_cast<std::uint64_t>(fx.shaves));
    w.key("transitions").beginArray();
    for (const auto &c : fx.transitions) {
        w.beginObject();
        w.key("t_sec").value(ticksToSeconds(c.ts));
        w.key("from").value(c.from);
        w.key("to").value(c.to);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("depletion").beginArray();
    for (const auto &[rack, d] : fx.depletion) {
        w.beginObject();
        w.key("rack").value(rack);
        w.key("samples").value(static_cast<std::uint64_t>(d.samples));
        w.key("soc_start").value(d.firstSoc);
        w.key("soc_min").value(d.minSoc);
        w.key("soc_min_at_sec").value(relSec(fx, d.minSocTs));
        w.key("udeb_soc_min").value(d.minUdebSoc);
        w.key("soc_end").value(d.lastSoc);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

/** report --format csv: the DEB depletion curve, one sample a row. */
void
reportCsv(const Forensics &fx, std::ostream &os)
{
    os << "t_sec,rack,soc,udeb_soc,power_w,draw_w,level\n";
    for (const auto &s : fx.socSamples) {
        os << JsonWriter::formatDouble(relSec(fx, s.ts)) << ','
           << s.rack << ',' << JsonWriter::formatDouble(s.soc) << ','
           << JsonWriter::formatDouble(s.udebSoc) << ','
           << JsonWriter::formatDouble(s.powerW) << ','
           << JsonWriter::formatDouble(s.drawW) << ',' << s.level
           << "\n";
    }
}

/** A key event for the timeline view. */
struct TimelineRow {
    Tick ts;
    std::string kind, detail;
};

std::vector<TimelineRow>
buildTimeline(const telemetry::TraceLog &log, int jobFilter)
{
    std::vector<TimelineRow> rows;
    for (const auto &rec : log.records) {
        if (jobFilter >= 0 && rec.job != jobFilter)
            continue;
        if (rec.name == "policy.transition")
            rows.push_back({rec.ts, rec.name,
                            rec.argString("from") + " -> " +
                                rec.argString("to")});
        else if (rec.name == "detector.anomaly")
            rows.push_back(
                {rec.ts, rec.name,
                 "rack " + std::to_string(static_cast<int>(
                               rec.argNumber("rack", -1.0)))});
        else if (rec.name == "attacker.phase")
            rows.push_back({rec.ts, rec.name,
                            rec.argString("from") + " -> " +
                                rec.argString("to") + " (" +
                                rec.argString("reason") + ")"});
        else if (rec.name == "attacker.spike_launch")
            rows.push_back(
                {rec.ts, rec.name,
                 "spike #" + std::to_string(static_cast<int>(
                                 rec.argNumber("index", -1.0)))});
        else if (rec.name == "attack.overload")
            rows.push_back(
                {rec.ts, rec.name, rec.argString("scope")});
        else if (rec.name == "attack.phase2")
            rows.push_back({rec.ts, rec.name, "ground truth"});
        else if (rec.name == "udeb.shave")
            rows.push_back({rec.ts, rec.name, rec.component});
        else if (rec.name == "virus.deploy")
            rows.push_back({rec.ts, rec.name,
                            rec.argString("kind")});
        else if (rec.name == "attack.window")
            rows.push_back({rec.ts, rec.name, "attack begins"});
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const TimelineRow &a, const TimelineRow &b) {
                         return a.ts < b.ts;
                     });
    return rows;
}

void
timelineOut(const std::vector<TimelineRow> &rows,
            const std::string &format, std::ostream &os)
{
    if (format == "json") {
        JsonWriter w(os, 2);
        w.beginArray();
        for (const auto &r : rows) {
            w.beginObject();
            w.key("t_sec").value(ticksToSeconds(r.ts));
            w.key("event").value(r.kind);
            w.key("detail").value(r.detail);
            w.endObject();
        }
        w.endArray();
        os << "\n";
    } else if (format == "csv") {
        os << "t_sec,event,detail\n";
        for (const auto &r : rows)
            os << JsonWriter::formatDouble(ticksToSeconds(r.ts))
               << ',' << r.kind << ",\"" << r.detail << "\"\n";
    } else {
        TextTable t("attack timeline");
        t.setHeader({"t (s)", "event", "detail"});
        for (const auto &r : rows)
            t.addRow({formatFixed(ticksToSeconds(r.ts), 1), r.kind,
                      r.detail});
        t.print(os);
    }
}

void
summaryOut(const Forensics &fx, const std::string &format,
           std::ostream &os)
{
    if (format == "json") {
        JsonWriter w(os);
        w.beginObject();
        w.key("records").value(
            static_cast<std::uint64_t>(fx.records));
        w.key("skipped").value(
            static_cast<std::uint64_t>(fx.skipped));
        w.key("survival_sec").value(fx.survivalSec());
        w.key("time_to_detection_sec")
            .value(fx.timeToDetectionSec());
        w.key("first_escalation_sec").value(fx.firstEscalationSec());
        w.key("spike_launches")
            .value(static_cast<std::uint64_t>(fx.spikeLaunches));
        w.key("detector_flags")
            .value(static_cast<std::uint64_t>(fx.detections));
        w.endObject();
        os << "\n";
        return;
    }
    os << "padtrace: " << fx.records << " events";
    if (fx.skipped > 0)
        os << " (" << fx.skipped << " corrupt skipped)";
    os << "; survival " << fmtSec(fx.survivalSec()) << " s"
       << "; detection at " << fmtSec(fx.timeToDetectionSec())
       << " s; escalation at " << fmtSec(fx.firstEscalationSec())
       << " s; " << fx.spikeLaunches << " spikes, " << fx.detections
       << " detector flags.\n";
}

/** `incidents --format md`: summary line plus one row per incident. */
void
incidentsMarkdown(const std::vector<alert::Incident> &incidents,
                  std::ostream &os)
{
    os << "# padtrace incidents\n\n";
    std::size_t unresolved = 0;
    for (const auto &inc : incidents)
        if (inc.resolvedAt == kTickNever)
            ++unresolved;
    os << incidents.size() << " incident(s), " << unresolved
       << " unresolved at end of run.\n\n";
    if (incidents.empty())
        return;
    TextTable t("incidents");
    t.setHeader({"id", "severity", "signal", "fired (s)",
                 "resolved (s)", "trigger", "limit"});
    for (const auto &inc : incidents)
        t.addRow({inc.id(), alert::severityName(inc.severity),
                  inc.signal,
                  formatFixed(ticksToSeconds(inc.firingSince), 1),
                  inc.resolvedAt == kTickNever
                      ? std::string("n/a")
                      : formatFixed(ticksToSeconds(inc.resolvedAt), 1),
                  formatFixed(inc.triggerValue, 4),
                  formatFixed(inc.threshold, 4)});
    t.print(os);
}

// ---------------------------------------------------------------------
// perf: engine phase breakdown and run-to-run regression diff
// ---------------------------------------------------------------------

/** One engine pipeline phase, as exported by the profiler. */
struct PhaseRow {
    std::string name;
    double seconds = 0.0;
    std::uint64_t laps = 0;
};

/** One column of phase data (a backend, or a whole profiled run). */
struct PerfColumn {
    std::string label;
    std::vector<PhaseRow> phases;

    double
    totalSeconds() const
    {
        double t = 0.0;
        for (const auto &p : phases)
            t += p.seconds;
        return t;
    }
};

/** One perfbench measurement cell (row x backend). */
struct BenchValue {
    std::string row, backend, unit;
    double value = 0.0;
    /** Interquartile range of the repetitions; 0 in older files. */
    double iqr = 0.0;
    bool higherIsBetter = false;
};

/** Everything padtrace perf extracts from one input file. */
struct PerfInput {
    std::string path;
    /** "stats" (padsim --stats-json) or "perfbench" (BENCH_*.json). */
    std::string kind;
    std::vector<PerfColumn> columns;
    std::vector<BenchValue> values;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    std::uint64_t profSteps = 0, profSampled = 0, profPeriod = 0;
    bool hasCache = false;
};

/** @p key of @p obj as a count; 0 if absent, not a number or out of range. */
std::uint64_t
memberCounter(const JsonValue *obj, const std::string &key)
{
    if (!obj)
        return 0;
    const JsonValue *v = obj->find(key);
    std::uint64_t n = 0;
    return v && v->isNumber() && countFrom(v->number, n) ? n : 0;
}

/**
 * Classify and distill one input file. The two producers are told
 * apart structurally: perfbench files carry a "schema" string,
 * stats exports a "scalars"/"counters" object pair. Phase entries
 * are discovered by name prefix rather than a compiled-in list, so
 * the tool keeps working when the engine grows a new phase.
 */
std::optional<PerfInput>
loadPerfInput(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        *error = "cannot read " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string parseError;
    const auto root = parseJson(buf.str(), &parseError);
    if (!root || !root->isObject()) {
        *error = path + ": " +
                 (parseError.empty() ? "not a JSON object" : parseError);
        return std::nullopt;
    }

    PerfInput in;
    in.path = path;
    if (const JsonValue *schema = root->find("schema");
        schema && schema->isString() &&
        schema->str.rfind("pad-perfbench-", 0) == 0) {
        in.kind = "perfbench";
        const JsonValue *rows = root->find("benchmarks");
        if (!rows || !rows->isArray()) {
            *error = path + ": no benchmarks array";
            return std::nullopt;
        }
        for (const JsonValue &row : rows->array) {
            const JsonValue *name = row.find("name");
            const JsonValue *unit = row.find("unit");
            const JsonValue *hib = row.find("higher_is_better");
            if (!name || !name->isString())
                continue;
            for (const char *backend :
                 {"baseline", "optimized", "soa"}) {
                const JsonValue *col = row.find(backend);
                if (!col || !col->isObject())
                    continue;
                BenchValue bv;
                bv.row = name->str;
                bv.backend = backend;
                bv.unit = unit && unit->isString() ? unit->str : "";
                if (const JsonValue *v = col->find("value"))
                    bv.value = v->number;
                if (const JsonValue *v = col->find("iqr"))
                    bv.iqr = v->number;
                bv.higherIsBetter = hib && hib->boolean;
                in.values.push_back(bv);
                const JsonValue *phases = col->find("phases");
                if (!phases || !phases->isObject())
                    continue;
                PerfColumn pc;
                pc.label = name->str + "/" + backend;
                for (const auto &[pname, pval] : phases->members) {
                    PhaseRow pr;
                    pr.name = pname;
                    if (const JsonValue *s = pval.find("seconds"))
                        pr.seconds = s->number;
                    pr.laps = memberCounter(&pval, "laps");
                    pc.phases.push_back(pr);
                }
                in.columns.push_back(std::move(pc));
            }
        }
        return in;
    }

    const JsonValue *scalars = root->find("scalars");
    const JsonValue *counters = root->find("counters");
    if (!scalars && !counters) {
        *error = path + ": neither a perfbench file (no schema) nor "
                        "a stats export (no scalars/counters)";
        return std::nullopt;
    }
    in.kind = "stats";
    PerfColumn pc;
    pc.label = "run";
    const std::string prefix = "engine.phase.";
    const std::string suffix = ".seconds";
    if (scalars) {
        for (const auto &[key, val] : scalars->members) {
            if (key.rfind(prefix, 0) != 0 ||
                key.size() <= prefix.size() + suffix.size() ||
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) != 0)
                continue;
            PhaseRow pr;
            pr.name = key.substr(prefix.size(), key.size() -
                                                    prefix.size() -
                                                    suffix.size());
            pr.seconds = val.number;
            pr.laps = memberCounter(counters,
                                    prefix + pr.name + ".laps");
            pc.phases.push_back(pr);
        }
    }
    if (!pc.phases.empty())
        in.columns.push_back(std::move(pc));
    if (counters && (counters->contains("engine.cache_hits") ||
                     counters->contains("engine.cache_misses"))) {
        in.hasCache = true;
        in.cacheHits = memberCounter(counters, "engine.cache_hits");
        in.cacheMisses = memberCounter(counters, "engine.cache_misses");
    }
    in.profSteps = memberCounter(counters, "engine.prof.steps");
    in.profSampled =
        memberCounter(counters, "engine.prof.sampled_steps");
    // The period is a configuration gauge, so it lives in scalars.
    in.profPeriod =
        memberCounter(scalars, "engine.prof.sample_period");
    return in;
}

std::string
fmtShare(double part, double whole)
{
    return whole > 0.0 ? formatPercent(part / whole, 1)
                       : std::string("n/a");
}

void
perfMarkdown(const PerfInput &in, std::ostream &os)
{
    os << "# padtrace perf — engine phase breakdown\n\n";
    os << "Input: " << in.path << " ("
       << (in.kind == "stats" ? "stats export" : "perfbench")
       << ")\n\n";
    for (const PerfColumn &col : in.columns) {
        const double total = col.totalSeconds();
        TextTable t(col.label);
        t.setHeader({"phase", "seconds", "share", "laps"});
        for (const PhaseRow &p : col.phases)
            t.addRow({p.name, formatFixed(p.seconds, 6),
                      fmtShare(p.seconds, total),
                      std::to_string(p.laps)});
        t.addRow({"total", formatFixed(total, 6), "100.0%", ""});
        t.print(os);
        os << "\n";
    }
    if (in.hasCache) {
        const double lookups =
            static_cast<double>(in.cacheHits + in.cacheMisses);
        os << "Caches: " << in.cacheHits << " hits, "
           << in.cacheMisses << " misses ("
           << fmtShare(static_cast<double>(in.cacheHits), lookups)
           << " hit rate).\n";
    }
    if (in.profSteps > 0)
        os << "Sampling: " << in.profSampled << " of " << in.profSteps
           << " steps timed (period " << in.profPeriod
           << "); phase seconds are sampled sums, shares are "
              "unbiased.\n";
}

void
perfJson(const PerfInput &in, std::ostream &os)
{
    JsonWriter w(os, 2);
    w.beginObject();
    w.key("input").value(in.path);
    w.key("kind").value(in.kind);
    w.key("columns").beginArray();
    for (const PerfColumn &col : in.columns) {
        const double total = col.totalSeconds();
        w.beginObject();
        w.key("label").value(col.label);
        w.key("total_seconds").value(total);
        w.key("phases").beginArray();
        for (const PhaseRow &p : col.phases) {
            w.beginObject();
            w.key("name").value(p.name);
            w.key("seconds").value(p.seconds);
            w.key("share").value(total > 0.0 ? p.seconds / total
                                             : 0.0);
            w.key("laps").value(p.laps);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    if (in.hasCache) {
        w.key("cache").beginObject();
        w.key("hits").value(in.cacheHits);
        w.key("misses").value(in.cacheMisses);
        w.endObject();
    }
    if (in.profSteps > 0) {
        w.key("sampling").beginObject();
        w.key("steps").value(in.profSteps);
        w.key("sampled_steps").value(in.profSampled);
        w.key("sample_period").value(in.profPeriod);
        w.endObject();
    }
    w.endObject();
    os << "\n";
}

/** A row of the --compare output. */
struct CompareRow {
    std::string what, unit;
    double before = 0.0, after = 0.0;
    /** The larger of the two files' IQRs (benchmark rows only). */
    double noise = 0.0;
    /** Relative change, positive = got worse. */
    double worse = 0.0;
    bool regressed = false;
};

/**
 * Flag anything more than 5% worse than the old run whose move also
 * exceeds both files' IQRs: a move inside either run's own spread is
 * noise. Files without IQRs fall back to the 5% bar alone.
 */
constexpr double kRegressionThreshold = 0.05;

std::vector<CompareRow>
comparePerf(const PerfInput &before, const PerfInput &after)
{
    std::vector<CompareRow> rows;
    // Benchmark throughput/latency cells, matched by row x backend.
    for (const BenchValue &b : before.values) {
        for (const BenchValue &a : after.values) {
            if (a.row != b.row || a.backend != b.backend)
                continue;
            if (b.value <= 0.0 || a.value <= 0.0)
                continue;
            CompareRow r;
            r.what = b.row + "/" + b.backend;
            r.unit = b.unit;
            r.before = b.value;
            r.after = a.value;
            r.noise = std::max(b.iqr, a.iqr);
            r.worse = b.higherIsBetter
                          ? (b.value - a.value) / b.value
                          : (a.value - b.value) / b.value;
            r.regressed = r.worse > kRegressionThreshold &&
                          std::abs(a.value - b.value) > r.noise;
            rows.push_back(r);
        }
    }
    // Phase shares, matched by column label x phase name. Shares
    // rather than raw seconds: two runs of different length still
    // compare, and a phase claiming a bigger slice of the pipeline
    // is the regression signal we care about.
    for (const PerfColumn &bc : before.columns) {
        for (const PerfColumn &ac : after.columns) {
            if (ac.label != bc.label)
                continue;
            const double bTotal = bc.totalSeconds();
            const double aTotal = ac.totalSeconds();
            if (bTotal <= 0.0 || aTotal <= 0.0)
                continue;
            for (const PhaseRow &bp : bc.phases) {
                for (const PhaseRow &ap : ac.phases) {
                    if (ap.name != bp.name)
                        continue;
                    CompareRow r;
                    r.what = bc.label + ":" + bp.name;
                    r.unit = "share";
                    r.before = bp.seconds / bTotal;
                    r.after = ap.seconds / aTotal;
                    r.worse = r.after - r.before;
                    // A share regression is an absolute shift, not
                    // relative: +5 points of pipeline share.
                    r.regressed = r.worse > kRegressionThreshold;
                    rows.push_back(r);
                }
            }
        }
    }
    return rows;
}

void
compareMarkdown(const PerfInput &before, const PerfInput &after,
                const std::vector<CompareRow> &rows, std::ostream &os)
{
    os << "# padtrace perf — comparison\n\n";
    os << "Old: " << before.path << "\nNew: " << after.path << "\n\n";
    std::size_t regressions = 0;
    TextTable t("perf comparison");
    t.setHeader(
        {"metric", "unit", "old", "new", "IQR", "worse by", "flag"});
    for (const CompareRow &r : rows) {
        if (r.regressed)
            ++regressions;
        t.addRow({r.what, r.unit, formatFixed(r.before, 4),
                  formatFixed(r.after, 4), formatFixed(r.noise, 4),
                  formatPercent(r.worse, 1),
                  r.regressed ? "REGRESSED" : ""});
    }
    t.print(os);
    os << "\n"
       << regressions << " regression(s) flagged (threshold "
       << formatPercent(kRegressionThreshold, 0)
       << " worse and a move beyond both files' IQRs).\n";
}

void
compareJson(const PerfInput &before, const PerfInput &after,
            const std::vector<CompareRow> &rows, std::ostream &os)
{
    JsonWriter w(os, 2);
    w.beginObject();
    w.key("old").value(before.path);
    w.key("new").value(after.path);
    w.key("threshold").value(kRegressionThreshold);
    std::size_t regressions = 0;
    w.key("rows").beginArray();
    for (const CompareRow &r : rows) {
        if (r.regressed)
            ++regressions;
        w.beginObject();
        w.key("metric").value(r.what);
        w.key("unit").value(r.unit);
        w.key("old").value(r.before);
        w.key("new").value(r.after);
        w.key("iqr").value(r.noise);
        w.key("worse_by").value(r.worse);
        w.key("regressed").value(r.regressed);
        w.endObject();
    }
    w.endArray();
    w.key("regressions")
        .value(static_cast<std::uint64_t>(regressions));
    w.endObject();
    os << "\n";
}

int
runPerf(const Options &opt, std::ostream &os)
{
    std::string error;
    const auto first = loadPerfInput(opt.tracePath, &error);
    if (!first) {
        std::cerr << "padtrace: " << error << "\n";
        return 1;
    }
    if (!opt.compare) {
        if (first->columns.empty()) {
            std::cerr << "padtrace: no profiling counters in "
                      << opt.tracePath
                      << " (profiled runs need padsim "
                         "--profile-engine; perfbench files need "
                         "schema v3)\n";
            return 1;
        }
        if (opt.format == "json")
            perfJson(*first, os);
        else
            perfMarkdown(*first, os);
        return 0;
    }
    const auto second = loadPerfInput(opt.secondPath, &error);
    if (!second) {
        std::cerr << "padtrace: " << error << "\n";
        return 1;
    }
    for (const PerfInput *in : {&*first, &*second}) {
        if (in->columns.empty() && in->values.empty()) {
            std::cerr << "padtrace: no profiling counters in "
                      << in->path << "\n";
            return 1;
        }
    }
    if (first->kind != second->kind) {
        std::cerr << "padtrace: cannot compare a " << first->kind
                  << " file against a " << second->kind << " file\n";
        return 1;
    }
    const auto rows = comparePerf(*first, *second);
    if (opt.format == "json")
        compareJson(*first, *second, rows, os);
    else
        compareMarkdown(*first, *second, rows, os);
    // Advisory by design: CI wires this in warn-only, so flagged
    // regressions land in the artifact, not the exit code.
    return 0;
}

/** One-line markdown digest of a sealed incident (--follow). */
void
incidentLineMd(const alert::Incident &inc, std::ostream &os)
{
    os << "- [" << alert::severityName(inc.severity) << "] "
       << inc.id() << " signal " << inc.signal << " fired "
       << formatFixed(ticksToSeconds(inc.firingSince), 1)
       << "s resolved "
       << (inc.resolvedAt == kTickNever
               ? std::string("n/a")
               : formatFixed(ticksToSeconds(inc.resolvedAt), 1) + "s")
       << " trigger " << formatFixed(inc.triggerValue, 4)
       << " limit " << formatFixed(inc.threshold, 4) << "\n"
       << std::flush;
}

/**
 * `incidents --follow`: poll-tail a growing incidents.jsonl — the
 * live stream a padd daemon writes — and print each newly sealed
 * incident as one markdown line. Only complete, newline-terminated
 * records are consumed (the writer flushes per line, so a torn read
 * can only ever be the in-progress tail); a missing file or a poll
 * with no new bytes just counts as idle. A shrinking file means the
 * stream was rotated or restarted: follow starts over from the top.
 */
int
followIncidents(const Options &opt, std::ostream &os)
{
    std::size_t offset = 0;
    int idle = 0;
    for (;;) {
        bool gotNew = false;
        std::ifstream in(opt.tracePath, std::ios::binary);
        if (in) {
            in.seekg(0, std::ios::end);
            const auto size =
                static_cast<std::size_t>(in.tellg());
            if (size < offset)
                offset = 0; // rotated/truncated: start over
            if (size > offset) {
                in.seekg(static_cast<std::streamoff>(offset));
                std::string chunk(size - offset, '\0');
                in.read(chunk.data(),
                        static_cast<std::streamsize>(chunk.size()));
                chunk.resize(
                    static_cast<std::size_t>(in.gcount()));
                const auto lastNl = chunk.rfind('\n');
                if (lastNl != std::string::npos) {
                    const std::string_view complete(
                        chunk.data(), lastNl + 1);
                    std::string error;
                    const auto incidents =
                        alert::readIncidentsJsonl(complete, &error);
                    if (!incidents) {
                        std::cerr << "padtrace: " << error << "\n";
                        return 1;
                    }
                    for (const auto &inc : *incidents)
                        incidentLineMd(inc, os);
                    offset += lastNl + 1;
                    gotNew = !incidents->empty();
                }
            }
        }
        if (gotNew)
            idle = 0;
        else if (opt.idleExit > 0 && ++idle >= opt.idleExit)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt.pollMs));
    }
}

/**
 * The `incidents` command: reads an incidents.jsonl (strictly — it
 * is a machine-written artifact, unlike a possibly-truncated trace)
 * and re-renders it as a table, JSONL or the HTML dashboard.
 */
int
runIncidents(const Options &opt, std::ostream &os)
{
    if (opt.follow)
        return followIncidents(opt, os);
    std::string error;
    const auto incidents =
        alert::readIncidentsFile(opt.tracePath, &error);
    if (!incidents) {
        std::cerr << "padtrace: " << error << "\n";
        return 1;
    }
    if (opt.format == "json")
        alert::writeIncidentsJsonl(os, *incidents);
    else
        incidentsMarkdown(*incidents, os);
    if (!opt.htmlPath.empty()) {
        std::ofstream html(opt.htmlPath);
        if (!html) {
            std::cerr << "padtrace: cannot write " << opt.htmlPath
                      << "\n";
            return 1;
        }
        alert::writeIncidentDashboard(html, *incidents);
    }
    return 0;
}

// ---------------------------------------------------------------------
// prom: exposition grammar check
// ---------------------------------------------------------------------

/** Slurp a validator input: `-` reads stdin (for shell pipelines). */
std::optional<std::string>
readValidatorInput(const std::string &path)
{
    std::stringstream buf;
    if (path == "-") {
        buf << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in)
            return std::nullopt;
        buf << in.rdbuf();
    }
    return buf.str();
}

/** Display name for validator messages: stdin has no path. */
std::string
inputName(const std::string &path)
{
    return path == "-" ? std::string("<stdin>") : path;
}

/**
 * Run the in-tree promtool-style grammar validator over a scraped or
 * dumped exposition, so shell pipelines (the CI padd smoke job) get
 * the same check the unit tests apply in-process.
 */
int
runProm(const Options &opt)
{
    const auto text = readValidatorInput(opt.tracePath);
    if (!text) {
        std::cerr << "padtrace: cannot read " << opt.tracePath
                  << "\n";
        return 1;
    }
    std::string error;
    if (!telemetry::validatePromExposition(*text, &error)) {
        std::cerr << "padtrace: " << inputName(opt.tracePath) << ": "
                  << error << "\n";
        return 1;
    }
    const auto lines =
        std::count(text->begin(), text->end(), '\n');
    std::cout << inputName(opt.tracePath)
              << ": valid Prometheus exposition (" << lines
              << " lines)\n";
    return 0;
}

// ---------------------------------------------------------------------
// rw: remote-write stream / spool validator
// ---------------------------------------------------------------------

/**
 * Validate a pad-rw-v1 stream — a framed wire capture or a bare
 * JSONL spool file, auto-detected by the frame header — and print a
 * one-paragraph digest. The checks mirror what the receiver enforces
 * (parseable records, strictly increasing per-source sequence
 * numbers, non-decreasing ticks within a chunk), so a stream that
 * passes here merges cleanly.
 */
int
runRw(const Options &opt)
{
    const auto text = readValidatorInput(opt.tracePath);
    if (!text) {
        std::cerr << "padtrace: cannot read " << opt.tracePath
                  << "\n";
        return 1;
    }
    std::string error;
    telemetry::RwStreamInfo info;
    if (!telemetry::validateRwStream(*text, &error, &info)) {
        std::cerr << "padtrace: " << inputName(opt.tracePath) << ": "
                  << error << "\n";
        return 1;
    }
    std::cout << inputName(opt.tracePath) << ": valid pad-rw-v1 "
              << (info.framed ? "framed stream" : "spool") << "; "
              << info.batches << " batch(es), " << info.statsBatches
              << " stats dump(s), " << info.samples << " samples from "
              << info.sources.size() << " source(s)";
    if (!info.sources.empty()) {
        std::cout << " [";
        for (std::size_t i = 0; i < info.sources.size(); ++i)
            std::cout << (i ? ", " : "") << info.sources[i];
        std::cout << "]";
    }
    if (info.firstTick != kTickNever)
        std::cout << "; ticks "
                  << formatFixed(ticksToSeconds(info.firstTick), 1)
                  << "s.."
                  << formatFixed(ticksToSeconds(info.lastTick), 1)
                  << "s";
    if (info.truncatedTail)
        std::cout << "; truncated tail record ignored (crash-cut)";
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!opt.outPath.empty()) {
        file.open(opt.outPath);
        if (!file) {
            std::cerr << "padtrace: cannot write " << opt.outPath
                      << "\n";
            return 1;
        }
        os = &file;
    }

    if (opt.command == "incidents")
        return runIncidents(opt, *os);
    if (opt.command == "perf")
        return runPerf(opt, *os);
    if (opt.command == "prom")
        return runProm(opt);
    if (opt.command == "rw")
        return runRw(opt);

    std::string error;
    const auto log =
        telemetry::readTraceLogFile(opt.tracePath, &error);
    if (!log) {
        std::cerr << "padtrace: " << error << "\n";
        return 1;
    }
    // Echo the corrupt-line tally on stderr too, so it is visible
    // even when --out or a non-report command hides the report body.
    if (log->skipped > 0)
        std::cerr << "padtrace: skipped " << log->skipped
                  << " corrupt line(s) in " << opt.tracePath << "\n";

    const Forensics fx = analyze(*log, opt.job);
    if (opt.command == "timeline")
        timelineOut(buildTimeline(*log, opt.job), opt.format, *os);
    else if (opt.command == "summary")
        summaryOut(fx, opt.format, *os);
    else if (opt.format == "json")
        reportJson(fx, *os);
    else if (opt.format == "csv")
        reportCsv(fx, *os);
    else
        reportMarkdown(fx, *os);
    return 0;
}
