/**
 * @file
 * Deterministic session records for the padd live service
 * (DESIGN.md §13).
 *
 * A padd session is a simulation run plus a sequence of external
 * inputs (control commands) that arrived while it was live. Every
 * input is stamped with the sim-time tick at which the daemon
 * applied it, so the session is a pure function of (configuration,
 * command sequence): `padd --replay session.jsonl` re-executes the
 * same engine calls at the same ticks and produces byte-identical
 * incidents, stats and telemetry artifacts — the project's standing
 * parallel==serial determinism discipline extended to interactive
 * wall-clock sessions.
 *
 * The record is JSONL, one self-contained object per line, written
 * line-buffered (flushed per line) so a crash or `tail -f` never
 * sees a truncated record:
 *
 *   {"type":"header","version":1,"tool":"padd",
 *    "config":{...ServiceConfig...},"rules":"<rules JSON text>"}
 *   {"type":"cmd","seq":0,"tick":99900000,"name":"inject-attack",
 *    "spec":{...AttackSpec...}}
 *   {"type":"cmd","seq":1,"tick":100200000,"name":"shutdown"}
 *   {"type":"end","tick":100200000}
 *
 * The alert rules text is embedded verbatim in the header so a
 * session file is self-contained: replay does not depend on the
 * rules file still existing (or still having the same content).
 *
 * Wall-clock-only commands (pause/resume/set-speed) are recorded
 * too — they document the operator's session — but replay applies
 * them as no-ops: they change when things happened in wall time,
 * never what happened in sim time.
 */

#ifndef PAD_SERVICE_SESSION_H
#define PAD_SERVICE_SESSION_H

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "attack/power_virus.h"
#include "attack/virus_trace.h"
#include "core/schemes.h"
#include "util/json.h"
#include "util/types.h"

namespace pad::service {

/** Static configuration of one padd session (the header payload). */
struct ServiceConfig {
    core::SchemeKind scheme = core::SchemeKind::Pad;
    /** Per-rack soft-budget fraction (padsim --budget). */
    double budget = 0.75;
    /** Cluster budget fraction (padsim --cluster-budget). */
    double clusterBudget = 0.70;
    /** Warmup: the service goes live at day 1 + this hour. */
    double hour = 11.0;
    /** Synthetic-trace length in days; demand flatlines past it. */
    double days = 2.0;
    /**
     * Auto-shutdown after this many simulated seconds of live
     * service; 0 = run until a shutdown command arrives.
     */
    double durationSec = 0.0;
    std::uint64_t seed = 42;
    /** Detector-triggered capping response (padsim --detector). */
    bool detector = false;
};

/** One scenario injection: a power virus against the live fleet. */
struct AttackSpec {
    attack::VirusKind virus = attack::VirusKind::CpuIntensive;
    attack::AttackStyle style = attack::AttackStyle::Dense;
    /** Attacker-controlled servers per victim rack. */
    int nodes = 4;
    /** Victim racks (primary + extras by descending load). */
    int racks = 8;
    /** Attack-window length, seconds. */
    double durationSec = 1500.0;
    /** Load percentile of the primary victim rack. */
    double victimPct = 90.0;
    /** Attacker RNG seed. */
    std::uint64_t seed = 42;
};

/** One recorded external input, stamped with its apply tick. */
struct SessionCommand {
    /** Monotonic sequence number within the session. */
    std::uint64_t seq = 0;
    /** Sim tick the daemon applied the command at. */
    Tick tick = 0;
    /** "inject-attack", "pause", "resume", "set-speed", "shutdown". */
    std::string name;
    /** inject-attack payload. */
    std::optional<AttackSpec> spec;
    /** set-speed payload: sim-seconds per wall second; 0 = max. */
    double speed = 0.0;
};

/** A fully parsed session record. */
struct SessionLog {
    ServiceConfig config;
    /** Verbatim alert-rules JSON text; empty = alerting off. */
    std::string rules;
    std::vector<SessionCommand> commands;
    /** Tick the session ended at (the "end" line). */
    Tick endTick = 0;
};

/** Serialize @p spec as a JSON object ({"virus":...}). */
std::string renderAttackSpec(const AttackSpec &spec);

/**
 * Parse an inject-attack spec object (all fields optional, padsim
 * defaults apply). Returns nullopt with a message on a malformed or
 * out-of-range field — specs arrive over the control channel, so
 * validation errors must be reportable, not fatal.
 */
std::optional<AttackSpec> parseAttackSpec(std::string_view text,
                                          std::string *error = nullptr);

/**
 * parseAttackSpec() over an already-parsed JSON node — the control
 * channel embeds the spec as a sub-object of the command line.
 */
std::optional<AttackSpec> parseAttackSpecValue(const JsonValue &node,
                                               std::string *error = nullptr);

/**
 * Streaming session writer. Each write emits one line and flushes;
 * the file is valid (replayable up to its last line) at all times.
 */
class SessionWriter
{
  public:
    /** Open @p path for writing; ok() is false on failure. */
    explicit SessionWriter(const std::string &path);

    bool ok() const { return static_cast<bool>(os_); }

    void writeHeader(const ServiceConfig &config,
                     const std::string &rulesText);
    void writeCommand(const SessionCommand &cmd);
    void writeEnd(Tick tick);

  private:
    std::ofstream os_;
};

/**
 * Parse a session file. Strict, like the incidents reader: every
 * line must be a well-formed record of a known type, the header
 * must come first, and the end line (when present) must be last.
 * Returns nullopt with a line-numbered message on failure.
 */
std::optional<SessionLog> parseSession(std::string_view text,
                                       std::string *error = nullptr);

/** parseSession() over the contents of @p path. */
std::optional<SessionLog> readSessionFile(const std::string &path,
                                          std::string *error = nullptr);

/** Spelling helpers shared by the session codec and the CLIs. */
const char *virusName(attack::VirusKind kind);
std::optional<attack::VirusKind> virusFromName(std::string_view name);
const char *styleName(attack::AttackStyle style);
std::optional<attack::AttackStyle>
styleFromName(std::string_view name);

} // namespace pad::service

#endif // PAD_SERVICE_SESSION_H
