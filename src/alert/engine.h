/**
 * @file
 * The online alert engine (DESIGN.md §10).
 *
 * AlertEngine evaluates a RuleSet against the live telemetry stream:
 * it observes every TelemetryHub sample (as a telemetry
 * SampleListener) and every curated trace event (through an
 * AlertTraceSink bound around the run), entirely on sim time. Each
 * rule tracks one independent alert *instance* per concrete signal a
 * wildcard pattern matches, and every instance walks the lifecycle
 *
 *   idle -> pending (predicate holds) -> firing (held for forSec)
 *        -> resolved (predicate stops holding)
 *
 * Firing creates an Incident whose ID derives from (rule, signal,
 * firing tick) and schedules a ±contextWindow flight-recorder
 * snapshot, sealed once the sim clock passes the window (or at
 * finalize()). Because nothing reads wall time or thread identity,
 * alert output is bit-identical between serial runs and parallel
 * sweeps (DESIGN.md §7).
 *
 * Not thread-safe: one engine belongs to one simulation job and is
 * driven from that job's thread only, like the cluster engine it
 * monitors.
 */

#ifndef PAD_ALERT_ENGINE_H
#define PAD_ALERT_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "alert/flight_recorder.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "obs/trace_sink.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "util/types.h"

namespace pad::alert {

class AlertEngine : public telemetry::SampleListener
{
  public:
    struct Options {
        /** Flight-recorder samples retained per signal. */
        std::size_t flightCapacity = 2048;
        /** Context captured around a firing moment, ± seconds. */
        double contextWindowSec = 120.0;
        /** Context series per incident (trigger + siblings). */
        std::size_t maxContextSeries = 8;
    };

    explicit AlertEngine(RuleSet rules);
    AlertEngine(RuleSet rules, const Options &opts);

    /** Telemetry sample feed (telemetry::SampleListener). */
    void onSample(std::string_view name, Tick when,
                  double value) override;

    /**
     * Hub fast path: @p seriesId indexes a cached routing decision,
     * so steady-state samples skip every by-name lookup (the id is
     * hub-local; one engine observes exactly one hub).
     */
    void onSample(std::uint32_t seriesId, std::string_view name,
                  Tick when, double value) override;

    /** Curated trace-event feed (via AlertTraceSink). */
    void observeEvent(std::string_view name, Tick when);

    /**
     * Advance the engine clock without a sample: evaluates absence
     * and event-count windows and seals ripe context captures. Also
     * called implicitly by every observation.
     */
    void advanceTo(Tick now);

    /**
     * End of run: evaluates everything up to @p endOfRun, seals all
     * open context captures (incidents still firing keep
     * resolvedAt == kTickNever) and sorts incidents by (firing tick,
     * rule, signal). Must be called exactly once, after which the
     * engine only serves queries.
     */
    void finalize(Tick endOfRun);

    /** Engine clock: the newest tick observed so far. */
    Tick now() const { return now_; }

    bool finalized() const { return finalized_; }

    /** Sealed incidents; stable order, valid after finalize(). */
    const std::vector<Incident> &incidents() const;

    /**
     * Streaming observer of sealed incidents. The sink is invoked
     * exactly once per incident, at the sim-time moment its flight-
     * recorder context is sealed (the clock passing contextUntil, or
     * finalize() for captures still open at end of run), on the
     * thread driving the engine. Seal order is a pure function of
     * sim time, so a live padd session and its deterministic replay
     * stream byte-identical incident sequences (DESIGN.md §13).
     * Note the ordering caveat: the batch incidents() view is
     * re-sorted by (firing tick, rule, signal) at finalize(), while
     * the stream arrives in seal order; and an incident that
     * resolves *after* its context window closes streams with
     * resolvedAt still kTickNever.
     */
    using IncidentSink = std::function<void(const Incident &)>;

    /** Attach @p sink (empty = detach). Call before driving. */
    void setIncidentSink(IncidentSink sink) { sink_ = std::move(sink); }

    /** Incidents sealed (and streamed) so far; valid mid-run. */
    std::size_t sealedCount() const { return sealed_; }

    /**
     * Per-rule exposition snapshot, in rule order: lifecycle state
     * (0 idle, 1 pending, 2 firing — the worst instance wins) and
     * the count of incidents fired so far.
     */
    std::vector<telemetry::AlertStateSample> ruleStates() const;

    const RuleSet &rules() const { return rules_; }

    /** Full-resolution history backing context captures. */
    const FlightRecorder &recorder() const { return recorder_; }

  private:
    static constexpr std::size_t kNoIncident = ~std::size_t{0};

    struct Instance {
        enum class State { Idle, Pending, Firing };

        std::string signal;
        State state = State::Idle;
        Tick pendingSince = kTickNever;
        /** Open incident index while Firing. */
        std::size_t incident = kNoIncident;
        /** Trailing samples (RateOfChange): a compacting window —
         *  windowHead advances past expired samples instead of
         *  erasing them, and the live tail slides back to the front
         *  only once the dead prefix dominates, so the store stays
         *  contiguous with amortized O(1) maintenance per sample. */
        std::vector<FlightSample> window;
        std::size_t windowHead = 0;
        /** Trailing event times (EventCount). */
        std::deque<Tick> events;
        /** Newest observation (Absence). */
        Tick lastSeen = kTickNever;
    };

    /**
     * A signal's routing decision, resolved once per name: the rule
     * indices it feeds, plus per-(rule, signal) Instance and flight
     * ring pointers cached on first use (map nodes are stable, so
     * the pointers stay valid for the engine's lifetime).
     */
    struct Route {
        struct Target {
            std::size_t rule = 0;
            Instance *inst = nullptr;
        };

        std::vector<Target> sampleRules;
        std::vector<Target> absenceRules;
        std::vector<Target> eventRules;
        FlightRecorder::Ring *ring = nullptr;
    };

    Route &route(std::string_view signal);
    void handleSample(Route &r, std::string_view name, Tick when,
                      double value);
    Instance &instance(std::size_t r, std::string_view signal);
    void evaluate(std::size_t r, Instance &inst, Tick when, bool cond,
                  double trigger);
    void fire(std::size_t r, Instance &inst, Tick when,
              double trigger);
    void sealCapture(Incident &incident, Tick upTo);
    void emitSealed(const Incident &incident);
    void checkWindows(Tick now);

    RuleSet rules_;
    Options opts_;
    IncidentSink sink_;
    std::size_t sealed_ = 0;
    Tick contextTicks_ = 0;
    /** Per-rule forSec / windowSec, pre-converted to ticks. */
    std::vector<Tick> forTicks_;
    std::vector<Tick> windowTicks_;
    FlightRecorder recorder_;
    /** signal name -> routing decision (samples and events alike). */
    std::map<std::string, Route, std::less<>> routes_;
    /** Hub series id -> route, the steady-state sample path. */
    std::vector<Route *> routesById_;
    /** instances_[r]: the rule's instances keyed by concrete signal. */
    std::vector<std::map<std::string, Instance, std::less<>>>
        instances_;
    std::vector<std::uint64_t> fired_;
    std::vector<Incident> incidents_;
    /** Incident indices whose context window is still open. */
    std::vector<std::size_t> openCaptures_;
    Tick now_ = 0;
    /** Last tick checkWindows() ran at, and whether its inputs
     *  (event deques, absence marks) changed since. */
    Tick windowsCheckedAt_ = kTickNever;
    bool windowsDirty_ = false;
    bool finalized_ = false;
};

/**
 * TraceSink adapter feeding curated events into an AlertEngine, with
 * optional passthrough to an inner sink (the run's real trace file).
 * Bind it with an obs::TraceScope around the monitored run; the
 * engine then sees policy transitions, µDEB shaves and attack events
 * even when no trace file was requested.
 *
 * Unlike regular obs sinks this one is NOT thread-safe: it belongs
 * to exactly one simulation job, the same contract as the engine.
 */
class AlertTraceSink : public obs::TraceSink
{
  public:
    explicit AlertTraceSink(AlertEngine &engine,
                            obs::TraceSink *inner = nullptr)
        : engine_(engine), inner_(inner)
    {
    }

    void
    write(const obs::TraceEvent &event) override
    {
        engine_.observeEvent(event.name, event.when);
        if (inner_)
            inner_->write(event);
    }

    void
    flush() override
    {
        if (inner_)
            inner_->flush();
    }

  private:
    AlertEngine &engine_;
    obs::TraceSink *inner_;
};

} // namespace pad::alert

#endif // PAD_ALERT_ENGINE_H
