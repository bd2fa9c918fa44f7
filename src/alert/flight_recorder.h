/**
 * @file
 * Flight recorder: bounded full-resolution sample history.
 *
 * The alert engine listens to the telemetry hub under the hub's lock,
 * and the trace events it observes never reach a hub, so it cannot
 * read the hub's rings when an instance fires. The flight recorder
 * keeps the most recent raw samples of every signal in its own
 * fixed-size ring — memory bounded regardless of run length — so a
 * firing alert can snapshot a ±window of full-resolution context
 * into its incident record.
 *
 * Not thread-safe: each AlertEngine owns one recorder and both are
 * driven from a single simulation thread (DESIGN.md §10).
 */

#ifndef PAD_ALERT_FLIGHT_RECORDER_H
#define PAD_ALERT_FLIGHT_RECORDER_H

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pad::alert {

/** One retained observation. */
struct FlightSample {
    Tick when = 0;
    double value = 0.0;
};

class FlightRecorder
{
  public:
    /** Per-signal bounded history. */
    struct Ring {
        explicit Ring(std::size_t capacity) : capacity(capacity) {}

        void push(FlightSample s);

        std::size_t capacity;
        std::size_t head = 0;
        std::vector<FlightSample> buf;
    };

    /** @param capacity raw samples retained per signal. */
    explicit FlightRecorder(std::size_t capacity = 2048)
        : capacity_(capacity ? capacity : 1)
    {
    }

    /** Record one sample; @p when should be non-decreasing. */
    void record(std::string_view signal, Tick when, double value);

    /**
     * The ring of @p signal, created on first use. The reference
     * stays valid for the recorder's lifetime (map nodes are
     * stable), so per-signal callers can cache it and push without
     * repeating the name lookup.
     */
    Ring &ring(std::string_view signal);

    /**
     * Retained samples of @p signal with when in [from, to], in
     * chronological order. Empty when the signal is unknown or the
     * window predates everything still in the ring.
     */
    std::vector<FlightSample> window(std::string_view signal,
                                     Tick from, Tick to) const;

    /** Sorted names of every signal ever recorded. */
    std::vector<std::string> signals() const;

    /** Newest sample time of @p signal; kTickNever when unseen. */
    Tick lastSeen(std::string_view signal) const;

    /** Signals tracked. */
    std::size_t size() const { return rings_.size(); }

  private:
    std::size_t capacity_;
    /** std::map: deterministic iteration, stable node addresses. */
    std::map<std::string, Ring, std::less<>> rings_;
};

} // namespace pad::alert

#endif // PAD_ALERT_FLIGHT_RECORDER_H
