/**
 * @file
 * Thread-local tracer binding.
 *
 * Tracing is opt-in per thread: a TraceScope binds a sink (and a
 * sweep-job index) to the current thread, components emit through
 * free functions, and everything keys off one thread-local pointer.
 * The contract that keeps disabled tracing free:
 *
 *   if (obs::traceEnabled())
 *       obs::emit("policy", "policy.transition",
 *                 {obs::TraceField::integer("to", 2)});
 *
 * With no scope bound, traceEnabled() is a thread-local pointer test
 * and nothing — not even the field list — is materialized. Components
 * without their own clock rely on whoever drives them (DataCenter,
 * the experiment loop) calling setTraceClock(now) each step.
 */

#ifndef PAD_OBS_TRACER_H
#define PAD_OBS_TRACER_H

#include <initializer_list>
#include <string_view>

#include "obs/trace_event.h"
#include "obs/trace_sink.h"

namespace pad::obs {

namespace detail {

// constinit tells every includer the variables need no dynamic
// initialization, so they are read directly rather than through a TLS
// wrapper. GCC 12 with -fsanitize=undefined miscompiles the wrapper's
// null check (it branches on stale flags) and reports a null load.
extern thread_local constinit TraceSink *tlsSink;
extern thread_local constinit Tick tlsClock;
extern thread_local constinit int tlsJob;

} // namespace detail

/** True when a sink is bound to this thread. Guard every emit. */
inline bool
traceEnabled()
{
    return detail::tlsSink != nullptr;
}

/** Advance this thread's notion of sim time for emitted events. */
inline void
setTraceClock(Tick now)
{
    detail::tlsClock = now;
}

/** Current trace clock (sim ticks). */
inline Tick
traceClock()
{
    return detail::tlsClock;
}

/**
 * Sink currently bound to this thread, or nullptr when tracing is
 * disabled. Lets adapters (the alert engine's AlertTraceSink) wrap
 * whatever sink the caller already had and pass events through.
 */
inline TraceSink *
currentTraceSink()
{
    return detail::tlsSink;
}

/** Sweep-job index bound to this thread; -1 on the main thread. */
inline int
currentTraceJob()
{
    return detail::tlsJob;
}

/**
 * Bind @p sink (and sweep-job @p job) to the current thread for the
 * scope's lifetime. Nestable; restores the previous binding. Passing
 * nullptr disables tracing within the scope.
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceSink *sink, int job = -1);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceSink *prevSink_;
    Tick prevClock_;
    int prevJob_;
};

/** Emit an instant event at the current trace clock. */
void emit(std::string_view component, std::string_view name,
          std::initializer_list<TraceField> fields = {});

/** Emit an instant event at an explicit sim time. */
void emitAt(Tick when, std::string_view component, std::string_view name,
            std::initializer_list<TraceField> fields = {});

/** Emit a completed span covering sim ticks [start, end]. */
void emitSpan(Tick start, Tick end, std::string_view component,
              std::string_view name,
              std::initializer_list<TraceField> fields = {});

/**
 * Emit a counter sample at the current trace clock. Fields should be
 * numeric; Chrome/Perfetto render them as a stacked counter track
 * named after the event, so periodic samples become a timeline.
 */
void emitCounter(std::string_view component, std::string_view name,
                 std::initializer_list<TraceField> fields);

} // namespace pad::obs

#endif // PAD_OBS_TRACER_H
