#include "obs/tracer.h"

namespace pad::obs {

namespace detail {

constinit thread_local TraceSink *tlsSink = nullptr;
constinit thread_local Tick tlsClock = 0;
constinit thread_local int tlsJob = -1;

} // namespace detail

TraceScope::TraceScope(TraceSink *sink, int job)
    : prevSink_(detail::tlsSink), prevClock_(detail::tlsClock),
      prevJob_(detail::tlsJob)
{
    detail::tlsSink = sink;
    detail::tlsClock = 0;
    detail::tlsJob = job;
}

TraceScope::~TraceScope()
{
    detail::tlsSink = prevSink_;
    detail::tlsClock = prevClock_;
    detail::tlsJob = prevJob_;
}

void
emit(std::string_view component, std::string_view name,
     std::initializer_list<TraceField> fields)
{
    emitAt(detail::tlsClock, component, name, fields);
}

void
emitAt(Tick when, std::string_view component, std::string_view name,
       std::initializer_list<TraceField> fields)
{
    TraceSink *sink = detail::tlsSink;
    if (!sink)
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::Instant;
    event.when = when;
    event.job = detail::tlsJob;
    event.component = component;
    event.name = name;
    event.fields = fields.begin();
    event.numFields = fields.size();
    sink->write(event);
}

void
emitCounter(std::string_view component, std::string_view name,
            std::initializer_list<TraceField> fields)
{
    TraceSink *sink = detail::tlsSink;
    if (!sink)
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::Counter;
    event.when = detail::tlsClock;
    event.job = detail::tlsJob;
    event.component = component;
    event.name = name;
    event.fields = fields.begin();
    event.numFields = fields.size();
    sink->write(event);
}

void
emitSpan(Tick start, Tick end, std::string_view component,
         std::string_view name, std::initializer_list<TraceField> fields)
{
    TraceSink *sink = detail::tlsSink;
    if (!sink)
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::Complete;
    event.when = start;
    event.duration = end >= start ? end - start : 0;
    event.job = detail::tlsJob;
    event.component = component;
    event.name = name;
    event.fields = fields.begin();
    event.numFields = fields.size();
    sink->write(event);
}

} // namespace pad::obs
