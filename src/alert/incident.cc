#include "alert/incident.h"

#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/json_writer.h"

namespace pad::alert {

std::string
Incident::id() const
{
    std::string out;
    if (job >= 0)
        out += "job" + std::to_string(job) + ".";
    out += rule + ":" + signal + "@" + std::to_string(firingSince);
    return out;
}

void
writeIncidentLine(std::ostream &os, const Incident &inc)
{
    {
        JsonWriter w(os);
        w.beginObject()
            .key("id").value(inc.id())
            .key("rule").value(inc.rule)
            .key("signal").value(inc.signal)
            .key("severity").value(severityName(inc.severity))
            .key("predicate").value(predicateName(inc.predicate))
            .key("job").value(inc.job)
            .key("pending_ts").value(static_cast<std::int64_t>(
                inc.pendingSince))
            .key("firing_ts").value(static_cast<std::int64_t>(
                inc.firingSince))
            .key("resolved_ts").value(static_cast<std::int64_t>(
                inc.resolvedAt))
            .key("trigger_value").value(inc.triggerValue)
            .key("threshold").value(inc.threshold)
            .key("context_from").value(static_cast<std::int64_t>(
                inc.contextFrom))
            .key("context_until").value(static_cast<std::int64_t>(
                inc.contextUntil));
        w.key("context").beginArray();
        for (const IncidentSeries &series : inc.context) {
            w.beginObject().key("signal").value(series.signal);
            w.key("samples").beginArray();
            for (const FlightSample &s : series.samples)
                w.beginArray()
                    .value(static_cast<std::int64_t>(s.when))
                    .value(s.value)
                    .endArray();
            w.endArray().endObject();
        }
        w.endArray();
        if (!inc.description.empty())
            w.key("description").value(inc.description);
        w.endObject();
    }
    os << "\n" << std::flush;
}

void
writeIncidentsJsonl(std::ostream &os,
                    const std::vector<Incident> &incidents)
{
    for (const Incident &inc : incidents)
        writeIncidentLine(os, inc);
}

std::string
renderIncidentsJsonl(const std::vector<Incident> &incidents)
{
    std::ostringstream os;
    writeIncidentsJsonl(os, incidents);
    return os.str();
}

namespace {

bool
parseIncidentLine(const JsonValue &node, Incident &out,
                  std::string &what)
{
    if (!node.isObject()) {
        what = "incident must be an object";
        return false;
    }
    auto str = [&](const char *key, std::string &dst,
                   bool required) -> bool {
        const JsonValue *v = node.find(key);
        if (!v) {
            if (required)
                what = std::string("missing \"") + key + "\"";
            return !required;
        }
        if (!v->isString()) {
            what = std::string("\"") + key + "\" must be a string";
            return false;
        }
        dst = v->str;
        return true;
    };
    auto num = [&](const char *key, double &dst) -> bool {
        const JsonValue *v = node.find(key);
        if (!v || !v->isNumber()) {
            what = std::string("missing numeric \"") + key + "\"";
            return false;
        }
        dst = v->number;
        return true;
    };
    auto tick = [&](const char *key, Tick &dst) -> bool {
        double d = 0.0;
        if (!num(key, d))
            return false;
        if (!tickFrom(d, dst)) {
            what = std::string("\"") + key + "\" out of range";
            return false;
        }
        return true;
    };

    std::string severity, predicate;
    if (!str("rule", out.rule, true) ||
        !str("signal", out.signal, true) ||
        !str("severity", severity, true) ||
        !str("predicate", predicate, true) ||
        !str("description", out.description, false))
        return false;
    const auto sev = severityFromName(severity);
    if (!sev) {
        what = "unknown severity: " + severity;
        return false;
    }
    out.severity = *sev;
    const auto pred = predicateFromName(predicate);
    if (!pred) {
        what = "unknown predicate: " + predicate;
        return false;
    }
    out.predicate = *pred;

    double job = -1.0;
    if (!num("job", job))
        return false;
    if (!intFrom(job, out.job)) {
        what = "\"job\" out of range";
        return false;
    }
    if (!tick("pending_ts", out.pendingSince) ||
        !tick("firing_ts", out.firingSince) ||
        !tick("resolved_ts", out.resolvedAt) ||
        !num("trigger_value", out.triggerValue) ||
        !num("threshold", out.threshold) ||
        !tick("context_from", out.contextFrom) ||
        !tick("context_until", out.contextUntil))
        return false;

    const JsonValue *context = node.find("context");
    if (!context || !context->isArray()) {
        what = "missing \"context\" array";
        return false;
    }
    for (const JsonValue &entry : context->array) {
        IncidentSeries series;
        if (!entry.isObject()) {
            what = "context entry must be an object";
            return false;
        }
        const JsonValue *signal = entry.find("signal");
        const JsonValue *samples = entry.find("samples");
        if (!signal || !signal->isString() || !samples ||
            !samples->isArray()) {
            what = "context entry needs \"signal\" and \"samples\"";
            return false;
        }
        series.signal = signal->str;
        for (const JsonValue &pair : samples->array) {
            if (!pair.isArray() || pair.array.size() != 2 ||
                !pair.array[0].isNumber() ||
                !pair.array[1].isNumber()) {
                what = "sample must be a [ts, value] pair";
                return false;
            }
            Tick when = 0;
            if (!tickFrom(pair.array[0].number, when)) {
                what = "sample timestamp out of range";
                return false;
            }
            series.samples.push_back(
                FlightSample{when, pair.array[1].number});
        }
        out.context.push_back(std::move(series));
    }
    return true;
}

} // namespace

std::optional<std::vector<Incident>>
readIncidentsJsonl(std::string_view text, std::string *error)
{
    std::vector<Incident> out;
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view line =
            text.substr(pos, eol == std::string_view::npos
                                 ? std::string_view::npos
                                 : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++lineNo;
        if (line.empty())
            continue;

        std::string what;
        const auto node = parseJson(line, &what);
        Incident inc;
        if (!node || !parseIncidentLine(*node, inc, what)) {
            if (error)
                *error = "line " + std::to_string(lineNo) + ": " +
                         what;
            return std::nullopt;
        }
        out.push_back(std::move(inc));
    }
    return out;
}

std::optional<std::vector<Incident>>
readIncidentsFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open incidents file: " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto out = readIncidentsJsonl(buf.str(), error);
    if (!out && error)
        *error = path + ": " + *error;
    return out;
}

} // namespace pad::alert
