#include "telemetry/trace_reader.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace pad::telemetry {

const JsonValue *
TraceRecord::arg(std::string_view key) const
{
    if (!args.isObject())
        return nullptr;
    return args.find(key);
}

double
TraceRecord::argNumber(std::string_view key, double fallback) const
{
    const JsonValue *v = arg(key);
    if (!v)
        return fallback;
    if (v->isNumber())
        return v->number;
    if (v->isBool())
        return v->boolean ? 1.0 : 0.0;
    return fallback;
}

std::string
TraceRecord::argString(std::string_view key) const
{
    const JsonValue *v = arg(key);
    return v && v->isString() ? v->str : std::string();
}

TraceLog
readTraceLog(std::istream &in)
{
    TraceLog log;
    std::string line;
    while (std::getline(in, line)) {
        ++log.lines;
        if (line.empty())
            continue;

        std::string error;
        auto doc = parseJson(line, &error);
        if (!doc || !doc->isObject()) {
            ++log.skipped;
            warn("trace reader: skipping corrupt line {}: {}",
                 log.lines, doc ? "not an object" : error);
            continue;
        }
        const JsonValue *ts = doc->find("ts");
        const JsonValue *name = doc->find("name");
        if (!ts || !ts->isNumber() || !name || !name->isString()) {
            ++log.skipped;
            warn("trace reader: line {} is not a trace record",
                 log.lines);
            continue;
        }

        // Numbers round to the nearest integer; one that does not fit
        // its field makes the line corrupt.
        TraceRecord rec;
        const JsonValue *dur = doc->find("dur");
        const JsonValue *job = doc->find("job");
        if (!tickFrom(std::round(ts->number), rec.ts) ||
            (dur && dur->isNumber() &&
             !tickFrom(std::round(dur->number), rec.dur)) ||
            (job && job->isNumber() &&
             !intFrom(std::round(job->number), rec.job))) {
            ++log.skipped;
            warn("trace reader: line {} has a number out of range",
                 log.lines);
            continue;
        }
        rec.name = name->str;
        if (const JsonValue *component = doc->find("component");
            component && component->isString())
            rec.component = component->str;
        if (const JsonValue *args = doc->find("args"))
            rec.args = *args;
        log.records.push_back(std::move(rec));
    }
    return log;
}

std::optional<TraceLog>
readTraceLogFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    return readTraceLog(in);
}

} // namespace pad::telemetry
