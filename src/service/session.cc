#include "service/session.h"

#include <sstream>

#include "core/config.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace pad::service {

const char *
virusName(attack::VirusKind kind)
{
    switch (kind) {
      case attack::VirusKind::CpuIntensive:
        return "cpu";
      case attack::VirusKind::MemIntensive:
        return "mem";
      case attack::VirusKind::IoIntensive:
        return "io";
    }
    return "cpu";
}

std::optional<attack::VirusKind>
virusFromName(std::string_view name)
{
    if (name == "cpu")
        return attack::VirusKind::CpuIntensive;
    if (name == "mem")
        return attack::VirusKind::MemIntensive;
    if (name == "io")
        return attack::VirusKind::IoIntensive;
    return std::nullopt;
}

const char *
styleName(attack::AttackStyle style)
{
    return style == attack::AttackStyle::Sparse ? "sparse" : "dense";
}

std::optional<attack::AttackStyle>
styleFromName(std::string_view name)
{
    if (name == "dense")
        return attack::AttackStyle::Dense;
    if (name == "sparse")
        return attack::AttackStyle::Sparse;
    return std::nullopt;
}

namespace {

const char *const kSpecRange =
    "attack spec out of range (nodes 1-10, racks 1-22, "
    "duration_sec > 0, victim_pct 0-100)";

void
writeAttackSpec(JsonWriter &w, const AttackSpec &spec)
{
    w.beginObject()
        .key("virus").value(virusName(spec.virus))
        .key("style").value(styleName(spec.style))
        .key("nodes").value(spec.nodes)
        .key("racks").value(spec.racks)
        .key("duration_sec").value(spec.durationSec)
        .key("victim_pct").value(spec.victimPct)
        .key("seed").value(static_cast<std::uint64_t>(spec.seed))
        .endObject();
}

bool
parseAttackSpecNode(const JsonValue &node, AttackSpec &out,
                    std::string &what)
{
    if (!node.isObject()) {
        what = "attack spec must be an object";
        return false;
    }
    for (const auto &[key, value] : node.members) {
        if (key == "virus" || key == "style") {
            if (!value.isString()) {
                what = "\"" + key + "\" must be a string";
                return false;
            }
        } else if (!value.isNumber()) {
            what = "\"" + key + "\" must be a number";
            return false;
        }
        if (key == "virus") {
            const auto v = virusFromName(value.str);
            if (!v) {
                what = "unknown virus \"" + value.str + "\"";
                return false;
            }
            out.virus = *v;
        } else if (key == "style") {
            const auto s = styleFromName(value.str);
            if (!s) {
                what = "unknown style \"" + value.str + "\"";
                return false;
            }
            out.style = *s;
        } else if (key == "nodes" || key == "racks") {
            // Bounded before the narrowing cast; the exact ranges are
            // checked below.
            Tick n = 0;
            if (!tickFrom(value.number, n) || n < 0 || n > 1000) {
                what = kSpecRange;
                return false;
            }
            (key == "nodes" ? out.nodes : out.racks) = static_cast<int>(n);
        } else if (key == "duration_sec") {
            out.durationSec = value.number;
        } else if (key == "victim_pct") {
            out.victimPct = value.number;
        } else if (key == "seed") {
            if (!countFrom(value.number, out.seed)) {
                what = "\"seed\" out of range";
                return false;
            }
        } else {
            what = "unknown attack-spec key \"" + key + "\"";
            return false;
        }
    }
    if (out.nodes < 1 || out.nodes > 10 || out.racks < 1 ||
        out.racks > 22 || out.durationSec <= 0.0 ||
        out.victimPct < 0.0 || out.victimPct > 100.0) {
        what = kSpecRange;
        return false;
    }
    return true;
}

void
writeConfig(JsonWriter &w, const ServiceConfig &config)
{
    w.beginObject()
        .key("scheme").value(core::schemeName(config.scheme))
        .key("budget").value(config.budget)
        .key("cluster_budget").value(config.clusterBudget)
        .key("hour").value(config.hour)
        .key("days").value(config.days)
        .key("duration_sec").value(config.durationSec)
        .key("seed").value(static_cast<std::uint64_t>(config.seed))
        .key("detector").value(config.detector)
        .endObject();
}

bool
parseConfigNode(const JsonValue &node, ServiceConfig &out,
                std::string &what)
{
    if (!node.isObject()) {
        what = "\"config\" must be an object";
        return false;
    }
    for (const auto &[key, value] : node.members) {
        if (key == "scheme") {
            const auto s =
                value.isString() ? core::schemeFromName(value.str)
                                 : std::nullopt;
            if (!s) {
                what = "unknown scheme";
                return false;
            }
            out.scheme = *s;
        } else if (key == "backend") {
            // Sessions recorded while padd had a backend choice name
            // "soa", the one engine there is now. An "optimized"
            // session ran the deleted scalar engine and would not
            // replay identically.
            if (!value.isString() || value.str != "soa") {
                what = "unknown backend (sessions replay on the one "
                       "engine, \"soa\")";
                return false;
            }
        } else if (key == "detector") {
            if (!value.isBool()) {
                what = "\"detector\" must be a bool";
                return false;
            }
            out.detector = value.boolean;
        } else if (!value.isNumber()) {
            what = "\"" + key + "\" must be a number";
            return false;
        } else if (key == "budget") {
            out.budget = value.number;
        } else if (key == "cluster_budget") {
            out.clusterBudget = value.number;
        } else if (key == "hour") {
            out.hour = value.number;
        } else if (key == "days") {
            out.days = value.number;
        } else if (key == "duration_sec") {
            out.durationSec = value.number;
        } else if (key == "seed") {
            if (!countFrom(value.number, out.seed)) {
                what = "\"seed\" out of range";
                return false;
            }
        } else {
            what = "unknown config key \"" + key + "\"";
            return false;
        }
    }
    what = core::checkRunInputs(out.budget);
    return what.empty();
}

} // namespace

std::string
renderAttackSpec(const AttackSpec &spec)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeAttackSpec(w, spec);
    return os.str();
}

std::optional<AttackSpec>
parseAttackSpec(std::string_view text, std::string *error)
{
    std::string what;
    const auto node = parseJson(text, &what);
    if (!node) {
        if (error)
            *error = "attack spec: " + what;
        return std::nullopt;
    }
    AttackSpec spec;
    if (!parseAttackSpecNode(*node, spec, what)) {
        if (error)
            *error = "attack spec: " + what;
        return std::nullopt;
    }
    return spec;
}

std::optional<AttackSpec>
parseAttackSpecValue(const JsonValue &node, std::string *error)
{
    AttackSpec spec;
    std::string what;
    if (!parseAttackSpecNode(node, spec, what)) {
        if (error)
            *error = "attack spec: " + what;
        return std::nullopt;
    }
    return spec;
}

SessionWriter::SessionWriter(const std::string &path) : os_(path)
{
}

void
SessionWriter::writeHeader(const ServiceConfig &config,
                           const std::string &rulesText)
{
    JsonWriter w(os_);
    w.beginObject()
        .key("type").value("header")
        .key("version").value(1)
        .key("tool").value("padd")
        .key("config");
    writeConfig(w, config);
    w.key("rules").value(rulesText).endObject();
    os_ << "\n" << std::flush;
}

void
SessionWriter::writeCommand(const SessionCommand &cmd)
{
    JsonWriter w(os_);
    w.beginObject()
        .key("type").value("cmd")
        .key("seq").value(static_cast<std::uint64_t>(cmd.seq))
        .key("tick").value(static_cast<std::int64_t>(cmd.tick))
        .key("name").value(cmd.name);
    if (cmd.spec) {
        w.key("spec");
        writeAttackSpec(w, *cmd.spec);
    }
    if (cmd.name == "set-speed")
        w.key("speed").value(cmd.speed);
    w.endObject();
    os_ << "\n" << std::flush;
}

void
SessionWriter::writeEnd(Tick tick)
{
    JsonWriter w(os_);
    w.beginObject()
        .key("type").value("end")
        .key("tick").value(static_cast<std::int64_t>(tick))
        .endObject();
    os_ << "\n" << std::flush;
}

std::optional<SessionLog>
parseSession(std::string_view text, std::string *error)
{
    auto fail = [&](std::size_t lineNo, const std::string &what)
        -> std::optional<SessionLog> {
        if (error)
            *error = "session line " + std::to_string(lineNo) + ": " +
                     what;
        return std::nullopt;
    };

    SessionLog log;
    bool sawHeader = false;
    bool sawEnd = false;
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineNo;
        if (line.empty())
            continue;
        if (sawEnd)
            return fail(lineNo, "record after \"end\"");

        std::string what;
        const auto node = parseJson(line, &what);
        if (!node)
            return fail(lineNo, what);
        const JsonValue *type = node->find("type");
        if (!type || !type->isString())
            return fail(lineNo, "missing \"type\"");

        if (type->str == "header") {
            if (sawHeader)
                return fail(lineNo, "duplicate header");
            const JsonValue *version = node->find("version");
            if (!version || !version->isNumber() ||
                version->number != 1.0)
                return fail(lineNo, "unsupported session version");
            const JsonValue *config = node->find("config");
            if (!config)
                return fail(lineNo, "missing \"config\"");
            if (!parseConfigNode(*config, log.config, what))
                return fail(lineNo, what);
            if (const JsonValue *rules = node->find("rules")) {
                if (!rules->isString())
                    return fail(lineNo, "\"rules\" must be a string");
                log.rules = rules->str;
            }
            sawHeader = true;
            continue;
        }
        if (!sawHeader)
            return fail(lineNo, "first record must be the header");

        if (type->str == "cmd") {
            SessionCommand cmd;
            const JsonValue *seq = node->find("seq");
            const JsonValue *tick = node->find("tick");
            const JsonValue *name = node->find("name");
            if (!seq || !seq->isNumber() || !tick ||
                !tick->isNumber() || !name || !name->isString())
                return fail(lineNo, "cmd needs seq/tick/name");
            if (!countFrom(seq->number, cmd.seq) ||
                !tickFrom(tick->number, cmd.tick) || cmd.tick < 0)
                return fail(lineNo, "cmd seq/tick out of range");
            cmd.name = name->str;
            if (cmd.name == "inject-attack") {
                const JsonValue *spec = node->find("spec");
                if (!spec)
                    return fail(lineNo, "inject-attack needs a spec");
                AttackSpec parsed;
                if (!parseAttackSpecNode(*spec, parsed, what))
                    return fail(lineNo, what);
                cmd.spec = parsed;
            } else if (cmd.name == "set-speed") {
                const JsonValue *speed = node->find("speed");
                if (!speed || !speed->isNumber())
                    return fail(lineNo, "set-speed needs a speed");
                cmd.speed = speed->number;
            } else if (cmd.name != "pause" && cmd.name != "resume" &&
                       cmd.name != "shutdown") {
                return fail(lineNo,
                            "unknown command \"" + cmd.name + "\"");
            }
            if (!log.commands.empty() &&
                (cmd.tick < log.commands.back().tick ||
                 cmd.seq != log.commands.back().seq + 1))
                return fail(lineNo, "commands out of order");
            log.commands.push_back(std::move(cmd));
            continue;
        }
        if (type->str == "end") {
            const JsonValue *tick = node->find("tick");
            if (!tick || !tick->isNumber())
                return fail(lineNo, "end needs a tick");
            if (!tickFrom(tick->number, log.endTick) || log.endTick < 0)
                return fail(lineNo, "end tick out of range");
            sawEnd = true;
            continue;
        }
        return fail(lineNo, "unknown type \"" + type->str + "\"");
    }
    if (!sawHeader)
        return fail(lineNo, "no header record");
    if (!sawEnd) {
        // A session cut short (crash, kill) is still replayable up
        // to its last recorded input.
        log.endTick = log.commands.empty() ? 0
                                           : log.commands.back().tick;
    }
    return log;
}

std::optional<SessionLog>
readSessionFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open session file: " + path;
        return std::nullopt;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseSession(buf.str(), error);
}

} // namespace pad::service
