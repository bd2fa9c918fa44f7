#include "util/json_writer.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <system_error>

#include "util/logging.h"

namespace pad {

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{
    PAD_ASSERT(indent >= 0);
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Room for the longest "%.17g" output: "-1.2345678901234567e-308". */
constexpr std::size_t kDoubleChars = 32;

/**
 * Lay out the scientific digits in [sci, end) ("-d.ddde+XX", as
 * std::to_chars prints them) exactly as printf's "%g" would for a
 * precision equal to their digit count: fixed notation when the
 * exponent X satisfies -4 <= X < digits, exponent notation
 * otherwise, and an exponent of at least two digits. "%g" also
 * strips trailing zeros, but at the smallest round-tripping
 * precision the last digit is never 0 (one digit fewer would then
 * round-trip too), so there are none to strip. Returns the length
 * written to @p out.
 */
std::size_t
layoutLikePrintfG(const char *sci, const char *end, char *out)
{
    char *o = out;
    const char *c = sci;
    if (*c == '-')
        *o++ = *c++;
    char digits[kDoubleChars];
    int n = 0;
    for (; *c != 'e'; ++c)
        if (*c != '.')
            digits[n++] = *c;
    int exp = 0;
    std::from_chars(c + (c[1] == '+' ? 2 : 1), end, exp);

    const bool fixed = exp >= -4 && exp < n;
    if (fixed && exp < 0) {
        *o++ = '0';
        *o++ = '.';
        o = std::fill_n(o, -exp - 1, '0');
        return static_cast<std::size_t>(
            std::copy(digits, digits + n, o) - out);
    }
    const int intDigits = fixed ? exp + 1 : 1;
    o = std::copy(digits, digits + intDigits, o);
    if (n > intDigits) {
        *o++ = '.';
        o = std::copy(digits + intDigits, digits + n, o);
    }
    if (!fixed) {
        *o++ = 'e';
        *o++ = exp < 0 ? '-' : '+';
        const int mag = exp < 0 ? -exp : exp;
        if (mag < 10)
            *o++ = '0';
        o = std::to_chars(o, o + 4, mag).ptr;
    }
    return static_cast<std::size_t>(o - out);
}

/**
 * JsonWriter::formatDouble() into @p out (at least kDoubleChars
 * bytes); returns the length written.
 */
std::size_t
formatDoubleInto(double v, char *out)
{
    if (!std::isfinite(v)) {
        std::memcpy(out, "null", 4);
        return 4;
    }
    // The shortest round-trip form's digit count P is a lower bound
    // on p: no shorter string parses back to v.
    char shortest[kDoubleChars];
    char *shortestEnd =
        std::to_chars(shortest, shortest + sizeof(shortest), v,
                      std::chars_format::scientific)
            .ptr;
    // "%.{P}g" prints the correctly rounded P-digit value, the P-digit
    // decimal nearest v. With a non-zero significand field v's
    // rounding interval is symmetric, so that nearest decimal lies
    // inside it whenever any P-digit decimal does; it is then the
    // shortest form itself (both break ties to even). Lay it out
    // directly.
    constexpr std::uint64_t kSignificand = (std::uint64_t{1} << 52) - 1;
    if ((std::bit_cast<std::uint64_t>(v) & kSignificand) != 0)
        return layoutLikePrintfG(shortest, shortestEnd, out);
    // A power of two (or zero) has a narrower interval below than
    // above, so the P-digit value can miss v: check it and step p up
    // until it parses back.
    int p = static_cast<int>(std::count_if(
        shortest, std::find(shortest, shortestEnd, 'e'),
        [](char c) { return c >= '0' && c <= '9'; }));
    char sci[kDoubleChars];
    for (;; ++p) {
        char *sciEnd =
            std::to_chars(sci, sci + sizeof(sci), v,
                          std::chars_format::scientific, p - 1)
                .ptr;
        if (std::equal(sci, sciEnd, shortest, shortestEnd))
            return layoutLikePrintfG(sci, sciEnd, out);
        double back = 0.0;
        const auto parsed = std::from_chars(sci, sciEnd, back);
        if (p >= 17 || (parsed.ec == std::errc() && back == v))
            return layoutLikePrintfG(sci, sciEnd, out);
    }
}

} // namespace

std::string
JsonWriter::formatDouble(double v)
{
    char buf[kDoubleChars];
    return std::string(buf, formatDoubleInto(v, buf));
}

void
JsonWriter::appendDouble(std::string &out, double v)
{
    char buf[kDoubleChars];
    out.append(buf, formatDoubleInto(v, buf));
}

void
JsonWriter::newline()
{
    if (indent_ == 0)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        for (int s = 0; s < indent_; ++s)
            os_ << ' ';
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        PAD_ASSERT(!keyPending_);
        return;
    }
    Level &top = stack_.back();
    if (top.object) {
        // Inside an object a bare value is only legal after key().
        PAD_ASSERT(keyPending_,
                   "JSON object member written without a key");
        keyPending_ = false;
        return;
    }
    if (top.count++ > 0)
        os_ << ',';
    newline();
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    PAD_ASSERT(!stack_.empty() && stack_.back().object,
               "JSON key outside an object");
    PAD_ASSERT(!keyPending_, "two JSON keys in a row");
    if (stack_.back().count++ > 0)
        os_ << ',';
    newline();
    os_ << '"' << escape(k) << '"' << ':';
    if (indent_ > 0)
        os_ << ' ';
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    os_ << '{';
    stack_.push_back(Level{true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    PAD_ASSERT(!stack_.empty() && stack_.back().object && !keyPending_);
    const bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    os_ << '[';
    stack_.push_back(Level{false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    PAD_ASSERT(!stack_.empty() && !stack_.back().object);
    const bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    os_ << '"' << escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    char buf[kDoubleChars];
    os_.write(buf, static_cast<std::streamsize>(formatDoubleInto(v, buf)));
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    os_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    beforeValue();
    os_ << json;
    return *this;
}

} // namespace pad
