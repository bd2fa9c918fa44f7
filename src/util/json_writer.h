/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Emits syntactically valid JSON onto any std::ostream with correct
 * string escaping and deterministic number formatting (shortest
 * round-trippable decimal), so trace files, stats exports and run
 * manifests are stable enough to diff and to pin in golden tests.
 * Nesting is tracked internally; misuse (a value where a key is
 * required, unbalanced end calls) trips a PAD_ASSERT.
 */

#ifndef PAD_UTIL_JSON_WRITER_H
#define PAD_UTIL_JSON_WRITER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pad {

/**
 * Streaming writer with explicit begin/end nesting.
 *
 * @code
 *   JsonWriter w(os);
 *   w.beginObject().key("name").value("run").key("seed").value(42)
 *    .endObject();
 * @endcode
 */
class JsonWriter
{
  public:
    /**
     * @param os     destination stream (not owned)
     * @param indent spaces per nesting level; 0 = minified one-liner
     */
    explicit JsonWriter(std::ostream &os, int indent = 0);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Write an object key; the next call must produce its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /**
     * Splice pre-rendered JSON (must itself be a valid JSON value)
     * into the current value position, e.g. a stats blob rendered
     * elsewhere.
     */
    JsonWriter &rawValue(std::string_view json);

    /** True when every begun object/array has been ended. */
    bool balanced() const { return stack_.empty(); }

    /** Escape @p s for inclusion inside a JSON string literal. */
    static std::string escape(std::string_view s);

    /**
     * Deterministic decimal rendering of a finite double: the
     * "%.{p}g" form for the smallest precision p in 1..17 that
     * parses back to the same bits. Non-finite values render as null
     * (JSON has no Inf/NaN).
     *
     * Computed without printf from the shortest round-trip form
     * (std::to_chars), whose digit count P is a lower bound on p.
     * When the significand field is non-zero the rounding interval
     * is symmetric, so the correctly rounded P-digit value "%.{P}g"
     * prints is the shortest form itself and is laid out directly.
     * Next to a power of two the P-digit value can miss v; there
     * std::to_chars at precision p-1 is checked with std::from_chars
     * and p steps up until it parses back. The digits are laid out
     * as "%g" does (fixed or exponent form, two-digit minimum
     * exponent), so the output is byte-identical to a printf loop
     * over p.
     */
    static std::string formatDouble(double v);

    /** Append formatDouble(@p v) to @p out without a temporary. */
    static void appendDouble(std::string &out, double v);

  private:
    struct Level {
        bool object;
        std::size_t count = 0;
    };

    void beforeValue();
    void newline();

    std::ostream &os_;
    int indent_;
    bool keyPending_ = false;
    std::vector<Level> stack_;
};

} // namespace pad

#endif // PAD_UTIL_JSON_WRITER_H
