/**
 * @file
 * Minimal JSON parser for tooling, tests and the pad-rw-v2 codec.
 *
 * The observability layer *writes* JSON (traces, stats exports, run
 * manifests); this parser closes the loop so tests and CLI tooling
 * can validate that those artifacts really are well-formed and carry
 * the required fields, without any external dependency. It is a
 * strict RFC-8259-style parser over an in-memory string: JsonReader
 * is the tokenizer, and parseJson() builds a JsonValue tree through
 * it — fine for test fixtures and manifests. Hot parsers walk the
 * reader themselves and skip the tree.
 */

#ifndef PAD_UTIL_JSON_H
#define PAD_UTIL_JSON_H

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pad {

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Members in document order (duplicate keys keep both). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** First member with key @p k, or nullptr. Object nodes only. */
    const JsonValue *find(std::string_view k) const;

    /** True when an object node has a member named @p k. */
    bool contains(std::string_view k) const { return find(k) != nullptr; }

    /** Array length / object member count / 0 for scalars. */
    std::size_t size() const;
};

/**
 * Pull reader over one JSON text: the repo's one JSON tokenizer.
 * parseJson() builds its DOM through it, and schema-specific parsers
 * (the pad-rw-v2 codec) walk a document with it directly, filling
 * their own structs without a JsonValue tree.
 *
 * The first error is kept (message plus byte offset), and from then
 * on nextKey() and nextElement() return false. A value nested inside
 * kMaxDepth open containers is an error.
 *
 * @code
 *   JsonReader r(text, &error);
 *   if (!r.beginObject()) ...;           // not an object
 *   std::string key;
 *   while (r.nextKey(key)) { ... read or skipValue() ... }
 *   if (r.failed() || !r.finish()) ...;  // syntax error or trailer
 * @endcode
 */
class JsonReader
{
  public:
    static constexpr int kMaxDepth = 200;

    /** @p error (may be null) receives the first error message. */
    explicit JsonReader(std::string_view text, std::string *error = nullptr)
        : text_(text), error_(error)
    {
    }

    /** Skip whitespace; the next byte, or '\0' at the end. */
    char
    peek()
    {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    /**
     * Whitespace skipped, check that a value may start here: fails
     * past the nesting limit or at the end of input.
     */
    bool beginValue();

    /** Enter the object at the cursor; false if none is there. */
    bool beginObject() { return enter('{'); }

    /**
     * Next member key of the innermost open object, cursor left on
     * its value. False at the closing brace (the object is left) or
     * on a syntax error (see failed()).
     */
    bool nextKey(std::string &key);

    /** Enter the array at the cursor; false if none is there. */
    bool beginArray() { return enter('['); }

    /**
     * True with the cursor on the next element of the innermost
     * open array; false at the closing bracket or on a syntax error.
     */
    bool nextElement();

    /** Read the string at the cursor (must be a '"') into @p out. */
    bool readString(std::string &out);

    /**
     * Read the string at the cursor (must be a '"') as a view of the
     * text, without copying. A string holding an escape or a raw
     * control byte is left unread: false, with no error and the
     * cursor unmoved, so the caller can fall back to readString().
     */
    bool readPlainString(std::string_view &out);

    /** Read the number at the cursor, saturating like strtod. */
    bool readNumber(double &out);

    /** Consume the literal @p word ("true", "false", "null"). */
    bool readLiteral(std::string_view word);

    /** Validate and skip one value of any kind. */
    bool skipValue();

    /** Whitespace skipped, fail unless the text ends here. */
    bool finish();

    bool failed() const { return failed_; }

    /** Byte offset of the cursor. */
    std::size_t offset() const { return pos_; }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    /** Record @p msg at the current offset; always returns false. */
    bool fail(std::string_view msg);
    bool enter(char open);
    bool closeOrComma(char close, const char *unterminated,
                      const char *expected);

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;      ///< open containers
    bool fresh_ = false; ///< innermost container has yielded nothing
    bool failed_ = false;
    std::string scratch_; ///< skipValue()'s discarded strings
};

/**
 * Parse a complete JSON document.
 *
 * @param text  the document; trailing garbage is an error
 * @param error receives a human-readable message on failure
 * @return the root value, or nullopt on a syntax error
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

/**
 * The one checked conversion of a JSON number to an integer field.
 * A cast of a double outside the target's range is undefined
 * behaviour, so readers of untrusted documents go through these.
 * All truncate toward zero like the cast.
 */
inline bool
tickFrom(double d, Tick &out)
{
    constexpr double kTwoPow63 = 9223372036854775808.0;
    if (!(d >= -kTwoPow63 && d < kTwoPow63))
        return false; // also rejects NaN and infinities
    out = static_cast<Tick>(d);
    return true;
}

/** @p d as an int; false unless finite and inside int's range. */
inline bool
intFrom(double d, int &out)
{
    Tick t = 0;
    if (!tickFrom(d, t) || t < std::numeric_limits<int>::min() ||
        t > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(t);
    return true;
}

/** @p d as a count; false unless finite and inside uint64's range. */
inline bool
countFrom(double d, std::uint64_t &out)
{
    constexpr double kTwoPow64 = 18446744073709551616.0;
    if (!(d >= 0.0 && d < kTwoPow64))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

} // namespace pad

#endif // PAD_UTIL_JSON_H
