#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>
#include <system_error>

namespace pad {

const JsonValue *
JsonValue::find(std::string_view k) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, value] : members)
        if (key == k)
            return &value;
    return nullptr;
}

std::size_t
JsonValue::size() const
{
    switch (kind) {
      case Kind::Array:
        return array.size();
      case Kind::Object:
        return members.size();
      default:
        return 0;
    }
}

bool
JsonReader::fail(std::string_view msg)
{
    if (!failed_) {
        failed_ = true;
        if (error_)
            *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
    return false;
}

bool
JsonReader::beginValue()
{
    skipWs();
    if (depth_ >= kMaxDepth)
        return fail("JSON nesting too deep");
    if (pos_ >= text_.size())
        return fail("unexpected end of input");
    return true;
}

bool
JsonReader::enter(char open)
{
    if (peek() != open)
        return false;
    if (depth_ >= kMaxDepth)
        return fail("JSON nesting too deep");
    ++pos_;
    ++depth_;
    fresh_ = true;
    return true;
}

/**
 * After a member or element: true past a ',', false past @p close
 * (the container is left) or on an error.
 */
bool
JsonReader::closeOrComma(char close, const char *unterminated,
                         const char *expected)
{
    if (pos_ >= text_.size())
        return fail(unterminated);
    if (text_[pos_] == ',') {
        ++pos_;
        return true;
    }
    if (text_[pos_] == close) {
        ++pos_;
        --depth_;
        return false;
    }
    return fail(expected);
}

bool
JsonReader::nextKey(std::string &key)
{
    if (failed_)
        return false;
    skipWs();
    if (fresh_) {
        // A nested container always finishes before its parent's
        // next call, so one flag tracks the innermost level.
        fresh_ = false;
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            --depth_;
            return false;
        }
    } else if (!closeOrComma('}', "unterminated object",
                             "expected ',' or '}' in object")) {
        return false;
    }
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
    if (!readString(key))
        return false;
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':' after object key");
    ++pos_;
    skipWs();
    return true;
}

bool
JsonReader::nextElement()
{
    if (failed_)
        return false;
    skipWs();
    if (fresh_) {
        fresh_ = false;
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            --depth_;
            return false;
        }
        return true;
    }
    if (!closeOrComma(']', "unterminated array",
                      "expected ',' or ']' in array"))
        return false;
    skipWs();
    return true;
}

bool
JsonReader::readString(std::string &out)
{
    out.clear();
    ++pos_; // opening quote
    while (pos_ < text_.size()) {
        // Copy the run up to the next quote, escape or control byte.
        std::size_t end = pos_;
        while (end < text_.size() && text_[end] != '"' &&
               text_[end] != '\\' &&
               static_cast<unsigned char>(text_[end]) >= 0x20)
            ++end;
        out.append(text_.data() + pos_, end - pos_);
        pos_ = end;
        if (pos_ >= text_.size())
            break;
        const char c = text_[pos_];
        if (c == '"') {
            ++pos_;
            return true;
        }
        if (c != '\\')
            return fail("raw control character in string");
        if (++pos_ >= text_.size())
            return fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
              unsigned code = 0;
              for (int i = 0; i < 4; ++i) {
                  if (pos_ >= text_.size() ||
                      !std::isxdigit(
                          static_cast<unsigned char>(text_[pos_])))
                      return fail("invalid \\u escape");
                  const char h = text_[pos_++];
                  code = code * 16 +
                         static_cast<unsigned>(h <= '9'   ? h - '0'
                                               : h <= 'F' ? h - 'A' + 10
                                                          : h - 'a' + 10);
              }
              // UTF-8 encode the BMP code point; surrogate pairs are
              // passed through as two 3-byte sequences, which is
              // lossy but adequate for validation tooling.
              if (code < 0x80) {
                  out += static_cast<char>(code);
              } else if (code < 0x800) {
                  out += static_cast<char>(0xC0 | (code >> 6));
                  out += static_cast<char>(0x80 | (code & 0x3F));
              } else {
                  out += static_cast<char>(0xE0 | (code >> 12));
                  out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                  out += static_cast<char>(0x80 | (code & 0x3F));
              }
              break;
          }
          default:
            return fail("unknown escape character");
        }
    }
    return fail("unterminated string");
}

bool
JsonReader::readPlainString(std::string_view &out)
{
    const std::size_t begin = pos_ + 1; // past the opening quote
    const std::size_t end = text_.find('"', begin);
    if (end == std::string_view::npos)
        return false;
    // The quote found ends the string unless a backslash before it
    // escapes it; either way a backslash means readString().
    const std::string_view body = text_.substr(begin, end - begin);
    if (body.find('\\') != std::string_view::npos ||
        std::any_of(body.begin(), body.end(), [](char c) {
            return static_cast<unsigned char>(c) < 0x20;
        }))
        return false;
    out = body;
    pos_ = end + 1;
    return true;
}

bool
JsonReader::readNumber(double &out)
{
    const auto digitAt = [this](std::size_t i) {
        return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
    };
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-')
        ++pos_;
    if (!digitAt(pos_))
        return fail("invalid number");
    // Leading zero may not be followed by more digits.
    if (text_[pos_] == '0' && digitAt(pos_ + 1))
        return fail("leading zero in number");
    while (digitAt(pos_))
        ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
        ++pos_;
        if (!digitAt(pos_))
            return fail("digit required after decimal point");
        while (digitAt(pos_))
            ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (!digitAt(pos_))
            return fail("digit required in exponent");
        while (digitAt(pos_))
            ++pos_;
    }
    const char *first = text_.data() + start;
    const char *last = text_.data() + pos_;
    if (std::from_chars(first, last, out).ec ==
        std::errc::result_out_of_range) {
        // strtod saturates where from_chars refuses: 1e999 -> inf,
        // 1e-400 -> 0.
        out = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return true;
}

bool
JsonReader::readLiteral(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        return fail("invalid literal");
    pos_ += word.size();
    return true;
}

bool
JsonReader::skipValue()
{
    if (!beginValue())
        return false;
    switch (text_[pos_]) {
      case '{':
        beginObject();
        while (nextKey(scratch_))
            if (!skipValue())
                return false;
        return !failed_;
      case '[':
        beginArray();
        while (nextElement())
            if (!skipValue())
                return false;
        return !failed_;
      case '"':
        return readString(scratch_);
      case 't':
        return readLiteral("true");
      case 'f':
        return readLiteral("false");
      case 'n':
        return readLiteral("null");
      default: {
          double ignored = 0.0;
          return readNumber(ignored);
      }
    }
}

bool
JsonReader::finish()
{
    skipWs();
    return pos_ == text_.size() ||
           fail("trailing characters after JSON document");
}

namespace {

/** One value of any kind into @p out, through the reader. */
bool
parseValue(JsonReader &r, JsonValue &out)
{
    if (!r.beginValue())
        return false;
    switch (r.peek()) {
      case '{': {
          out.kind = JsonValue::Kind::Object;
          r.beginObject();
          std::string key;
          while (r.nextKey(key)) {
              JsonValue member;
              if (!parseValue(r, member))
                  return false;
              out.members.emplace_back(std::move(key), std::move(member));
          }
          return !r.failed();
      }
      case '[':
        out.kind = JsonValue::Kind::Array;
        r.beginArray();
        while (r.nextElement()) {
            JsonValue element;
            if (!parseValue(r, element))
                return false;
            out.array.push_back(std::move(element));
        }
        return !r.failed();
      case '"':
        out.kind = JsonValue::Kind::String;
        return r.readString(out.str);
      case 't':
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = r.peek() == 't';
        return r.readLiteral(out.boolean ? "true" : "false");
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return r.readLiteral("null");
      default:
        out.kind = JsonValue::Kind::Number;
        return r.readNumber(out.number);
    }
}

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    JsonReader r(text, error);
    JsonValue root;
    if (!parseValue(r, root) || !r.finish())
        return std::nullopt;
    return root;
}

} // namespace pad
