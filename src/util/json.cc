#include "util/json.h"

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

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    parse()
    {
        skipWs();
        JsonValue root;
        if (!parseValue(root))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON document");
        return root;
    }

  private:
    std::optional<JsonValue>
    fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = msg + " at offset " + std::to_string(pos_);
        return std::nullopt;
    }

    bool
    failValue(const std::string &msg)
    {
        fail(msg);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth_ > kMaxDepth)
            return failValue("JSON nesting too deep");
        bool ok = parseValueInner(out);
        --depth_;
        return ok;
    }

    bool
    parseValueInner(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return failValue("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
          case 't':
            if (!literal("true"))
                return failValue("invalid literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
          case 'f':
            if (!literal("false"))
                return failValue("invalid literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
          case 'n':
            if (!literal("null"))
                return failValue("invalid literal");
            out.kind = JsonValue::Kind::Null;
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return failValue("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return failValue("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= text_.size())
                return failValue("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return failValue("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return failValue("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return failValue("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return failValue("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= text_.size())
                return failValue("unterminated escape");
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
                          !std::isxdigit(static_cast<unsigned char>(
                              text_[pos_])))
                          return failValue("invalid \\u escape");
                      const char h = text_[pos_++];
                      code = code * 16 +
                             static_cast<unsigned>(
                                 h <= '9'   ? h - '0'
                                 : h <= 'F' ? h - 'A' + 10
                                            : h - 'a' + 10);
                  }
                  // UTF-8 encode the BMP code point; surrogate pairs
                  // are passed through as two 3-byte sequences, which
                  // is lossy but adequate for validation tooling.
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xC0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (code >> 12));
                      out += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  }
                  break;
              }
              default:
                return failValue("unknown escape character");
            }
        }
        return failValue("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            return failValue("invalid number");
        // Leading zero may not be followed by more digits.
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
            return failValue("leading zero in number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return failValue("digit required after decimal point");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return failValue("digit required in exponent");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        out.kind = JsonValue::Kind::Number;
        if (std::from_chars(first, last, out.number).ec ==
            std::errc::result_out_of_range) {
            // strtod saturates where from_chars refuses: 1e999 -> inf,
            // 1e-400 -> 0.
            out.number = std::strtod(std::string(first, last).c_str(),
                                     nullptr);
        }
        return true;
    }

    static constexpr int kMaxDepth = 200;

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    return Parser(text, error).parse();
}

} // namespace pad
