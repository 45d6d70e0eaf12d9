#include "json.hh"

#include <charconv>

#include "common/logging.hh"

namespace qmh {
namespace json {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

namespace {

const char *
typeName(Value::Type type)
{
    switch (type) {
      case Value::Type::Null:   return "null";
      case Value::Type::Bool:   return "bool";
      case Value::Type::Number: return "number";
      case Value::Type::String: return "string";
      case Value::Type::Array:  return "array";
      case Value::Type::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
typeMismatch(Value::Type actual, Value::Type wanted)
{
    qmh_panic("json::Value: accessed a ", typeName(actual), " as a ",
              typeName(wanted));
}

} // namespace

double
Value::number() const
{
    if (_type != Type::Number)
        typeMismatch(_type, Type::Number);
    return _number;
}

const std::string &
Value::string() const
{
    if (_type != Type::String)
        typeMismatch(_type, Type::String);
    return _string;
}

const std::vector<Value> &
Value::items() const
{
    if (_type != Type::Array)
        typeMismatch(_type, Type::Array);
    return _items;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (_type != Type::Object)
        typeMismatch(_type, Type::Object);
    return _members;
}

const Value *
Value::find(std::string_view key) const
{
    if (_type != Type::Object)
        return nullptr;
    const Value *hit = nullptr;
    for (const auto &[name, value] : _members)
        if (name == key)
            hit = &value;
    return hit;
}

Value
Value::makeNull()
{
    return Value();
}

Value
Value::makeBool()
{
    Value v;
    v._type = Type::Bool;
    return v;
}

Value
Value::makeNumber(double d)
{
    Value v;
    v._type = Type::Number;
    v._number = d;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v._type = Type::String;
    v._string = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v._type = Type::Array;
    v._items = std::move(items);
    return v;
}

Value
Value::makeObject(std::vector<std::pair<std::string, Value>> members)
{
    Value v;
    v._type = Type::Object;
    v._members = std::move(members);
    return v;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

constexpr int max_depth = 64;

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error = {};
    /** Scan mode: the top-level key whose string value is wanted. */
    std::string_view lookup = {};
    /** Scan mode: offset of the last `lookup` member's value when it
     *  is a string, npos otherwise. */
    std::size_t found = std::string_view::npos;

    bool
    fail(const std::string &message)
    {
        if (error.empty())
            error = message;
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("bad literal");
        pos += word.size();
        return true;
    }

    /** Emit code point @p cp through @p put as UTF-8 bytes. */
    template <typename Put>
    static void
    putUtf8(Put &put, unsigned cp)
    {
        if (cp < 0x80) {
            put(static_cast<char>(cp));
        } else if (cp < 0x800) {
            put(static_cast<char>(0xC0 | (cp >> 6)));
            put(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            put(static_cast<char>(0xE0 | (cp >> 12)));
            put(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            put(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            put(static_cast<char>(0xF0 | (cp >> 18)));
            put(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            put(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            put(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    hex4(unsigned &value)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        return true;
    }

    /**
     * One string literal, its decoded bytes passed one at a time to
     * @p put: appended to a std::string when building a value,
     * compared against a key or dropped when scanning.
     */
    template <typename Put>
    bool
    scanString(Put &&put)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        for (;;) {
            if (pos >= text.size())
                return fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                put(c);
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':  put('"'); break;
              case '\\': put('\\'); break;
              case '/':  put('/'); break;
              case 'b':  put('\b'); break;
              case 'f':  put('\f'); break;
              case 'n':  put('\n'); break;
              case 'r':  put('\r'); break;
              case 't':  put('\t'); break;
              case 'u': {
                  unsigned cp = 0;
                  if (!hex4(cp))
                      return false;
                  if (cp >= 0xD800 && cp <= 0xDBFF) {
                      // High surrogate: a low surrogate must follow.
                      if (!consume('\\') || !consume('u'))
                          return fail("lone high surrogate");
                      unsigned low = 0;
                      if (!hex4(low))
                          return false;
                      if (low < 0xDC00 || low > 0xDFFF)
                          return fail("bad low surrogate");
                      cp = 0x10000 + ((cp - 0xD800) << 10) +
                           (low - 0xDC00);
                  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                      return fail("lone low surrogate");
                  }
                  putUtf8(put, cp);
                  break;
              }
              default:
                  return fail("unknown escape");
            }
        }
    }

    bool
    parseString(std::string &out)
    {
        out.clear();
        return scanString([&out](char c) { out += c; });
    }

    /**
     * An object key in scan mode: true in @p wanted when this is the
     * top-level object and the decoded key equals `lookup`.
     */
    bool
    scanKey(int depth, bool &wanted)
    {
        if (depth != 0)
            return scanString([](char) {});
        std::size_t at = 0;
        bool same = true;
        if (!scanString([&](char c) {
                same = same && at < lookup.size() && lookup[at] == c;
                ++at;
            }))
            return false;
        wanted = same && at == lookup.size();
        return true;
    }

    bool
    parseNumber(double &out)
    {
        // Validate the strict JSON grammar first; from_chars is more
        // permissive (it would take "1.", hex forms, "inf").
        const std::size_t start = pos;
        if (consume('-') && pos >= text.size())
            return fail("truncated number");
        if (consume('0')) {
            // no leading zeros
        } else if (pos < text.size() && text[pos] >= '1' &&
                   text[pos] <= '9') {
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        } else {
            return fail("bad number");
        }
        if (consume('.')) {
            if (pos >= text.size() || text[pos] < '0' ||
                text[pos] > '9')
                return fail("bad number fraction");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() || text[pos] < '0' ||
                text[pos] > '9')
                return fail("bad number exponent");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        const auto result = std::from_chars(
            text.data() + start, text.data() + pos, out);
        if (result.ec != std::errc() ||
            result.ptr != text.data() + pos)
            return fail("number out of range");
        return true;
    }

    /**
     * One value at nesting @p depth, built into @p out, or only
     * validated when @p out is null (scan mode: no allocation, and
     * the top-level object's members are matched against `lookup`).
     */
    bool
    parseValue(Value *out, int depth)
    {
        if (depth > max_depth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            std::vector<std::pair<std::string, Value>> members;
            skipWhitespace();
            if (!consume('}')) {
                for (;;) {
                    skipWhitespace();
                    std::string key;
                    bool wanted = false;
                    if (out ? !parseString(key) : !scanKey(depth, wanted))
                        return false;
                    skipWhitespace();
                    if (!consume(':'))
                        return fail("expected ':'");
                    const std::size_t start = pos;
                    Value value;
                    if (!parseValue(out ? &value : nullptr, depth + 1))
                        return false;
                    if (out) {
                        members.emplace_back(std::move(key),
                                             std::move(value));
                    } else if (wanted) {
                        // Last duplicate wins, as in Value::find().
                        const auto first =
                            text.find_first_not_of(" \t\n\r", start);
                        found = text[first] == '"'
                                    ? first
                                    : std::string_view::npos;
                    }
                    skipWhitespace();
                    if (consume(','))
                        continue;
                    if (consume('}'))
                        break;
                    return fail("expected ',' or '}'");
                }
            }
            if (out)
                *out = Value::makeObject(std::move(members));
            return true;
        }
        if (c == '[') {
            ++pos;
            std::vector<Value> items;
            skipWhitespace();
            if (!consume(']')) {
                for (;;) {
                    Value value;
                    if (!parseValue(out ? &value : nullptr, depth + 1))
                        return false;
                    if (out)
                        items.push_back(std::move(value));
                    skipWhitespace();
                    if (consume(','))
                        continue;
                    if (consume(']'))
                        break;
                    return fail("expected ',' or ']'");
                }
            }
            if (out)
                *out = Value::makeArray(std::move(items));
            return true;
        }
        if (c == '"') {
            if (!out)
                return scanString([](char) {});
            std::string s;
            if (!parseString(s))
                return false;
            *out = Value::makeString(std::move(s));
            return true;
        }
        if (c == 't' || c == 'f' || c == 'n') {
            const std::string_view word =
                c == 't' ? "true" : c == 'f' ? "false" : "null";
            if (!literal(word))
                return false;
            if (out)
                *out = c == 'n' ? Value::makeNull() : Value::makeBool();
            return true;
        }
        double number = 0.0;
        if (!parseNumber(number))
            return false;
        if (out)
            *out = Value::makeNumber(number);
        return true;
    }
};

} // namespace

ParseResult
parse(std::string_view text)
{
    Parser parser{text};
    ParseResult result;
    if (!parser.parseValue(&result.value, 0)) {
        result.error = parser.error;
        result.offset = parser.pos;
        return result;
    }
    parser.skipWhitespace();
    if (parser.pos != text.size()) {
        result.error = "trailing garbage after the value";
        result.offset = parser.pos;
        result.value = Value();
    }
    return result;
}

std::string
memberString(std::string_view text, std::string_view key)
{
    Parser parser{text};
    parser.lookup = key;
    if (!parser.parseValue(nullptr, 0))
        return {};
    parser.skipWhitespace();
    if (parser.pos != text.size() ||
        parser.found == std::string_view::npos)
        return {};
    // The value already validated; decode it.
    Parser value{text, parser.found};
    std::string out;
    value.parseString(out);
    return out;
}

// ---------------------------------------------------------------------------
// LineSplitter
// ---------------------------------------------------------------------------

void
LineSplitter::feed(std::string_view chunk)
{
    while (!chunk.empty()) {
        const std::size_t newline = chunk.find('\n');
        if (newline == std::string_view::npos) {
            if (!_discarding) {
                if (_partial.size() + chunk.size() > _max_line) {
                    // Stop buffering the moment the cap is crossed;
                    // the line is reported once, at its newline.
                    _discarding = true;
                    _partial.clear();
                    _partial.shrink_to_fit();
                } else {
                    _partial.append(chunk);
                }
            }
            return;
        }

        Line line;
        if (_discarding ||
            _partial.size() + newline > _max_line) {
            line.oversized = true;
            _discarding = false;
        } else {
            line.text = std::move(_partial);
            line.text.append(chunk.substr(0, newline));
            if (!line.text.empty() && line.text.back() == '\r')
                line.text.pop_back();
        }
        _partial.clear();
        _ready.push_back(std::move(line));
        chunk.remove_prefix(newline + 1);
    }
}

std::optional<LineSplitter::Line>
LineSplitter::next()
{
    if (_ready_head >= _ready.size()) {
        _ready.clear();
        _ready_head = 0;
        return std::nullopt;
    }
    return std::move(_ready[_ready_head++]);
}

std::optional<LineSplitter::Line>
LineSplitter::finish()
{
    if (_discarding) {
        _discarding = false;
        Line line;
        line.oversized = true;
        return line;
    }
    if (_partial.empty())
        return std::nullopt;
    Line line;
    line.text = std::move(_partial);
    _partial.clear();
    if (!line.text.empty() && line.text.back() == '\r')
        line.text.pop_back();
    return line;
}

} // namespace json
} // namespace qmh
