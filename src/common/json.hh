/**
 * @file
 * Minimal JSON value model and strict recursive-descent parser.
 *
 * The emit side of the repo (sweep::ResultTable, opt::ResultCache)
 * writes JSON with hand-rolled printers; the service side needs the
 * inverse: qmh_service requests arrive as JSON lines. This is a
 * deliberately small, dependency-free reader for that protocol —
 * full RFC 8259 value grammar (null/bool/number/string/array/object,
 * \uXXXX escapes with surrogate pairs, strict trailing-garbage and
 * depth checks) but no streaming, no comments, no mutation API.
 * Object members preserve insertion order and duplicate keys resolve
 * to the last occurrence via find().
 */

#ifndef QMH_COMMON_JSON_HH
#define QMH_COMMON_JSON_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qmh {
namespace json {

/** One parsed JSON value (tree-owning). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() = default;

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** Typed accessors; panic on a type mismatch (check first). */
    bool boolean() const;
    double number() const;
    const std::string &string() const;
    const std::vector<Value> &items() const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    /**
     * Member of an object by key; nullptr when absent or when this
     * value is not an object. Duplicate keys: last wins.
     */
    const Value *find(std::string_view key) const;

    /** Construction helpers (used by the parser and by tests). */
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double d);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value
    makeObject(std::vector<std::pair<std::string, Value>> members);

  private:
    Type _type = Type::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<Value> _items;
    std::vector<std::pair<std::string, Value>> _members;
};

/** Outcome of parsing one JSON document. */
struct ParseResult
{
    Value value;
    std::string error;   ///< empty = success
    std::size_t offset = 0;  ///< byte offset of the error

    bool ok() const { return error.empty(); }
};

/**
 * Parse exactly one JSON value spanning all of @p text (surrounding
 * whitespace allowed, trailing garbage is an error). Nesting beyond
 * 64 levels is rejected.
 */
ParseResult parse(std::string_view text);

/**
 * The string value of member @p key of the top-level object in
 * @p text, without building a Value tree: exactly what
 * `parse(text).value.find(key)` holds as a string. The last duplicate
 * key wins, and the result is empty when @p text is not valid JSON
 * (the same grammar and depth limit as parse()), its top level is not
 * an object, or the member is absent or not a string. Validation
 * allocates nothing; only the returned string may.
 */
std::string memberString(std::string_view text, std::string_view key);

/**
 * Incremental newline framing for the JSONL transports: socket reads
 * arrive in arbitrary chunks, so a record may span several feed()
 * calls or share one chunk with its neighbours. The splitter
 * reassembles complete lines, strips one trailing '\r' (CRLF
 * clients), and bounds memory: a line longer than max_line is
 * *discarded* — never buffered — and surfaces once, as an oversized
 * line, when its newline finally arrives, so a hostile or broken
 * writer cannot balloon the server. The caller turns that flag into
 * a typed error record; the splitter itself stays error-agnostic.
 */
class LineSplitter
{
  public:
    /** One reassembled line. */
    struct Line
    {
        std::string text;       ///< without the newline (or the CR)
        bool oversized = false; ///< exceeded max_line; text is empty
    };

    explicit LineSplitter(std::size_t max_line = 1u << 20)
        : _max_line(max_line)
    {
    }

    /** Append a received chunk (may contain any number of lines). */
    void feed(std::string_view chunk);

    /** Next completed line in arrival order; nullopt = need more. */
    std::optional<Line> next();

    /**
     * End of stream: the trailing unterminated data, if any, as a
     * final line (JSONL tolerates a missing last newline). At most
     * one call returns a value; the splitter is then empty.
     */
    std::optional<Line> finish();

    /** Bytes currently buffered for the incomplete trailing line. */
    std::size_t pending() const { return _partial.size(); }

  private:
    std::size_t _max_line;
    std::string _partial;        ///< incomplete trailing line
    bool _discarding = false;    ///< partial overflowed; drop to '\n'
    std::vector<Line> _ready;    ///< completed lines (FIFO)
    std::size_t _ready_head = 0; ///< consumed prefix of _ready
};

} // namespace json
} // namespace qmh

#endif // QMH_COMMON_JSON_HH
