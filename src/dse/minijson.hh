/**
 * @file
 * Minimal JSON value parser for the DSE subsystem's declarative inputs
 * (corpus manifests, sweep specs) and for re-reading the result files
 * the driver emits. Full JSON syntax on the read side (objects,
 * arrays, strings with escapes, numbers, booleans, null), DOM output
 * with ordered object members. Error messages carry the byte offset —
 * the malformed-manifest error paths are part of the tested contract.
 *
 * Deliberately not a serializer: the driver emits its JSON as
 * deterministic strings (fixed field order, fixed float precision) so
 * equal results are byte-identical — a DOM round-trip would launder
 * that guarantee.
 */

#ifndef CICERO_DSE_MINIJSON_HH
#define CICERO_DSE_MINIJSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"

namespace cicero::dse {

/**
 * Malformed JSON input. Derives ParseError (itself runtime_error) so
 * the tools map it to the parse-failure exit code; carries the byte
 * offset the parser stopped at.
 */
class JsonParseError : public ParseError
{
  public:
    JsonParseError(const std::string &what, std::size_t offset)
        : ParseError("json: " + what + " at byte " +
                     std::to_string(offset)),
          _offset(offset)
    {
    }

    std::size_t offset() const { return _offset; }

  private:
    std::size_t _offset;
};

/**
 * Maximum container nesting depth parseJson accepts. The parser is
 * recursive-descent; without a cap a few kilobytes of '[' would
 * overflow the stack instead of failing typed.
 */
constexpr std::size_t kJsonMaxDepth = 256;

/** A parsed JSON value (tree). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items; //!< Array elements
    std::vector<std::pair<std::string, JsonValue>>
        members;                  //!< Object members, source order

    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup on an object; nullptr when absent or not object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * Typed accessors: throw std::runtime_error mentioning @p what when
     * the value has the wrong kind (or, for asU64, is negative or
     * fractional).
     */
    const std::string &asString(const std::string &what) const;
    double asNumber(const std::string &what) const;
    std::uint64_t asU64(const std::string &what) const;
    bool asBool(const std::string &what) const;
    const std::vector<JsonValue> &asArray(const std::string &what) const;
};

/**
 * Parse @p text as one JSON document.
 * @throws JsonParseError with a byte offset on malformed input,
 *         trailing garbage, or nesting deeper than kJsonMaxDepth.
 */
JsonValue parseJson(const std::string &text);

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace cicero::dse

#endif // CICERO_DSE_MINIJSON_HH
