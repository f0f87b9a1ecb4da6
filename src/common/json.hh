/**
 * @file
 * A minimal JSON document model: build, serialise, parse.
 *
 * Exists so the sweep subsystem can hand results to
 * `scripts/plot_results.py` (and round-trip them in tests) without
 * pulling in an external dependency. Objects preserve insertion
 * order, so serialisation is deterministic; numbers are written with
 * enough precision that doubles survive a write/parse round trip.
 *
 * Only what the repository needs is implemented: no comments, no
 * NaN/Inf (rejected on write and parse), UTF-8 passed through
 * untouched apart from the mandatory escapes.
 */

#ifndef POMTLB_COMMON_JSON_HH
#define POMTLB_COMMON_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pomtlb
{

/** Thrown by JsonValue::parse on malformed input. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &what, std::size_t at)
        : std::runtime_error(what + " (at offset " +
                             std::to_string(at) + ")"),
          offset(at)
    {
    }

    /** Byte offset in the input where parsing failed. */
    std::size_t offset;
};

/** One JSON value: null, bool, number, string, array, or object. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Default-constructs null. */
    JsonValue() = default;
    JsonValue(bool value) : valueKind(Kind::Bool), boolValue(value) {}
    JsonValue(double value) : valueKind(Kind::Number), numValue(value)
    {
    }
    JsonValue(int value)
        : valueKind(Kind::Number), numValue(static_cast<double>(value))
    {
    }
    JsonValue(std::uint64_t value)
        : valueKind(Kind::Number), numValue(static_cast<double>(value))
    {
    }
    JsonValue(std::string value)
        : valueKind(Kind::String), strValue(std::move(value))
    {
    }
    JsonValue(const char *value)
        : valueKind(Kind::String), strValue(value)
    {
    }

    static JsonValue array();
    static JsonValue object();

    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** Typed accessors; throw std::logic_error on kind mismatch. */
    double asNumber() const;
    /** asNumber() rounded; throws if not integral. */
    std::uint64_t asUint() const;
    const std::string &asString() const;

    // -- array interface ------------------------------------------
    /** Append to an array (value must be an array). */
    JsonValue &push(JsonValue element);
    std::size_t size() const;
    const JsonValue &at(std::size_t index) const;
    const std::vector<JsonValue> &elements() const;

    // -- object interface -----------------------------------------
    /** Insert or overwrite a member (value must be an object). */
    JsonValue &set(const std::string &key, JsonValue member);
    /** True when the object has @p key. */
    bool has(const std::string &key) const;
    /** Member lookup; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &key) const;
    /** Members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    // -- serialisation --------------------------------------------
    /**
     * Write this value to @p os. @p indent > 0 pretty-prints with
     * that many spaces per level; 0 writes compact one-line JSON.
     */
    void write(std::ostream &os, int indent = 2) const;
    std::string dump(int indent = 2) const;

    /** Parse @p text (must contain exactly one JSON document). */
    static JsonValue parse(const std::string &text);

    /** Deep equality (C++20 derives !=). */
    bool operator==(const JsonValue &other) const;

  private:
    void writeIndented(std::ostream &os, int indent,
                       int depth) const;

    Kind valueKind = Kind::Null;
    bool boolValue = false;
    double numValue = 0.0;
    std::string strValue;
    std::vector<JsonValue> arrayValues;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_JSON_HH
