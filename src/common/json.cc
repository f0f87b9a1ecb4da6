#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace pomtlb
{

JsonValue
JsonValue::array()
{
    JsonValue value;
    value.valueKind = Kind::Array;
    return value;
}

JsonValue
JsonValue::object()
{
    JsonValue value;
    value.valueKind = Kind::Object;
    return value;
}

namespace
{

[[noreturn]] void
kindError(const char *wanted, JsonValue::Kind got)
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    throw std::logic_error(std::string("JSON value is ") +
                           names[static_cast<int>(got)] + ", wanted " +
                           wanted);
}

} // namespace

double
JsonValue::asNumber() const
{
    if (!isNumber())
        kindError("number", valueKind);
    return numValue;
}

std::uint64_t
JsonValue::asUint() const
{
    const double value = asNumber();
    if (value < 0.0 || std::floor(value) != value)
        throw std::logic_error("JSON number is not a non-negative "
                               "integer");
    return static_cast<std::uint64_t>(value);
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        kindError("string", valueKind);
    return strValue;
}

JsonValue &
JsonValue::push(JsonValue element)
{
    if (!isArray())
        kindError("array", valueKind);
    arrayValues.push_back(std::move(element));
    return *this;
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return arrayValues.size();
    if (isObject())
        return objectMembers.size();
    kindError("array or object", valueKind);
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    if (!isArray())
        kindError("array", valueKind);
    return arrayValues.at(index);
}

const std::vector<JsonValue> &
JsonValue::elements() const
{
    if (!isArray())
        kindError("array", valueKind);
    return arrayValues;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue member)
{
    if (!isObject())
        kindError("object", valueKind);
    for (auto &entry : objectMembers) {
        if (entry.first == key) {
            entry.second = std::move(member);
            return *this;
        }
    }
    objectMembers.emplace_back(key, std::move(member));
    return *this;
}

bool
JsonValue::has(const std::string &key) const
{
    if (!isObject())
        kindError("object", valueKind);
    for (const auto &entry : objectMembers)
        if (entry.first == key)
            return true;
    return false;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (!isObject())
        kindError("object", valueKind);
    for (const auto &entry : objectMembers)
        if (entry.first == key)
            return entry.second;
    throw std::out_of_range("JSON object has no member '" + key +
                            "'");
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (!isObject())
        kindError("object", valueKind);
    return objectMembers;
}

// ---------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------

namespace
{

void
writeEscaped(std::ostream &os, const std::string &text)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buffer;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double value)
{
    if (!std::isfinite(value))
        throw std::logic_error(
            "JSON cannot represent NaN or infinity");
    // Integers (the common case: counters) print without an
    // exponent or trailing zeros; everything else uses %.17g, which
    // is lossless for IEEE-754 doubles.
    if (std::floor(value) == value && std::fabs(value) < 1e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        os << buffer;
        return;
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    os << buffer;
}

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    if (indent <= 0)
        return;
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
JsonValue::writeIndented(std::ostream &os, int indent,
                         int depth) const
{
    switch (valueKind) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (boolValue ? "true" : "false");
        break;
      case Kind::Number:
        writeNumber(os, numValue);
        break;
      case Kind::String:
        writeEscaped(os, strValue);
        break;
      case Kind::Array:
        if (arrayValues.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < arrayValues.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            arrayValues[i].writeIndented(os, indent, depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (objectMembers.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < objectMembers.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            writeEscaped(os, objectMembers[i].first);
            os << (indent > 0 ? ": " : ":");
            objectMembers[i].second.writeIndented(os, indent,
                                                  depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
JsonValue::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
JsonValue::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (valueKind != other.valueKind)
        return false;
    switch (valueKind) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return boolValue == other.boolValue;
      case Kind::Number:
        return numValue == other.numValue;
      case Kind::String:
        return strValue == other.strValue;
      case Kind::Array:
        return arrayValues == other.arrayValues;
      case Kind::Object:
        return objectMembers == other.objectMembers;
    }
    return false;
}

// ---------------------------------------------------------------
// Parsing (recursive descent)
// ---------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &input) : text(input) {}

    JsonValue
    document()
    {
        const JsonValue value = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing characters after JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw JsonParseError(message, pos);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeLiteral(const char *literal)
    {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text.compare(pos, len, literal) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return JsonValue(parseString());
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return JsonValue(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return JsonValue(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue();
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue object = JsonValue::object();
        if (peek() == '}') {
            ++pos;
            return object;
        }
        while (true) {
            if (peek() != '"')
                fail("object key must be a string");
            std::string key = parseString();
            expect(':');
            object.set(key, parseValue());
            const char c = peek();
            ++pos;
            if (c == '}')
                return object;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue array = JsonValue::array();
        if (peek() == ']') {
            ++pos;
            return array;
        }
        while (true) {
            array.push(parseValue());
            const char c = peek();
            ++pos;
            if (c == ']')
                return array;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string result;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return result;
            if (c != '\\') {
                result += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':
                result += '"';
                break;
              case '\\':
                result += '\\';
                break;
              case '/':
                result += '/';
                break;
              case 'n':
                result += '\n';
                break;
              case 'r':
                result += '\r';
                break;
              case 't':
                result += '\t';
                break;
              case 'b':
                result += '\b';
                break;
              case 'f':
                result += '\f';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Encode the code point as UTF-8 (BMP only; this
                // writer never emits surrogate pairs).
                if (code < 0x80) {
                    result += static_cast<char>(code);
                } else if (code < 0x800) {
                    result += static_cast<char>(0xC0 | (code >> 6));
                    result +=
                        static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    result += static_cast<char>(0xE0 | (code >> 12));
                    result += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F));
                    result +=
                        static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipSpace();
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
                digits = true;
            }
        };
        eatDigits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (digits && pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '-' || text[pos] == '+'))
                ++pos;
            bool exp_digits = false;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                ++pos;
                exp_digits = true;
            }
            if (!exp_digits)
                fail("missing exponent digits");
        }
        if (!digits)
            fail("invalid number");
        return JsonValue(std::stod(text.substr(start, pos - start)));
    }

    const std::string &text;
    std::size_t pos = 0;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace pomtlb
