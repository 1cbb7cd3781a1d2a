#include "json.h"

#include <cstdlib>

namespace lrd {

double
JsonValue::asNumber(double fallback) const
{
    return kind_ == Kind::Number ? number_ : fallback;
}

int64_t
JsonValue::asInt(int64_t fallback) const
{
    return kind_ == Kind::Number ? static_cast<int64_t>(number_)
                                 : fallback;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const Member &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const JsonValue *
JsonValue::findPath(const std::vector<std::string> &keys) const
{
    const JsonValue *v = this;
    for (const std::string &key : keys) {
        v = v->find(key);
        if (!v)
            return nullptr;
    }
    return v;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asNumber(fallback) : fallback;
}

int64_t
JsonValue::intOr(const std::string &key, int64_t fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asInt(fallback) : fallback;
}

/** Recursive-descent parser over a [begin, end) byte range. */
class JsonParser
{
  public:
    JsonParser(const char *begin, const char *end)
        : begin_(begin), p_(begin), end_(end)
    {
    }

    /** Parse one complete document; trailing bytes are an error. */
    Result<JsonValue>
    document()
    {
        JsonValue v;
        if (!value(v, 0))
            return errorStatus();
        skipWs();
        if (p_ != end_) {
            fail("trailing content after JSON value");
            return errorStatus();
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    const char *begin_;
    const char *p_;
    const char *end_;
    std::string error_;

    void
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = strCat(what, " at byte ", p_ - begin_);
    }

    Status
    errorStatus() const
    {
        return Status(StatusCode::InvalidArgument, "json.parse", error_);
    }

    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n'
                              || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *lit)
    {
        for (; *lit; ++lit, ++p_)
            if (p_ == end_ || *p_ != *lit) {
                fail("bad literal");
                return false;
            }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p_ == end_ || *p_ != '"') {
            fail("expected '\"'");
            return false;
        }
        ++p_;
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            char c = *p_;
            if (c == '\\') {
                ++p_;
                if (p_ == end_) {
                    fail("unterminated escape");
                    return false;
                }
                switch (*p_) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // Pass \uXXXX through verbatim: no emitter in
                    // this repo produces them, and a round-trip that
                    // preserves the escape is good enough for tools.
                    out += '\\';
                    c = 'u';
                    break;
                  default:
                    fail("unknown escape");
                    return false;
                }
            }
            out += c;
            ++p_;
        }
        if (p_ == end_) {
            fail("unterminated string");
            return false;
        }
        ++p_; // closing quote
        return true;
    }

    bool
    parseNumber(double &out)
    {
        char *after = nullptr;
        // strtod accepts a superset (hex, inf) but every number the
        // repo's emitters write is valid for it; the length check
        // below keeps us inside the buffer.
        out = std::strtod(p_, &after);
        if (after == p_ || after > end_) {
            fail("bad number");
            return false;
        }
        p_ = after;
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return false;
        }
        skipWs();
        if (p_ == end_) {
            fail("unexpected end of input");
            return false;
        }
        switch (*p_) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.string_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            return literal("true");
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            return literal("false");
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null");
          default:
            out.kind_ = JsonValue::Kind::Number;
            return parseNumber(out.number_);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue::Member m;
            if (!parseString(m.first))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':') {
                fail("expected ':'");
                return false;
            }
            ++p_;
            if (!value(m.second, depth + 1))
                return false;
            out.members_.push_back(std::move(m));
            skipWs();
            if (p_ != end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            if (p_ != end_ && *p_ == '}') {
                ++p_;
                return true;
            }
            fail("expected ',' or '}'");
            return false;
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++p_; // '['
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.elements_.push_back(std::move(v));
            skipWs();
            if (p_ != end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            if (p_ != end_ && *p_ == ']') {
                ++p_;
                return true;
            }
            fail("expected ',' or ']'");
            return false;
        }
    }
};

Result<JsonValue>
parseJson(const std::string &text)
{
    JsonParser parser(text.data(), text.data() + text.size());
    return parser.document();
}

Result<std::vector<JsonValue>>
parseJsonLines(const std::string &text, bool stopAtError)
{
    std::vector<JsonValue> out;
    size_t lineNo = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        const bool lastLine = nl == std::string::npos;
        const std::string line =
            text.substr(pos, lastLine ? std::string::npos : nl - pos);
        pos = lastLine ? text.size() : nl + 1;
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        Result<JsonValue> doc = parseJson(line);
        if (!doc.ok()) {
            // A kill mid-append can only truncate the final line;
            // callers that expect that tolerate exactly that case.
            if (stopAtError && pos >= text.size())
                break;
            return Status(StatusCode::DataLoss, "json.lines",
                          strCat("line ", lineNo, ": ",
                                 doc.status().message()));
        }
        out.push_back(std::move(doc).value());
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += ch;
        }
    }
    out += '"';
    return out;
}

} // namespace lrd
