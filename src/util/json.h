/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * The repo emits several JSON artifacts (metrics registry, chrome
 * traces, BENCH_*.json, telemetry JSONL) but until the flight
 * recorder nothing needed to *read* one back. This parser exists for
 * the consumers that now do: `lrdtool monitor` / `lrdtool compare`
 * (telemetry JSONL), the RunManifest round-trip, and schema checks in
 * tests. It accepts the RFC 8259 grammar, preserves object key order
 * (deterministic iteration — no unordered containers), and reports
 * malformed input as a Status instead of throwing.
 *
 * It is deliberately small: no writer (emitters build strings
 * directly, as metrics.cc always has), no \uXXXX decoding beyond
 * passing the escape through verbatim, and numbers are doubles.
 */

#ifndef LRD_UTIL_JSON_H
#define LRD_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lrd {

/** One parsed JSON value; a tree of these is a document. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /** Typed readers; return the fallback on a kind mismatch. */
    double asNumber(double fallback = 0.0) const;
    int64_t asInt(int64_t fallback = 0) const;
    const std::string &asString() const { return string_; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<Member> &members() const { return members_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &elements() const { return elements_; }

    /** First member with the given key, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** Nested lookup: find(a) then ->find(b)...; nullptr anywhere. */
    const JsonValue *findPath(const std::vector<std::string> &keys) const;

    /** Convenience: the string / number / int at `key`, or fallback. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;
    double numberOr(const std::string &key, double fallback) const;
    int64_t intOr(const std::string &key, int64_t fallback) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    double number_ = 0.0;
    std::string string_;
    std::vector<Member> members_;
    std::vector<JsonValue> elements_;
};

/**
 * Parse one JSON document. Trailing content after the first complete
 * value is an error (use parseJsonLines for JSONL).
 * @return the document, or an InvalidArgument Status with the byte
 *         offset of the first error.
 */
Result<JsonValue> parseJson(const std::string &text);

/**
 * Parse newline-delimited JSON: one document per non-empty line.
 * Fails on the first malformed line (reporting its line number) —
 * a telemetry file whose *last* line was cut off mid-write by a kill
 * is still readable via `stopAtError`.
 * @param stopAtError When true, a malformed or truncated final line
 *        is tolerated: parsing stops there and the complete prefix is
 *        returned. Malformed lines before the last remain errors.
 */
Result<std::vector<JsonValue>> parseJsonLines(const std::string &text,
                                              bool stopAtError = false);

/** Escape and quote a string for embedding in emitted JSON. */
std::string jsonQuote(const std::string &s);

} // namespace lrd

#endif // LRD_UTIL_JSON_H
