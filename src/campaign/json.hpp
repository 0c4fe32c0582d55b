// Minimal JSON reader for campaign scenario specs (spec.hpp).
//
// Deliberately tiny — objects, arrays, strings, numbers, booleans, null —
// because the only consumer is the spec format, and deliberately "JSON-ish":
// `//` line comments and trailing commas are accepted, since specs are
// hand-written. What it adds over a stock parser is precise source
// positions: every value remembers the 1-based line it started on, and
// every syntax error carries line + column, so spec-level validation
// (unknown key, wrong type, bad range) can point at the offending line of
// the user's file rather than at "the spec".
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gprsim::campaign {

/// Syntax or access error with a 1-based source position. `column` is 0 for
/// errors that only know their line (typed-accessor mismatches).
class JsonError : public std::runtime_error {
public:
    JsonError(const std::string& message, int line, int column)
        : std::runtime_error(message + " (line " + std::to_string(line) +
                             (column > 0 ? ", column " + std::to_string(column) : "") +
                             ")"),
          line_(line),
          column_(column) {}

    int line() const { return line_; }
    int column() const { return column_; }

private:
    int line_ = 0;
    int column_ = 0;
};

/// Parsed JSON value. Object member order is preserved (specs are diffed and
/// round-tripped by humans); lookup is linear, which is fine at spec size.
class JsonValue {
public:
    enum class Type { null, boolean, number, string, array, object };

    using Member = std::pair<std::string, JsonValue>;

    Type type() const { return type_; }
    /// 1-based line the value started on; 0 for programmatically built values.
    int line() const { return line_; }

    bool is_null() const { return type_ == Type::null; }
    bool is_bool() const { return type_ == Type::boolean; }
    bool is_number() const { return type_ == Type::number; }
    bool is_string() const { return type_ == Type::string; }
    bool is_array() const { return type_ == Type::array; }
    bool is_object() const { return type_ == Type::object; }

    /// Typed accessors; throw JsonError (at this value's line) on mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const std::vector<JsonValue>& items() const;
    const std::vector<Member>& members() const;

    /// Object lookup; nullptr when the key is absent (or not an object).
    const JsonValue* find(const std::string& key) const;

    static JsonValue make_null(int line) { return JsonValue(Type::null, line); }
    static JsonValue make_bool(bool value, int line) {
        JsonValue v(Type::boolean, line);
        v.bool_ = value;
        return v;
    }
    static JsonValue make_number(double value, int line) {
        JsonValue v(Type::number, line);
        v.number_ = value;
        return v;
    }
    static JsonValue make_string(std::string value, int line) {
        JsonValue v(Type::string, line);
        v.string_ = std::move(value);
        return v;
    }
    static JsonValue make_array(std::vector<JsonValue> items, int line) {
        JsonValue v(Type::array, line);
        v.items_ = std::move(items);
        return v;
    }
    static JsonValue make_object(std::vector<Member> members, int line) {
        JsonValue v(Type::object, line);
        v.members_ = std::move(members);
        return v;
    }

private:
    explicit JsonValue(Type type, int line) : type_(type), line_(line) {}

    Type type_ = Type::null;
    int line_ = 0;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/// Human-readable type name ("object", "number", ...), for error messages.
const char* json_type_name(JsonValue::Type type);

/// Parses one JSON document; trailing non-whitespace is an error. Throws
/// JsonError with line/column on malformed input, arrays and objects
/// nested more than 64 levels deep included.
JsonValue parse_json(const std::string& text);

}  // namespace gprsim::campaign
