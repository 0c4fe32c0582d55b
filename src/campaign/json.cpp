#include "campaign/json.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

namespace gprsim::campaign {

namespace {

/// Deepest array/object nesting a document may have. The deepest shipped
/// spec nests 3 levels; the limit keeps the recursion far from the end of
/// any thread's stack, whatever the input.
constexpr int kMaxDepth = 64;

/// Recursive-descent parser over the raw text, tracking 1-based line and
/// column as it consumes characters.
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue value = parse_value();
        skip_whitespace();
        if (pos_ < text_.size()) {
            fail("trailing characters after JSON document");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw JsonError(message, line_, column_);
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    char advance() {
        const char c = text_[pos_++];
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void skip_whitespace() {
        while (pos_ < text_.size()) {
            const char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
                while (pos_ < text_.size() && peek() != '\n') {
                    advance();
                }
            } else {
                break;
            }
        }
    }

    void expect(char c, const char* what) {
        if (peek() != c) {
            fail(std::string("expected ") + what);
        }
        advance();
    }

    JsonValue parse_value() {
        skip_whitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                if (depth_ == kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
                }
                ++depth_;
                JsonValue value = c == '{' ? parse_object() : parse_array();
                --depth_;
                return value;
            }
            case '"':
                return parse_string();
            case 't':
            case 'f':
                return parse_keyword_bool();
            case 'n':
                parse_keyword("null");
                return JsonValue::make_null(line_);
            default:
                if (c == '-' || (c >= '0' && c <= '9')) {
                    return parse_number();
                }
                fail(std::string("unexpected character '") + c + "'");
        }
    }

    JsonValue parse_object() {
        const int start_line = line_;
        expect('{', "'{'");
        std::vector<JsonValue::Member> members;
        skip_whitespace();
        if (peek() == '}') {
            advance();
            return JsonValue::make_object(std::move(members), start_line);
        }
        while (true) {
            skip_whitespace();
            if (peek() == '}') {  // trailing comma
                advance();
                break;
            }
            if (peek() != '"') {
                fail("expected a quoted object key");
            }
            const int key_line = line_;
            std::string key = parse_string_literal();
            for (const JsonValue::Member& member : members) {
                if (member.first == key) {
                    throw JsonError("duplicate key \"" + key + "\"", key_line, column_);
                }
            }
            skip_whitespace();
            expect(':', "':' after object key");
            members.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}', "',' or '}' in object");
            break;
        }
        return JsonValue::make_object(std::move(members), start_line);
    }

    JsonValue parse_array() {
        const int start_line = line_;
        expect('[', "'['");
        std::vector<JsonValue> items;
        skip_whitespace();
        if (peek() == ']') {
            advance();
            return JsonValue::make_array(std::move(items), start_line);
        }
        while (true) {
            skip_whitespace();
            if (peek() == ']') {  // trailing comma
                advance();
                break;
            }
            items.push_back(parse_value());
            skip_whitespace();
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']', "',' or ']' in array");
            break;
        }
        return JsonValue::make_array(std::move(items), start_line);
    }

    JsonValue parse_string() {
        const int start_line = line_;
        return JsonValue::make_string(parse_string_literal(), start_line);
    }

    std::string parse_string_literal() {
        expect('"', "'\"'");
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = advance();
            if (c == '"') {
                return out;
            }
            if (c == '\n') {
                fail("newline inside string");
            }
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    fail("unterminated escape");
                }
                const char e = advance();
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    default:
                        fail(std::string("unsupported escape '\\") + e + "'");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue parse_number() {
        const int start_line = line_;
        const std::size_t start = pos_;
        if (peek() == '-') {
            advance();
        }
        while (std::isdigit(static_cast<unsigned char>(peek()))) {
            advance();
        }
        if (peek() == '.') {
            advance();
            while (std::isdigit(static_cast<unsigned char>(peek()))) {
                advance();
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            advance();
            if (peek() == '+' || peek() == '-') {
                advance();
            }
            while (std::isdigit(static_cast<unsigned char>(peek()))) {
                advance();
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') {
            fail("malformed number '" + token + "'");
        }
        return JsonValue::make_number(value, start_line);
    }

    JsonValue parse_keyword_bool() {
        const int start_line = line_;
        if (peek() == 't') {
            parse_keyword("true");
            return JsonValue::make_bool(true, start_line);
        }
        parse_keyword("false");
        return JsonValue::make_bool(false, start_line);
    }

    void parse_keyword(const char* keyword) {
        for (const char* k = keyword; *k != '\0'; ++k) {
            if (pos_ >= text_.size() || peek() != *k) {
                fail(std::string("expected '") + keyword + "'");
            }
            advance();
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
    int depth_ = 0;  ///< arrays and objects open at pos_
};

[[noreturn]] void type_mismatch(const JsonValue& value, const char* wanted) {
    throw JsonError(std::string("expected ") + wanted + ", got " +
                        json_type_name(value.type()),
                    value.line(), 0);
}

}  // namespace

const char* json_type_name(JsonValue::Type type) {
    switch (type) {
        case JsonValue::Type::null: return "null";
        case JsonValue::Type::boolean: return "boolean";
        case JsonValue::Type::number: return "number";
        case JsonValue::Type::string: return "string";
        case JsonValue::Type::array: return "array";
        case JsonValue::Type::object: return "object";
    }
    return "unknown";
}

bool JsonValue::as_bool() const {
    if (type_ != Type::boolean) {
        type_mismatch(*this, "boolean");
    }
    return bool_;
}

double JsonValue::as_number() const {
    if (type_ != Type::number) {
        type_mismatch(*this, "number");
    }
    return number_;
}

const std::string& JsonValue::as_string() const {
    if (type_ != Type::string) {
        type_mismatch(*this, "string");
    }
    return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
    if (type_ != Type::array) {
        type_mismatch(*this, "array");
    }
    return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
    if (type_ != Type::object) {
        type_mismatch(*this, "object");
    }
    return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
    if (type_ != Type::object) {
        return nullptr;
    }
    for (const Member& member : members_) {
        if (member.first == key) {
            return &member.second;
        }
    }
    return nullptr;
}

JsonValue parse_json(const std::string& text) {
    return Parser(text).parse_document();
}

}  // namespace gprsim::campaign
