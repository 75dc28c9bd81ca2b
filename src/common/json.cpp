#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace columbia::common::json {

// --- Value -------------------------------------------------------------------

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

std::string Value::dump() const {
  switch (kind_) {
    case Kind::Null:
      return "null";
    case Kind::Bool:
      return bool_ ? "true" : "false";
    case Kind::Number:
      return number_to_string(number_);
    case Kind::String:
      return quote(string_);
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ",";
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ",";
        out += quote(members_[i].first) + ":" + members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";  // unreachable
}

// --- Writing helpers ---------------------------------------------------------

std::string number_to_string(double v) {
  // Integers (the overwhelmingly common case here: seeds, counters) render
  // without an exponent or trailing ".0"; everything else uses
  // std::to_chars' shortest form that round-trips exactly.
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quote(const std::string& raw) {
  // Built up with += rather than operator+ chains: GCC 12 at -O3 raises a
  // spurious -Wrestrict on `const char* + std::string&&`, which breaks
  // COLUMBIA_WERROR builds.
  std::string out;
  out.reserve(raw.size() + 2);
  out += '"';
  out += escape(raw);
  out += '"';
  return out;
}

// --- Parser ------------------------------------------------------------------

namespace {

/// Deepest array/object nesting parse() accepts.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool run(Value& out, std::string& error) {
    skip_ws();
    if (!parse_value(out)) {
      error = locate() + error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after JSON document";
      error = locate() + error_;
      return false;
    }
    return true;
  }

 private:
  bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::string locate() const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return "json:" + std::to_string(line) + ":" + std::to_string(col) + ": ";
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null", 4)) return fail("invalid literal");
        out = Value::make_null();
        return true;
      case 't':
        if (!literal("true", 4)) return fail("invalid literal");
        out = Value::make_bool(true);
        return true;
      case 'f':
        if (!literal("false", 5)) return fail("invalid literal");
        out = Value::make_bool(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value::make_string(std::move(s));
        return true;
      }
      case '[':
      case '{': {
        // Bounded, so a hostile line cannot overflow the stack.
        if (depth_ == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '[' ? parse_array(out) : parse_object(out);
        --depth_;
        return ok;
      }
      default:
        return parse_number(out);
    }
  }

  bool parse_array(Value& out) {
    ++pos_;  // '['
    std::vector<Value> items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = Value::make_array(std::move(items));
      return true;
    }
    while (true) {
      Value item;
      skip_ws();
      if (!parse_value(item)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        out = Value::make_array(std::move(items));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Value& out) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = Value::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected string key in object");
      }
      std::string key;
      if (!parse_string(key)) return false;
      for (const auto& [k, v] : members) {
        if (k == key) return fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out = Value::make_object(std::move(members));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("unexpected character");
    const std::string body = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(body.data(), body.data() + body.size(), value);
    if (ec != std::errc() || end != body.data() + body.size()) {
      pos_ = start;
      return fail("malformed number '" + body + "'");
    }
    out = Value::make_number(value);
    return true;
  }

  void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
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
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid UTF-16 low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
    return fail("unterminated string");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
  std::string error_;
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string& error) {
  Parser parser(text);
  return parser.run(out, error);
}

}  // namespace columbia::common::json
