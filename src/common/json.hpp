#pragma once
/// \file json.hpp
/// Minimal JSON reading for the scenario-spec and simserve wire formats.
///
/// The repo *writes* JSON in several places (bench summaries, profile
/// reports) with plain string streams; what it never had is a reader. The
/// simserve protocol and `core::ScenarioSpec::from_json` need one, and the
/// determinism contract rules out a third-party dependency, so this is a
/// small recursive-descent parser over a tagged `Value`:
///
///  * null / bool / number (double) / string / array / object;
///  * objects preserve *insertion order* (members vector), so a parsed
///    document can be re-rendered or diffed deterministically, and lookup
///    is linear — documents here are tiny (a dozen keys);
///  * strict by default: trailing garbage, duplicate keys, bare NaN/Inf,
///    unescaped control characters and malformed UTF-8 in strings (a bad
///    lead or continuation byte, an overlong form, a surrogate, a value
///    above U+10FFFF) are parse errors, and so is nesting deeper than 64
///    levels (the parser recurses per level; the scenario spec and the
///    simserve protocol nest two deep). A parsed string is therefore
///    valid UTF-8, and so is any JSON written from it;
///  * `\uXXXX` escapes decode to UTF-8 (surrogate pairs included).
///
/// `escape()` / `dump()` cover the write side where a value (e.g. a
/// report's bytes) must round-trip through a JSON string.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace columbia::common::json {

class Value;

/// One parsed JSON value. Cheap to move; copies are deep.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Object member by key; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;

  /// Renders the value back to compact JSON (no whitespace). Numbers use
  /// shortest-round-trip formatting; strings are escaped with escape().
  std::string dump() const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses `text` as one JSON document. Returns false with a
/// line/column-prefixed message in `error` on malformed input (including
/// trailing non-whitespace after the document).
bool parse(const std::string& text, Value& out, std::string& error);

/// JSON string-literal escaping of arbitrary bytes (quotes, backslash,
/// control characters as \uXXXX; everything else passes through, so valid
/// UTF-8 stays valid UTF-8). Returns the escaped body *without* the
/// surrounding quotes.
std::string escape(const std::string& raw);

/// `escape` wrapped in quotes — the common call site.
std::string quote(const std::string& raw);

/// Canonical shortest-round-trip rendering of a finite double ("1", "0.5",
/// "1e+300"). The one number format shared by ScenarioSpec's canonical
/// form and the simserve protocol, so hashes never depend on locale or
/// stream state.
std::string number_to_string(double v);

}  // namespace columbia::common::json
