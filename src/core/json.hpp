#pragma once
// The one JSON module: RFC 8259 string escaping, a small streaming writer
// that every machine-readable output goes through (serve and gateway
// bodies, the gpuprof/gpusan/perfport reports, the bench harness files),
// and a strict recursive-descent parser for everything read back (request
// bodies, replica /healthz answers, wrapped-child reports).
// Dependency-free on purpose — the repo owns its wire formats (see yamlx
// for the same call).

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcmm {

/// One parsed JSON value. A plain struct (not a variant) keeps the parser
/// and its consumers simple; only the members matching `kind` are set.
struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind{Kind::Null};
  bool boolean{};
  double number{};
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Object member `key` when it is a number with an exact integer value
  /// (|v| <= 2^53); nullopt when absent, of another kind, or fractional.
  [[nodiscard]] std::optional<std::int64_t> find_integer(
      std::string_view key) const noexcept;
};

/// Parses a complete JSON document. Strict: rejects trailing garbage,
/// unescaped control characters, lone surrogates, and nesting deeper than
/// 64 levels. On failure returns nullopt and, when `error` is non-null,
/// stores a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<JsonValue> json_parse(
    std::string_view text, std::string* error = nullptr);

/// Appends `in` to `out` with all characters that RFC 8259 requires escaped
/// (quote, backslash, and control characters) escaped, using the short
/// forms \b \f \n \r \t where they exist; everything else — including
/// multi-byte UTF-8 like the category symbols — passes through.
void json_escape(std::string& out, std::string_view in);

/// `in` escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view in);

/// `v` as printf "%.*f" text (locale-independent), e.g. 1.500000.
[[nodiscard]] std::string fixed_text(double v, int decimals = 6);

/// Streaming writer appending one JSON document to a string. It owns the
/// escaping, the separators and the number text; callers only say what to
/// write. Its two layout choices are the two the committed outputs use:
///  - Style: compact ("," ":") or spaced (", " ": ") separators;
///  - Layout, per container: inline, or one member per line, indented two
///    spaces per nesting level in the spaced style (none when compact). A
///    one-per-line container closes on a line of its own even when empty;
///    pick Inline for an empty one to get "[]".
/// Closing the top-level container ends the document with a newline, as
/// every file and response body in this repo does.
class JsonWriter {
 public:
  enum class Style : std::uint8_t { Compact, Spaced };
  enum class Layout : std::uint8_t { Inline, Lines };

  explicit JsonWriter(std::string& out, Style style = Style::Compact)
      : out_(out), style_(style) {}

  JsonWriter& begin_object(Layout l = Layout::Inline) { return open('{', l); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(Layout l = Layout::Inline) { return open('[', l); }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next value written is its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& str(std::string_view s);
  JsonWriter& boolean(bool b) { return literal(b ? "true" : "false"); }
  JsonWriter& null() { return literal("null"); }
  /// printf "%.*f" text; null when `v` is not finite.
  JsonWriter& fixed(double v, int decimals = 6);
  /// printf "%g" text (what std::ostream << double prints); null when `v`
  /// is not finite.
  JsonWriter& general(double v);

  template <std::integral T>
  JsonWriter& integer(T v) {
    char buf[24];
    return literal({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }

  /// An inline array of strings.
  template <typename Range>
  JsonWriter& strings(const Range& items) {
    begin_array();
    for (const auto& s : items) str(s);
    return end_array();
  }

 private:
  struct Frame {
    bool lines;
    bool empty;
  };

  /// Writes what must precede the next value or key: nothing after a key,
  /// else the comma and the inline space or the newline and indent.
  void separate();
  void newline(std::size_t depth);
  JsonWriter& open(char bracket, Layout layout);
  JsonWriter& close(char bracket);
  /// Writes pre-rendered value text (a number or keyword).
  JsonWriter& literal(std::string_view text);

  std::string& out_;
  Style style_;
  bool after_key_{false};
  std::vector<Frame> stack_;
};

}  // namespace mcmm
