#include "core/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace mcmm {
namespace {

constexpr int kMaxDepth = 64;

/// The single-character escapes and what each one decodes to.
constexpr std::string_view kEscapes = "\"\\/bfnrt";
constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";

/// Cursor over the input with a single-error channel.
struct Parser {
  std::string_view text;
  std::size_t pos{0};
  std::string error;

  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }

  void fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
  }

  [[nodiscard]] bool at_end() const noexcept { return pos >= text.size(); }

  [[nodiscard]] char peek() const noexcept {
    return at_end() ? '\0' : text[pos];
  }

  void skip_ws() noexcept {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) noexcept {
    if (peek() != c) return false;
    ++pos;
    return true;
  }

  bool consume_word(std::string_view word) noexcept {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }
};

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool parse_hex4(Parser& p, std::uint32_t& out) {
  if (p.pos + 4 > p.text.size()) {
    p.fail("truncated \\u escape");
    return false;
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = p.text[p.pos + static_cast<std::size_t>(i)];
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      p.fail("bad hex digit in \\u escape");
      return false;
    }
  }
  p.pos += 4;
  out = value;
  return true;
}

bool parse_string(Parser& p, std::string& out) {
  if (!p.consume('"')) {
    p.fail("expected string");
    return false;
  }
  for (;;) {
    if (p.at_end()) {
      p.fail("unterminated string");
      return false;
    }
    const char c = p.text[p.pos];
    if (c == '"') {
      ++p.pos;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      p.fail("unescaped control character in string");
      return false;
    }
    if (c != '\\') {
      out += c;
      ++p.pos;
      continue;
    }
    ++p.pos;  // the backslash
    if (p.at_end()) {
      p.fail("truncated escape");
      return false;
    }
    const char esc = p.text[p.pos++];
    const std::size_t k = kEscapes.find(esc);
    if (k != std::string_view::npos) {
      out += kDecoded[k];
      continue;
    }
    if (esc != 'u') {
      p.fail("unknown escape");
      return false;
    }
    std::uint32_t cp = 0;
    if (!parse_hex4(p, cp)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (!p.consume('\\') || !p.consume('u')) {
        p.fail("lone high surrogate");
        return false;
      }
      std::uint32_t low = 0;
      if (!parse_hex4(p, low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) {
        p.fail("bad low surrogate");
        return false;
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      p.fail("lone low surrogate");
      return false;
    }
    append_utf8(out, cp);
  }
}

bool parse_value(Parser& p, JsonValue& out, int depth);

bool parse_number(Parser& p, JsonValue& out) {
  const std::size_t start = p.pos;
  if (p.peek() == '-') ++p.pos;
  if (!std::isdigit(static_cast<unsigned char>(p.peek()))) {
    p.fail("bad number");
    return false;
  }
  const bool leading_zero = p.peek() == '0';
  while (std::isdigit(static_cast<unsigned char>(p.peek()))) ++p.pos;
  if (leading_zero && p.pos - start > (p.text[start] == '-' ? 2u : 1u)) {
    p.fail("leading zero");  // RFC 8259: int is 0 / digit1-9 *DIGIT
    return false;
  }
  if (p.peek() == '.') {
    ++p.pos;
    if (!std::isdigit(static_cast<unsigned char>(p.peek()))) {
      p.fail("bad fraction");
      return false;
    }
    while (std::isdigit(static_cast<unsigned char>(p.peek()))) ++p.pos;
  }
  if (p.peek() == 'e' || p.peek() == 'E') {
    ++p.pos;
    if (p.peek() == '+' || p.peek() == '-') ++p.pos;
    if (!std::isdigit(static_cast<unsigned char>(p.peek()))) {
      p.fail("bad exponent");
      return false;
    }
    while (std::isdigit(static_cast<unsigned char>(p.peek()))) ++p.pos;
  }
  const std::string_view token = p.text.substr(start, p.pos - start);
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    p.fail("unrepresentable number");
    return false;
  }
  out.kind = JsonValue::Kind::Number;
  out.number = value;
  return true;
}

bool parse_array(Parser& p, JsonValue& out, int depth) {
  ++p.pos;  // '['
  out.kind = JsonValue::Kind::Array;
  p.skip_ws();
  if (p.consume(']')) return true;
  for (;;) {
    JsonValue item;
    if (!parse_value(p, item, depth + 1)) return false;
    out.array.push_back(std::move(item));
    p.skip_ws();
    if (p.consume(']')) return true;
    if (!p.consume(',')) {
      p.fail("expected ',' or ']'");
      return false;
    }
    p.skip_ws();
  }
}

bool parse_object(Parser& p, JsonValue& out, int depth) {
  ++p.pos;  // '{'
  out.kind = JsonValue::Kind::Object;
  p.skip_ws();
  if (p.consume('}')) return true;
  for (;;) {
    p.skip_ws();
    std::string key;
    if (!parse_string(p, key)) return false;
    p.skip_ws();
    if (!p.consume(':')) {
      p.fail("expected ':'");
      return false;
    }
    JsonValue value;
    if (!parse_value(p, value, depth + 1)) return false;
    out.object.emplace_back(std::move(key), std::move(value));
    p.skip_ws();
    if (p.consume('}')) return true;
    if (!p.consume(',')) {
      p.fail("expected ',' or '}'");
      return false;
    }
  }
}

bool parse_value(Parser& p, JsonValue& out, int depth) {
  if (depth > kMaxDepth) {
    p.fail("nesting too deep");
    return false;
  }
  p.skip_ws();
  switch (p.peek()) {
    case '{':
      return parse_object(p, out, depth);
    case '[':
      return parse_array(p, out, depth);
    case '"':
      out.kind = JsonValue::Kind::String;
      return parse_string(p, out.string);
    case 't':
      if (!p.consume_word("true")) break;
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      return true;
    case 'f':
      if (!p.consume_word("false")) break;
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      return true;
    case 'n':
      if (!p.consume_word("null")) break;
      out.kind = JsonValue::Kind::Null;
      return true;
    default:
      if (p.peek() == '-' ||
          std::isdigit(static_cast<unsigned char>(p.peek()))) {
        return parse_number(p, out);
      }
      break;
  }
  p.fail("expected a JSON value");
  return false;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<std::int64_t> JsonValue::find_integer(
    std::string_view key) const noexcept {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind != Kind::Number ||
      !(std::fabs(v->number) <= 0x1p53) ||
      v->number != std::trunc(v->number)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(v->number);
}

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, {}};
  JsonValue root;
  if (!parse_value(p, root, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    p.fail("trailing garbage after document");
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  return root;
}

void json_escape(std::string& out, std::string_view in) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto c = static_cast<unsigned char>(in[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(in.data() + run, i - run);
    run = i + 1;
    out += '\\';
    if (c == '"' || c == '\\') {
      out += static_cast<char>(c);
    } else if (c >= '\b' && c <= '\r' && c != '\v') {
      out += "btn?fr"[c - '\b'];  // \b \t \n \f \r (\v has no short form)
    } else {
      out += "u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    }
  }
  out.append(in.data() + run, in.size() - run);
}

std::string json_quote(std::string_view in) {
  std::string out;
  out.reserve(in.size() + 2);
  out += '"';
  json_escape(out, in);
  out += '"';
  return out;
}

std::string fixed_text(double v, int decimals) {
  char buf[352];  // %f of DBL_MAX is 309 digits before the point
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

// --- JsonWriter -------------------------------------------------------------

void JsonWriter::newline(std::size_t depth) {
  out_ += '\n';
  if (style_ == Style::Spaced) out_.append(2 * depth, ' ');
}

void JsonWriter::separate() {
  if (after_key_ || stack_.empty()) {  // a member value or the document
    after_key_ = false;
    return;
  }
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += ',';
  if (frame.lines) {
    newline(stack_.size());
  } else if (!frame.empty && style_ == Style::Spaced) {
    out_ += ' ';
  }
  frame.empty = false;
}

JsonWriter& JsonWriter::open(char bracket, Layout layout) {
  separate();
  out_ += bracket;
  stack_.push_back(Frame{layout == Layout::Lines, true});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const bool lines = stack_.back().lines;
  stack_.pop_back();
  if (lines) newline(stack_.size());
  out_ += bracket;
  if (stack_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  str(name);
  out_ += style_ == Style::Spaced ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view s) {
  separate();
  out_ += '"';
  json_escape(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::literal(std::string_view text) {
  separate();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::fixed(double v, int decimals) {
  return literal(std::isfinite(v) ? fixed_text(v, decimals) : "null");
}

JsonWriter& JsonWriter::general(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return literal(std::isfinite(v) ? buf : "null");
}

}  // namespace mcmm
