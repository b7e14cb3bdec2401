// Seeded fuzz and round-trip tests for core/json. Everything is
// deterministic (tests/support/rng.hpp with fixed seeds) and runs clean
// under ASan+UBSan:
//  - random value trees, whose strings and keys hold every control
//    character, quotes, backslashes and multi-byte UTF-8, go writer ->
//    parser and come back as the same tree, in both writer styles and
//    with random per-container layouts;
//  - parse -> emit -> parse is the identity on every document that parses,
//    including mutants;
//  - mutated and truncated documents, with lone-surrogate \u escapes
//    spliced in, never crash, and each one either parses or fails with a
//    diagnostic naming a byte offset inside the document.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hpp"
#include "support/rng.hpp"

namespace {

using mcmm::json_parse;
using mcmm::JsonValue;
using mcmm::JsonWriter;
using mcmm::testing::rng;
using Kind = JsonValue::Kind;

constexpr std::uint64_t kSeed = 0x6a736f6e2d66757aull;

/// One piece of a random string: any control character (NUL too), an
/// ASCII character JSON treats specially, or multi-byte UTF-8.
std::string random_piece(rng& r) {
  static constexpr std::string_view kAscii = "\"\\/aZ u{],:\x7f";
  static constexpr const char* kUtf8[] = {"\u00e9", "\u2713", "\U0001F680"};
  switch (r.below(3)) {
    case 0:
      return std::string(1, static_cast<char>(r.below(0x20)));
    case 1:
      return std::string(1, kAscii[r.below(kAscii.size())]);
    default:
      return kUtf8[r.below(std::size(kUtf8))];
  }
}

std::string random_string(rng& r) {
  std::string s;
  for (std::size_t n = r.below(10); n > 0; --n) s += random_piece(r);
  return s;
}

double random_number(rng& r) {
  switch (r.below(3)) {
    case 0: {  // any integer the writer's integer() carries exactly
      const auto v = static_cast<std::int64_t>(r.next() >> 11);
      return static_cast<double>(v - (std::int64_t{1} << 52));
    }
    case 1:  // six-decimal dyadic fractions: fixed() text is exact
      return static_cast<double>(r.int_in(-1000000, 1000000)) / 64.0;
    default:  // quarters below 1000: general() text is exact
      return static_cast<double>(r.int_in(-3999, 3999)) / 4.0;
  }
}

JsonValue random_value(rng& r, int depth) {
  JsonValue v;
  switch (r.below(depth >= 4 ? 4 : 6)) {
    case 0:
      break;
    case 1:
      v.kind = Kind::Bool;
      v.boolean = r.below(2) == 0;
      break;
    case 2:
      v.kind = Kind::Number;
      v.number = random_number(r);
      break;
    case 3:
      v.kind = Kind::String;
      v.string = random_string(r);
      break;
    case 4:
      v.kind = Kind::Array;
      for (std::size_t i = r.below(5); i > 0; --i) {
        v.array.push_back(random_value(r, depth + 1));
      }
      break;
    default:
      v.kind = Kind::Object;
      for (std::size_t i = r.below(5); i > 0; --i) {
        v.object.emplace_back(random_string(r), random_value(r, depth + 1));
      }
      break;
  }
  return v;
}

bool same(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::Null:
      return true;
    case Kind::Bool:
      return a.boolean == b.boolean;
    case Kind::Number:
      return a.number == b.number;
    case Kind::String:
      return a.string == b.string;
    case Kind::Array:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!same(a.array[i], b.array[i])) return false;
      }
      return true;
    case Kind::Object:
      if (a.object.size() != b.object.size()) return false;
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first ||
            !same(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

/// Writes `v` in whichever of the writer's number forms reproduces it
/// exactly; false when none does (a parsed 1e-300, say).
bool emit_number(JsonWriter& w, double v) {
  if (v == std::trunc(v) && std::fabs(v) <= 0x1p53) {
    w.integer(static_cast<std::int64_t>(v));
    return true;
  }
  const std::string fixed = mcmm::fixed_text(v, 6);
  if (std::strtod(fixed.c_str(), nullptr) == v) {
    w.fixed(v, 6);
    return true;
  }
  char general[32];
  std::snprintf(general, sizeof general, "%g", v);
  w.general(v);
  return std::strtod(general, nullptr) == v;
}

/// Writes the tree through `w` with a random layout per container; false
/// when some number could not be written exactly.
bool emit(JsonWriter& w, const JsonValue& v, rng& r) {
  const auto layout = [&r] {
    return r.below(2) == 0 ? JsonWriter::Layout::Inline
                           : JsonWriter::Layout::Lines;
  };
  bool exact = true;
  switch (v.kind) {
    case Kind::Null:
      w.null();
      break;
    case Kind::Bool:
      w.boolean(v.boolean);
      break;
    case Kind::Number:
      exact = emit_number(w, v.number);
      break;
    case Kind::String:
      w.str(v.string);
      break;
    case Kind::Array:
      w.begin_array(layout());
      for (const JsonValue& item : v.array) exact = emit(w, item, r) && exact;
      w.end_array();
      break;
    case Kind::Object:
      w.begin_object(layout());
      for (const auto& [key, value] : v.object) {
        w.key(key);
        exact = emit(w, value, r) && exact;
      }
      w.end_object();
      break;
  }
  return exact;
}

/// The document text of `v` in a random style; `exact` reports whether
/// every number was written exactly.
std::string to_text(const JsonValue& v, rng& r, bool* exact = nullptr) {
  std::string out;
  JsonWriter w(out, r.below(2) == 0 ? JsonWriter::Style::Compact
                                    : JsonWriter::Style::Spaced);
  const bool all_exact = emit(w, v, r);
  if (exact != nullptr) *exact = all_exact;
  return out;
}

/// A random top-level container (what every emitter in the repo writes).
JsonValue random_document(rng& r) {
  JsonValue doc = random_value(r, 0);
  if (doc.kind == Kind::Array || doc.kind == Kind::Object) return doc;
  JsonValue wrapper;
  wrapper.kind = Kind::Array;
  wrapper.array.push_back(std::move(doc));
  return wrapper;
}

/// Byte strings spliced into documents by mutate().
std::string_view random_splice(rng& r) {
  static constexpr std::string_view kSplices[] = {
      R"(\ud800)",        // lone high surrogate
      R"(\udfff)",        // lone low surrogate
      R"(\ud800\u0041)",  // high surrogate without a low one
      R"(\ud83d\ude00)",  // a valid pair
      R"(\u00)",          // cut-off escape
      "\\",               // bare backslash
      "\"",               // quote
      "{}[],:",           // structure
      "-0.1e",            // number stub
      "tru",              // keyword stub
      "\x01",             // raw control character
      "\xc3",             // UTF-8 lead byte without its continuation
  };
  return kSplices[r.below(std::size(kSplices))];
}

std::string mutate(std::string doc, rng& r) {
  for (std::size_t edits = 1 + r.below(3); edits > 0; --edits) {
    const std::size_t at = r.below(doc.size() + 1);
    switch (r.below(4)) {
      case 0:  // overwrite one byte with any byte
        if (at < doc.size()) doc[at] = static_cast<char>(r.below(256));
        break;
      case 1:
        doc.insert(at, random_splice(r));
        break;
      case 2:
        if (at < doc.size()) doc.erase(at, 1 + r.below(4));
        break;
      default:
        doc.resize(at);  // truncate
        break;
    }
  }
  return doc;
}

/// The byte offset named by a parser diagnostic ("... at byte N").
long error_offset(const std::string& error) {
  const std::size_t at = error.rfind(" at byte ");
  if (at == std::string::npos) return -1;
  return std::strtol(error.c_str() + at + 9, nullptr, 10);
}

TEST(JsonFuzz, WriterOutputParsesBackToTheSameTree) {
  rng r(kSeed);
  for (int i = 0; i < 3000; ++i) {
    const JsonValue tree = random_document(r);
    bool exact = false;
    const std::string text = to_text(tree, r, &exact);
    ASSERT_TRUE(exact) << "generator made a number the writer cannot carry";
    std::string error;
    const auto parsed = json_parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << text;
    ASSERT_TRUE(same(tree, *parsed)) << text;
  }
}

TEST(JsonFuzz, MutantsParseOrFailWithAnOffsetAndReEmitStably) {
  rng r(kSeed ^ 1);
  int parsed_count = 0;
  int lossy = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string original = to_text(random_document(r), r);
    const std::string doc = mutate(original, r);
    std::string error;
    const auto parsed = json_parse(doc, &error);
    if (!parsed) {
      const long offset = error_offset(error);
      ASSERT_GE(offset, 0) << "no byte offset in: " << error;
      ASSERT_LE(offset, static_cast<long>(doc.size())) << error;
      continue;
    }
    ++parsed_count;
    // parse -> emit -> parse is the identity.
    bool exact = false;
    const std::string again = to_text(*parsed, r, &exact);
    if (!exact) {
      ++lossy;
      continue;
    }
    const auto reparsed = json_parse(again, &error);
    ASSERT_TRUE(reparsed.has_value()) << error << "\n" << again;
    ASSERT_TRUE(same(*parsed, *reparsed)) << doc << "\n" << again;
  }
  // Enough mutants survive for the round trip to be exercised, and few
  // of them carry a number outside the writer's exact forms.
  EXPECT_GT(parsed_count, 1000);
  EXPECT_LT(lossy, parsed_count / 100 + 1);
}

TEST(JsonFuzz, EveryStrictPrefixOfADocumentIsRejected) {
  rng r(kSeed ^ 2);
  for (int i = 0; i < 300; ++i) {
    const std::string text = to_text(random_document(r), r);
    // The writer ends the document with one newline after the closing
    // bracket; every shorter prefix is an unterminated container.
    const std::size_t end = text.size() - 1;
    for (std::size_t len = 0; len < end; ++len) {
      std::string error;
      ASSERT_FALSE(json_parse(text.substr(0, len), &error).has_value())
          << text.substr(0, len);
      ASSERT_LE(error_offset(error), static_cast<long>(len)) << error;
    }
    ASSERT_TRUE(json_parse(text.substr(0, end)).has_value()) << text;
  }
}

TEST(JsonFuzz, SurrogateEscapesAreStrict) {
  static constexpr const char* kBad[] = {
      R"("\ud800")",        // lone high surrogate
      R"("\udbff")",        // lone high surrogate
      R"("\udc00")",        // lone low surrogate
      R"("\udfff")",        // lone low surrogate
      R"("\ud800A")",       // high surrogate, then a plain character
      R"("\ud800\udbff")",  // two high surrogates
      R"("\ud83d\u")",      // cut-off low surrogate
      R"("\ud83d\ude0")",   // short low surrogate
  };
  for (const char* bad : kBad) {
    std::string error;
    EXPECT_FALSE(json_parse(bad, &error).has_value()) << bad;
    EXPECT_GE(error_offset(error), 0) << error;
  }
  const auto pair = json_parse(R"("\ud83d\ude00\udbff\udfff")");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->string, "\xf0\x9f\x98\x80\xf4\x8f\xbf\xbf");
}

}  // namespace
