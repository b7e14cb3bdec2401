// Fuzz-lite robustness tests for the YAML parser: deterministic mutations
// of a valid document must either parse or throw ParseError/TypeError —
// never crash, hang, or corrupt memory (run under ASan in CI setups).

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string_view>

#include "yamlx/emit.hpp"
#include "yamlx/matrix_yaml.hpp"
#include "yamlx/parse.hpp"

#include "core/error.hpp"
#include "data/dataset.hpp"
#include "support/rng.hpp"

namespace mcmm::yamlx {
namespace {

/// Deterministic seeded generator (shared test helper) so failures
/// reproduce.
using Rng = mcmm::testing::rng;

[[nodiscard]] std::string base_document() {
  Node root = Node::mapping();
  root.set("title", Node::scalar("fuzz target"));
  Node seq = Node::sequence();
  for (int i = 0; i < 4; ++i) {
    Node item = Node::mapping();
    item.set("id", Node::scalar(std::to_string(i)));
    item.set("label", Node::scalar("value: with colon #" + std::to_string(i)));
    Node nested = Node::sequence();
    nested.push_back(Node::scalar("a"));
    nested.push_back(Node::scalar("b"));
    item.set("tags", std::move(nested));
    seq.push_back(std::move(item));
  }
  root.set("items", std::move(seq));
  return emit(root);
}

void expect_parse_or_clean_error(const std::string& doc) {
  try {
    const Node n = parse(doc);
    (void)n.size();
  } catch (const ParseError&) {
    // acceptable
  } catch (const TypeError&) {
    // acceptable
  }
}

TEST(YamlFuzz, SingleCharacterMutations) {
  const std::string base = base_document();
  Rng rng(0x9E3779B97F4A7C15ull);
  const char charset[] = ":-#\"' \n\tabz[]{}&*|>%@";
  for (int round = 0; round < 500; ++round) {
    std::string doc = base;
    const std::size_t pos = rng.below(doc.size());
    doc[pos] = charset[rng.below(sizeof(charset) - 1)];
    expect_parse_or_clean_error(doc);
  }
}

TEST(YamlFuzz, TruncationsAtEveryBoundary) {
  const std::string base = base_document();
  for (std::size_t len = 0; len <= base.size(); ++len) {
    expect_parse_or_clean_error(base.substr(0, len));
  }
}

TEST(YamlFuzz, RandomInsertions) {
  const std::string base = base_document();
  Rng rng(0xDEADBEEFCAFEBABEull);
  const char charset[] = ":-#\"'\n  ";
  for (int round = 0; round < 300; ++round) {
    std::string doc = base;
    const std::size_t pos = rng.below(doc.size());
    doc.insert(pos, 1, charset[rng.below(sizeof(charset) - 1)]);
    expect_parse_or_clean_error(doc);
  }
}

TEST(YamlFuzz, LineShuffles) {
  // Reordering lines produces structurally odd but crash-free inputs.
  const std::string base = base_document();
  std::vector<std::string> lines;
  std::istringstream in(base);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  Rng rng(42);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::string> shuffled = lines;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    std::string doc;
    for (const std::string& l : shuffled) doc += l + "\n";
    expect_parse_or_clean_error(doc);
  }
}

TEST(YamlFuzz, MatrixDocumentMutations) {
  // Mutating the real dataset document must never crash the full
  // from-YAML pipeline either.
  const std::string base =
      matrix_to_yaml_text(data::paper_matrix()).substr(0, 4000);
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::string doc = base;
    doc[rng.below(doc.size())] = static_cast<char>('!' + rng.below(90));
    try {
      (void)matrix_from_yaml_text(doc);
    } catch (const ParseError&) {
    } catch (const TypeError&) {
    } catch (const mcmm::Error&) {  // IntegrityError from validation
    }
  }
}

TEST(YamlFuzz, DeepNestingDoesNotOverflow) {
  // 2000 levels of nesting: the recursive-descent parser must survive
  // (each level is one stack frame; keep depth bounded but significant).
  std::string doc;
  std::string pad;
  for (int depth = 0; depth < 500; ++depth) {
    doc += pad + "k:\n";
    pad += "  ";
  }
  doc += pad + "leaf: 1\n";
  const Node n = parse(doc);
  const Node* cursor = &n;
  for (int depth = 0; depth < 500; ++depth) {
    cursor = &cursor->at("k");
  }
  EXPECT_EQ(cursor->at("leaf").as_int(), 1);
}

// --- emit -> parse identity on random node trees ---

/// Scalar pieces: the characters the emitter has to quote (':', '#',
/// quotes, a leading '-'), whitespace and escapes, YAML indicators, and
/// two-, three- and four-byte UTF-8.
constexpr std::string_view kScalarPieces[] = {
    "a",  "Z",    "7", " ",   ":",  ": ", "#",   " #", "\"",         "'",
    "-",  "- ",   "\\", "\t", "\n", "?",  "&",   "*",  "!",          "|",
    ">",  "%",    "@", "[",   "]",  "{",  "}",   ",",  "---",        "\xc3\xa9",
    "\xe2\x82\xac", "\xf0\x9f\x98\x80"};

/// Zero to five pieces; zero gives the empty scalar.
[[nodiscard]] std::string random_scalar(Rng& rng) {
  std::string s;
  for (std::size_t n = rng.below(6); n > 0; --n) {
    s += kScalarPieces[rng.below(std::size(kScalarPieces))];
  }
  return s;
}

/// A non-empty sequence or mapping (an empty container re-parses as an
/// empty scalar, which the emitter documents) with unique keys; children
/// nest up to `depth` more levels.
[[nodiscard]] Node random_container(Rng& rng, int depth);

[[nodiscard]] Node random_node(Rng& rng, int depth) {
  if (depth == 0 || rng.below(3) == 0) return Node::scalar(random_scalar(rng));
  return random_container(rng, depth - 1);
}

Node random_container(Rng& rng, int depth) {
  const std::size_t size = 1 + rng.below(4);
  if (rng.below(2) == 0) {
    Node seq = Node::sequence();
    while (seq.size() < size) seq.push_back(random_node(rng, depth));
    return seq;
  }
  Node map = Node::mapping();
  while (map.size() < size) {
    std::string key = random_scalar(rng);
    if (map.find(key) == nullptr) {
      map.set(std::move(key), random_node(rng, depth));
    }
  }
  return map;
}

TEST(YamlFuzz, EmitParseIdentityOnRandomTrees) {
  Rng rng(0x59A3'1C0D'E5EEDull);
  for (int round = 0; round < 3000; ++round) {
    const Node tree = random_container(rng, static_cast<int>(rng.below(4)));
    const std::string text = emit(tree);
    Node back;
    try {
      back = parse(text);
    } catch (const ParseError& e) {
      FAIL() << "round " << round << ": " << e.what() << "\n" << text;
    }
    ASSERT_EQ(back, tree) << "round " << round << ":\n" << text;
    ASSERT_EQ(emit(back), text) << "round " << round;
  }
}

}  // namespace
}  // namespace mcmm::yamlx
