#include "yamlx/parse.hpp"

#include <cctype>
#include <vector>

namespace mcmm::yamlx {
namespace {

struct Line {
  int indent{};
  std::string content;  ///< comment-stripped, trailing-whitespace-trimmed
  int number{};         ///< 1-based source line
};

[[nodiscard]] bool is_blank(std::string_view s) {
  return s.find_first_not_of(" \t") == std::string_view::npos;
}

/// Strips a trailing comment that is outside quotes and preceded by a space
/// (or starts the content).
[[nodiscard]] std::string strip_comment(std::string_view s, int line) {
  std::string out;
  char quote = '\0';
  // A quote only opens a quoted scalar where a scalar starts: at the start
  // of the content, after a "- " item marker or after a ": " separator.
  // Inside a plain scalar ("AMD's", `say "hi`) quotes are content.
  bool token_start = true;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote != '\0') {
      out += c;
      if (c == quote) {
        // '' escapes a quote inside single-quoted scalars.
        if (quote == '\'' && i + 1 < s.size() && s[i + 1] == '\'') {
          out += s[++i];
        } else {
          quote = '\0';
        }
      } else if (quote == '"' && c == '\\' && i + 1 < s.size()) {
        out += s[++i];
      }
      continue;
    }
    if (token_start && (c == '\'' || c == '"')) {
      quote = c;
      token_start = false;
      out += c;
      continue;
    }
    if (c == '#' && (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
      break;  // comment until end of line
    }
    out += c;
    const bool before_space = i + 1 == s.size() || s[i + 1] == ' ';
    if ((c == '-' && token_start && before_space) ||
        (c == ':' && before_space)) {
      token_start = true;
    } else if (c != ' ') {
      token_start = false;
    }
  }
  if (quote != '\0') throw ParseError("unterminated quoted scalar", line);
  // Trim trailing whitespace.
  const std::size_t end = out.find_last_not_of(" \t");
  return end == std::string::npos ? std::string{} : out.substr(0, end + 1);
}

[[nodiscard]] std::vector<Line> split_lines(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    ++number;
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    if (is_blank(raw)) continue;
    std::size_t indent = 0;
    while (indent < raw.size() && raw[indent] == ' ') ++indent;
    if (indent < raw.size() && raw[indent] == '\t') {
      throw ParseError("tab indentation is not supported", number);
    }
    const std::string content = strip_comment(raw.substr(indent), number);
    if (content.empty()) continue;  // comment-only line
    lines.push_back(Line{static_cast<int>(indent), content, number});
  }
  return lines;
}

/// Unquotes a scalar token.
[[nodiscard]] std::string parse_scalar(std::string_view s, int line) {
  if (s.empty()) return {};
  if (s.front() == '\'' || s.front() == '"') {
    const char quote = s.front();
    if (s.size() < 2 || s.back() != quote) {
      throw ParseError("unterminated quoted scalar", line);
    }
    std::string out;
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
      const char c = s[i];
      if (quote == '\'' && c == '\'') {
        if (i + 2 >= s.size() || s[i + 1] != '\'') {
          throw ParseError("bad quote escape", line);
        }
        out += '\'';
        ++i;
      } else if (quote == '"' && c == '\\') {
        if (i + 2 >= s.size()) throw ParseError("bad escape", line);
        const char e = s[++i];
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          default:
            throw ParseError(std::string("unknown escape \\") + e, line);
        }
      } else {
        out += c;
      }
    }
    return out;
  }
  if (s.front() == '&' || s.front() == '*' || s.front() == '!') {
    throw ParseError("anchors/aliases/tags are not supported", line);
  }
  if (s.front() == '[' || s.front() == '{') {
    throw ParseError("flow collections are not supported", line);
  }
  if (s.front() == '|' || s.front() == '>') {
    throw ParseError("block scalars are not supported", line);
  }
  return std::string(s);
}

/// Finds the position of the `: ` key separator after the key token (a
/// quoted key is skipped whole, escapes included); npos if the content is
/// not a mapping entry.
[[nodiscard]] std::size_t find_key_separator(std::string_view s) {
  std::size_t i = 0;
  if (!s.empty() && (s.front() == '\'' || s.front() == '"')) {
    const char quote = s.front();
    for (i = 1; i < s.size(); ++i) {
      if (quote == '"' && s[i] == '\\') {
        ++i;
      } else if (s[i] == quote) {
        if (quote == '"' || i + 1 == s.size() || s[i + 1] != '\'') break;
        ++i;  // '' inside a single-quoted key
      }
    }
  }
  for (; i < s.size(); ++i) {
    if (s[i] == ':' && (i + 1 == s.size() || s[i + 1] == ' ')) return i;
  }
  return std::string_view::npos;
}

class Parser {
 public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  [[nodiscard]] Node parse_document() {
    if (lines_.empty()) return Node::mapping();
    if (lines_.front().content == "---") ++pos_;
    if (pos_ >= lines_.size()) return Node::mapping();
    Node root = parse_block(lines_[pos_].indent);
    if (pos_ < lines_.size()) {
      throw ParseError("trailing content (multi-document streams are not "
                       "supported)",
                       lines_[pos_].number);
    }
    return root;
  }

 private:
  [[nodiscard]] Node parse_block(int indent) {
    const Line& first = lines_[pos_];
    if (first.indent != indent) {
      throw ParseError("unexpected indentation", first.number);
    }
    if (first.content == "---") {
      throw ParseError("multi-document streams are not supported",
                       first.number);
    }
    if (first.content.rfind("- ", 0) == 0 || first.content == "-") {
      return parse_sequence(indent);
    }
    return parse_mapping(indent);
  }

  [[nodiscard]] Node parse_sequence(int indent) {
    Node seq = Node::sequence();
    while (pos_ < lines_.size() && lines_[pos_].indent == indent &&
           (lines_[pos_].content.rfind("- ", 0) == 0 ||
            lines_[pos_].content == "-")) {
      const Line item = lines_[pos_];
      if (item.content == "-") {
        ++pos_;
        if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
          seq.push_back(parse_block(lines_[pos_].indent));
        } else {
          seq.push_back(Node::scalar(""));
        }
        continue;
      }
      const std::string_view rest =
          std::string_view(item.content).substr(2);
      if (rest.rfind("- ", 0) == 0 || rest == "-") {
        // "- - a" starts a compact nested sequence whose items sit at the
        // column of `rest`.
        lines_[pos_] = Line{indent + 2, std::string(rest), item.number};
        seq.push_back(parse_sequence(indent + 2));
        continue;
      }
      const std::size_t sep = find_key_separator(rest);
      if (sep != std::string_view::npos) {
        // "- key: value" starts an inline mapping whose keys sit at the
        // column of `rest`.
        const int map_indent = indent + 2;
        lines_[pos_] = Line{map_indent, std::string(rest), item.number};
        seq.push_back(parse_mapping(map_indent));
      } else {
        ++pos_;
        seq.push_back(Node::scalar(parse_scalar(rest, item.number)));
      }
    }
    if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
      throw ParseError("unexpected deeper indentation after sequence",
                       lines_[pos_].number);
    }
    return seq;
  }

  [[nodiscard]] Node parse_mapping(int indent) {
    Node map = Node::mapping();
    while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
      const Line& line = lines_[pos_];
      if (line.content.rfind("- ", 0) == 0 || line.content == "-") break;
      const std::size_t sep = find_key_separator(line.content);
      if (sep == std::string_view::npos) {
        throw ParseError("expected 'key:' mapping entry", line.number);
      }
      std::string key =
          parse_scalar(std::string_view(line.content).substr(0, sep),
                       line.number);
      std::string_view rest = std::string_view(line.content).substr(sep + 1);
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      if (map.find(key) != nullptr) {
        throw ParseError("duplicate key '" + key + "'", line.number);
      }
      if (!rest.empty()) {
        map.set(std::move(key), Node::scalar(parse_scalar(rest, line.number)));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
        map.set(std::move(key), parse_block(lines_[pos_].indent));
      } else if (pos_ < lines_.size() && lines_[pos_].indent == indent &&
                 (lines_[pos_].content.rfind("- ", 0) == 0 ||
                  lines_[pos_].content == "-")) {
        // Sequences are commonly indented at the same level as their key.
        map.set(std::move(key), parse_sequence(indent));
      } else {
        map.set(std::move(key), Node::scalar(""));
      }
    }
    if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
      throw ParseError("unexpected deeper indentation", lines_[pos_].number);
    }
    return map;
  }

  std::vector<Line> lines_;
  std::size_t pos_{0};
};

}  // namespace

Node parse(std::string_view text) {
  return Parser(split_lines(text)).parse_document();
}

}  // namespace mcmm::yamlx
