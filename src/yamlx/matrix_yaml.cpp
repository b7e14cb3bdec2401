#include "yamlx/matrix_yaml.hpp"

#include <string>

#include "core/error.hpp"
#include "yamlx/emit.hpp"
#include "yamlx/parse.hpp"

namespace mcmm::yamlx {
namespace {

[[nodiscard]] Node string_sequence(const std::vector<std::string>& items) {
  Node seq = Node::sequence();
  for (const std::string& s : items) seq.push_back(Node::scalar(s));
  return seq;
}

[[nodiscard]] std::vector<std::string> to_string_vector(const Node& seq) {
  std::vector<std::string> out;
  for (const Node& n : seq.as_sequence()) out.push_back(n.as_string());
  return out;
}

[[nodiscard]] Node rating_to_yaml(const Rating& r) {
  Node n = Node::mapping();
  n.set("category", Node::scalar(std::string(category_name(r.category))));
  n.set("provider", Node::scalar(std::string(to_string(r.provider))));
  n.set("rationale", Node::scalar(r.rationale));
  return n;
}

[[nodiscard]] Rating rating_from_yaml(const Node& n) {
  Rating r;
  const auto cat = parse_category(n.at("category").as_string());
  if (!cat) throw TypeError("bad category: " + n.at("category").as_string());
  const auto prov = parse_provider(n.at("provider").as_string());
  if (!prov) throw TypeError("bad provider: " + n.at("provider").as_string());
  r.category = *cat;
  r.provider = *prov;
  r.rationale = n.at("rationale").as_string();
  return r;
}

[[nodiscard]] Node route_to_yaml(const Route& r) {
  Node n = Node::mapping();
  n.set("name", Node::scalar(r.name));
  n.set("kind", Node::scalar(std::string(to_string(r.kind))));
  n.set("provider", Node::scalar(std::string(to_string(r.provider))));
  n.set("maturity", Node::scalar(std::string(to_string(r.maturity))));
  n.set("toolchain", Node::scalar(r.toolchain));
  if (!r.flags.empty()) n.set("flags", string_sequence(r.flags));
  if (!r.environment.empty()) {
    n.set("environment", string_sequence(r.environment));
  }
  if (!r.notes.empty()) n.set("notes", Node::scalar(r.notes));
  return n;
}

[[nodiscard]] Route route_from_yaml(const Node& n) {
  Route r;
  r.name = n.at("name").as_string();
  const auto kind = parse_route_kind(n.at("kind").as_string());
  if (!kind) throw TypeError("bad route kind: " + n.at("kind").as_string());
  r.kind = *kind;
  const auto prov = parse_provider(n.at("provider").as_string());
  if (!prov) throw TypeError("bad provider: " + n.at("provider").as_string());
  r.provider = *prov;
  const auto mat = parse_maturity(n.at("maturity").as_string());
  if (!mat) throw TypeError("bad maturity: " + n.at("maturity").as_string());
  r.maturity = *mat;
  r.toolchain = n.at("toolchain").as_string();
  if (const Node* flags = n.find("flags")) r.flags = to_string_vector(*flags);
  if (const Node* env = n.find("environment")) {
    r.environment = to_string_vector(*env);
  }
  if (const Node* notes = n.find("notes")) r.notes = notes->as_string();
  return r;
}

}  // namespace

Node matrix_to_yaml(const CompatibilityMatrix& m) {
  Node root = Node::mapping();

  Node descs = Node::sequence();
  for (const Description* d : m.descriptions()) {
    Node n = Node::mapping();
    n.set("id", Node::scalar(std::to_string(d->id)));
    n.set("title", Node::scalar(d->title));
    n.set("text", Node::scalar(d->text));
    if (!d->references.empty()) {
      n.set("references", string_sequence(d->references));
    }
    descs.push_back(std::move(n));
  }
  root.set("descriptions", std::move(descs));

  Node cells = Node::sequence();
  for (const SupportEntry* e : m.entries()) {
    Node n = Node::mapping();
    n.set("vendor", Node::scalar(std::string(to_string(e->combo.vendor))));
    n.set("model", Node::scalar(std::string(to_string(e->combo.model))));
    n.set("language",
          Node::scalar(std::string(to_string(e->combo.language))));
    n.set("description", Node::scalar(std::to_string(e->description_id)));
    n.set("inferred", Node::scalar(e->inferred ? "true" : "false"));
    Node ratings = Node::sequence();
    for (const Rating& r : e->ratings) ratings.push_back(rating_to_yaml(r));
    n.set("ratings", std::move(ratings));
    if (!e->routes.empty()) {
      Node routes = Node::sequence();
      for (const Route& r : e->routes) routes.push_back(route_to_yaml(r));
      n.set("routes", std::move(routes));
    }
    cells.push_back(std::move(n));
  }
  root.set("cells", std::move(cells));
  return root;
}

CompatibilityMatrix matrix_from_yaml(const Node& root) {
  CompatibilityMatrix m;
  for (const Node& n : root.at("descriptions").as_sequence()) {
    Description d;
    d.id = static_cast<int>(n.at("id").as_int());
    d.title = n.at("title").as_string();
    d.text = n.at("text").as_string();
    if (const Node* refs = n.find("references")) {
      d.references = to_string_vector(*refs);
    }
    m.add_description(std::move(d));
  }
  for (const Node& n : root.at("cells").as_sequence()) {
    SupportEntry e;
    const auto vendor = parse_vendor(n.at("vendor").as_string());
    const auto model = parse_model(n.at("model").as_string());
    const auto language = parse_language(n.at("language").as_string());
    if (!vendor || !model || !language) {
      throw TypeError("bad combination in cell");
    }
    e.combo = Combination{*vendor, *model, *language};
    e.description_id = static_cast<int>(n.at("description").as_int());
    e.inferred = n.at("inferred").as_bool();
    for (const Node& r : n.at("ratings").as_sequence()) {
      e.ratings.push_back(rating_from_yaml(r));
    }
    if (const Node* routes = n.find("routes")) {
      for (const Node& r : routes->as_sequence()) {
        e.routes.push_back(route_from_yaml(r));
      }
    }
    m.add_entry(std::move(e));
  }
  m.validate();
  return m;
}

std::string matrix_to_yaml_text(const CompatibilityMatrix& m) {
  return emit(matrix_to_yaml(m));
}

CompatibilityMatrix matrix_from_yaml_text(std::string_view s) {
  return matrix_from_yaml(parse(s));
}

}  // namespace mcmm::yamlx
