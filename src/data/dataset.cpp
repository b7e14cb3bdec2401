#include "data/dataset.hpp"

#include "yamlx/matrix_yaml.hpp"

namespace mcmm::data {

CompatibilityMatrix build_paper_matrix() {
  return yamlx::matrix_from_yaml_text(paper_matrix_yaml());
}

const CompatibilityMatrix& paper_matrix() {
  static const CompatibilityMatrix matrix = build_paper_matrix();
  return matrix;
}

}  // namespace mcmm::data
