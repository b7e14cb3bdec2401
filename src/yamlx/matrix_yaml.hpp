#pragma once
// YAML binding for the compatibility matrix — the reproduction of the
// author's "source data in YAML form" pipeline: the full dataset can be
// exported to YAML, edited, and re-imported (with validation).

#include <string>
#include <string_view>

#include "core/matrix.hpp"
#include "yamlx/node.hpp"

namespace mcmm::yamlx {

/// Serializes the full matrix (descriptions + cells + routes) to a node tree.
[[nodiscard]] Node matrix_to_yaml(const CompatibilityMatrix& m);

/// Rebuilds a validated matrix from a node tree produced by matrix_to_yaml
/// (or hand-written in the same schema). Throws TypeError / IntegrityError on
/// malformed input.
[[nodiscard]] CompatibilityMatrix matrix_from_yaml(const Node& root);

/// Convenience: full text round trip.
[[nodiscard]] std::string matrix_to_yaml_text(const CompatibilityMatrix& m);
[[nodiscard]] CompatibilityMatrix matrix_from_yaml_text(std::string_view s);

}  // namespace mcmm::yamlx
