#pragma once
// The paper's full dataset: Fig. 1's 51 cells and Sec. 4's 44 descriptions,
// encoded as a validated CompatibilityMatrix. Their only source is
// src/data/gpu_compat.yaml, embedded in the library at build time; `mcmm
// export` writes the same bytes back.
//
// Provenance: ratings reconstructed from the Sec. 4 descriptions and the
// Sec. 5 discussion (see DESIGN.md Sec. 5); every cell carries
// `inferred: true` except the cells the discussion pins explicitly.

#include <string_view>

#include "core/matrix.hpp"

namespace mcmm::data {

/// The singleton paper dataset; built and validated on first use.
[[nodiscard]] const CompatibilityMatrix& paper_matrix();

/// Builds a fresh copy by parsing the embedded YAML. Throws TypeError or
/// IntegrityError when the file is malformed (e.g. a dangling description
/// id), so a bad edit fails on first use.
[[nodiscard]] CompatibilityMatrix build_paper_matrix();

/// The embedded text of src/data/gpu_compat.yaml, byte for byte.
[[nodiscard]] std::string_view paper_matrix_yaml() noexcept;

}  // namespace mcmm::data
