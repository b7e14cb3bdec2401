#pragma once
// The JSON module moved to core/json.hpp; these names keep the old
// mcmm::serve spelling working for code outside src/ that still uses it.

#include "core/json.hpp"

namespace mcmm::serve {

using mcmm::json_escape;
using mcmm::json_parse;
using mcmm::json_quote;
using mcmm::JsonValue;

}  // namespace mcmm::serve
