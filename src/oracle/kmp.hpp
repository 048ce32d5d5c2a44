// Knuth–Morris–Pratt search over the Morris–Pratt failure function of
// strings/failure.hpp: a linear-time reference for naive::find_all.
#pragma once

#include <cstddef>
#include <vector>

#include "strings/symbol.hpp"

namespace dbn::strings {

/// All start positions (0-based) at which `pattern` occurs in `text`,
/// via Knuth–Morris–Pratt. An empty pattern occurs at every position
/// 0..|text|. O(|text| + |pattern|) time.
std::vector<std::size_t> kmp_find_all(SymbolView text, SymbolView pattern);

}  // namespace dbn::strings
