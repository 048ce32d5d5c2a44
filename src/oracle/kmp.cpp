#include "oracle/kmp.hpp"

#include "strings/failure.hpp"

namespace dbn::strings {

std::vector<std::size_t> kmp_find_all(SymbolView text, SymbolView pattern) {
  std::vector<std::size_t> hits;
  if (pattern.empty()) {
    hits.resize(text.size() + 1);
    for (std::size_t i = 0; i <= text.size(); ++i) {
      hits[i] = i;
    }
    return hits;
  }
  const std::vector<int> border = border_array(pattern);
  int q = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (q == static_cast<int>(pattern.size())) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    while (q > 0 && pattern[static_cast<std::size_t>(q)] != text[i]) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    if (pattern[static_cast<std::size_t>(q)] == text[i]) {
      ++q;
    }
    if (q == static_cast<int>(pattern.size())) {
      hits.push_back(i + 1 - pattern.size());
    }
  }
  return hits;
}

}  // namespace dbn::strings
