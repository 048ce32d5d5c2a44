#include "oracle/suffix_tree.hpp"

#include <algorithm>
#include <sstream>

#include "common/contract.hpp"

namespace dbn::strings {

namespace {
// Sentinel edge end for leaves while Ukkonen's build is in flight; replaced
// by text size in finalize().
constexpr std::size_t kOpenEnd = static_cast<std::size_t>(-1);
}  // namespace

SuffixTree::SuffixTree(std::vector<Symbol> text) : text_(std::move(text)) {
  validate_text();
  build_ukkonen();
  finalize();
}

void SuffixTree::validate_text() const {
  DBN_REQUIRE(!text_.empty(), "SuffixTree requires a non-empty text");
  const Symbol endmarker = text_.back();
  for (std::size_t i = 0; i + 1 < text_.size(); ++i) {
    DBN_REQUIRE(text_[i] != endmarker,
                "SuffixTree requires the last symbol to be a unique endmarker");
  }
}

int SuffixTree::new_node(std::size_t start, std::size_t end) {
  nodes_.push_back(Node{start, end, /*parent=*/-1, /*link=*/0, /*depth=*/0, {}});
  return static_cast<int>(nodes_.size()) - 1;
}

std::size_t SuffixTree::edge_length(int v, std::size_t pos) const {
  const Node& node = nodes_[static_cast<std::size_t>(v)];
  return (node.end == kOpenEnd ? pos + 1 : node.end) - node.start;
}

void SuffixTree::build_ukkonen() {
  nodes_.reserve(2 * text_.size());
  new_node(0, 0);  // root
  for (std::size_t pos = 0; pos < text_.size(); ++pos) {
    extend(pos);
  }
  DBN_ASSERT(remaining_ == 0,
             "all suffixes must be inserted once the endmarker is processed");
}

void SuffixTree::extend(std::size_t pos) {
  int last_new_node = -1;
  ++remaining_;
  while (remaining_ > 0) {
    if (active_length_ == 0) {
      active_edge_ = pos;
    }
    auto it = nodes_[static_cast<std::size_t>(active_node_)].children.find(
        text_[active_edge_]);
    if (it == nodes_[static_cast<std::size_t>(active_node_)].children.end()) {
      // Rule 2a: no edge starts with this symbol — grow a leaf here.
      const int leaf = new_node(pos, kOpenEnd);
      nodes_[static_cast<std::size_t>(active_node_)].children[text_[active_edge_]] =
          leaf;
      if (last_new_node != -1) {
        nodes_[static_cast<std::size_t>(last_new_node)].link = active_node_;
        last_new_node = -1;
      }
    } else {
      const int next = it->second;
      const std::size_t len = edge_length(next, pos);
      if (active_length_ >= len) {
        // Walk down (canonicalize) and retry from the deeper node.
        active_edge_ += len;
        active_length_ -= len;
        active_node_ = next;
        continue;
      }
      if (text_[nodes_[static_cast<std::size_t>(next)].start + active_length_] ==
          text_[pos]) {
        // Rule 3: already present — this phase ends.
        if (last_new_node != -1 && active_node_ != 0) {
          nodes_[static_cast<std::size_t>(last_new_node)].link = active_node_;
          last_new_node = -1;
        }
        ++active_length_;
        break;
      }
      // Rule 2b: split the edge and grow a leaf from the split node.
      const std::size_t split_start = nodes_[static_cast<std::size_t>(next)].start;
      const int split = new_node(split_start, split_start + active_length_);
      nodes_[static_cast<std::size_t>(active_node_)].children[text_[active_edge_]] =
          split;
      const int leaf = new_node(pos, kOpenEnd);
      nodes_[static_cast<std::size_t>(split)].children[text_[pos]] = leaf;
      nodes_[static_cast<std::size_t>(next)].start += active_length_;
      nodes_[static_cast<std::size_t>(split)]
          .children[text_[nodes_[static_cast<std::size_t>(next)].start]] = next;
      if (last_new_node != -1) {
        nodes_[static_cast<std::size_t>(last_new_node)].link = split;
      }
      last_new_node = split;
    }
    --remaining_;
    if (active_node_ == 0 && active_length_ > 0) {
      --active_length_;
      active_edge_ = pos - remaining_ + 1;
    } else if (active_node_ != 0) {
      active_node_ = nodes_[static_cast<std::size_t>(active_node_)].link;
    }
  }
}

void SuffixTree::finalize() {
  // Close leaf edges, then compute parents and string depths iteratively.
  for (Node& node : nodes_) {
    if (node.end == kOpenEnd) {
      node.end = text_.size();
    }
  }
  std::vector<int> stack = {0};
  nodes_[0].parent = -1;
  nodes_[0].depth = 0;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const auto& [symbol, child] : nodes_[static_cast<std::size_t>(v)].children) {
      (void)symbol;
      Node& c = nodes_[static_cast<std::size_t>(child)];
      c.parent = v;
      c.depth = nodes_[static_cast<std::size_t>(v)].depth +
                static_cast<int>(c.end - c.start);
      stack.push_back(child);
    }
  }
}

SuffixTree SuffixTree::build_naive(std::vector<Symbol> text) {
  SuffixTree tree;
  tree.text_ = std::move(text);
  tree.validate_text();
  tree.new_node(0, 0);  // root
  const std::size_t n = tree.text_.size();
  for (std::size_t suffix = 0; suffix < n; ++suffix) {
    // Walk/match the suffix from the root, splitting on first mismatch.
    int v = 0;
    std::size_t i = suffix;
    while (true) {
      DBN_ASSERT(i < n, "endmarker uniqueness guarantees leaf termination");
      auto it = tree.nodes_[static_cast<std::size_t>(v)].children.find(
          tree.text_[i]);
      if (it == tree.nodes_[static_cast<std::size_t>(v)].children.end()) {
        const int leaf = tree.new_node(i, n);
        tree.nodes_[static_cast<std::size_t>(v)].children[tree.text_[i]] = leaf;
        break;
      }
      const int next = it->second;
      const std::size_t start = tree.nodes_[static_cast<std::size_t>(next)].start;
      const std::size_t end = tree.nodes_[static_cast<std::size_t>(next)].end;
      std::size_t matched = 0;
      while (start + matched < end && tree.text_[start + matched] == tree.text_[i + matched]) {
        ++matched;
      }
      if (start + matched == end) {
        v = next;
        i += matched;
        continue;
      }
      // Split edge after `matched` symbols.
      const int split = tree.new_node(start, start + matched);
      tree.nodes_[static_cast<std::size_t>(v)].children[tree.text_[start]] = split;
      tree.nodes_[static_cast<std::size_t>(next)].start = start + matched;
      tree.nodes_[static_cast<std::size_t>(split)]
          .children[tree.text_[start + matched]] = next;
      const int leaf = tree.new_node(i + matched, n);
      tree.nodes_[static_cast<std::size_t>(split)]
          .children[tree.text_[i + matched]] = leaf;
      break;
    }
  }
  tree.finalize();
  return tree;
}

const std::map<Symbol, int>& SuffixTree::children(int v) const {
  return nodes_[static_cast<std::size_t>(v)].children;
}

int SuffixTree::parent(int v) const {
  return nodes_[static_cast<std::size_t>(v)].parent;
}

bool SuffixTree::is_leaf(int v) const {
  return nodes_[static_cast<std::size_t>(v)].children.empty();
}

std::size_t SuffixTree::edge_begin(int v) const {
  return nodes_[static_cast<std::size_t>(v)].start;
}

std::size_t SuffixTree::edge_end(int v) const {
  return nodes_[static_cast<std::size_t>(v)].end;
}

int SuffixTree::string_depth(int v) const {
  return nodes_[static_cast<std::size_t>(v)].depth;
}

std::size_t SuffixTree::suffix_start(int leaf) const {
  DBN_REQUIRE(is_leaf(leaf), "suffix_start is defined for leaves only");
  return text_.size() - static_cast<std::size_t>(string_depth(leaf));
}

bool SuffixTree::contains(SymbolView pattern) const {
  int v = 0;
  std::size_t i = 0;
  while (i < pattern.size()) {
    auto it = nodes_[static_cast<std::size_t>(v)].children.find(pattern[i]);
    if (it == nodes_[static_cast<std::size_t>(v)].children.end()) {
      return false;
    }
    const int next = it->second;
    const std::size_t start = nodes_[static_cast<std::size_t>(next)].start;
    const std::size_t end = nodes_[static_cast<std::size_t>(next)].end;
    for (std::size_t e = start; e < end && i < pattern.size(); ++e, ++i) {
      if (text_[e] != pattern[i]) {
        return false;
      }
    }
    v = next;
  }
  return true;
}

std::vector<std::size_t> SuffixTree::suffix_array() const {
  std::vector<std::size_t> order;
  order.reserve(text_.size());
  // Iterative DFS in symbol order; push children in reverse so the smallest
  // symbol is processed first.
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (is_leaf(v) && v != 0) {
      order.push_back(suffix_start(v));
      continue;
    }
    const auto& kids = nodes_[static_cast<std::size_t>(v)].children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(it->second);
    }
  }
  return order;
}

std::string SuffixTree::signature() const {
  // Pre-order serialization with edge-label contents; children are visited
  // in symbol order, so isomorphic trees produce identical strings.
  std::ostringstream os;
  std::vector<std::pair<int, bool>> stack = {{0, false}};
  while (!stack.empty()) {
    auto [v, closing] = stack.back();
    stack.pop_back();
    if (closing) {
      os << ")";
      continue;
    }
    os << "(";
    for (std::size_t e = edge_begin(v); e < edge_end(v); ++e) {
      os << text_[e] << ",";
    }
    stack.emplace_back(v, true);
    const auto& kids = nodes_[static_cast<std::size_t>(v)].children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(it->second, false);
    }
  }
  return os.str();
}

}  // namespace dbn::strings
