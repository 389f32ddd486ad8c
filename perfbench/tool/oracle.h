#ifndef PERFBENCH_TOOL_ORACLE_H_
#define PERFBENCH_TOOL_ORACLE_H_

// The benchmark's correctness oracle. It reads XML with its own small
// reader and matches twig queries by walking that DOM, so no index,
// planner or join of the program under test is involved. Query text is
// the only thing it takes from the program: queries arrive as
// lotusx::twig::TwigQuery values built by the program's parser or canvas.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "twig/twig_query.h"

namespace perfbench {

// Lower-cased alphanumeric runs of `text`; every other byte separates.
std::vector<std::string> Tokenize(std::string_view text);

class OracleDoc {
 public:
  enum class Kind : uint8_t { kElement, kAttribute, kText };
  struct Node {
    Kind kind = Kind::kElement;
    int32_t tag = -1;  // element name, or "@name" for attributes
    int32_t parent = -1;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    int32_t subtree_end = -1;  // largest id inside the subtree
  };

  // Parses `xml` (elements, attributes, text, the five predefined entities
  // and numeric character references; comments, declarations and
  // processing instructions are skipped). Node ids are preorder ranks:
  // an element, then its attributes, then its element and text children.
  // Whitespace-only text is dropped. Returns false with `error` set on
  // malformed input.
  bool Parse(std::string_view xml, std::string* error);

  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }
  const Node& node(int32_t id) const { return nodes_[static_cast<size_t>(id)]; }
  const std::string& tag_name(int32_t tag) const {
    return tags_[static_cast<size_t>(tag)];
  }
  int32_t num_tags() const { return static_cast<int32_t>(tags_.size()); }
  // -1 when the document has no such element or attribute name.
  int32_t FindTag(std::string_view name) const;
  // Element and attribute ids carrying `tag`, ascending.
  const std::vector<int32_t>& nodes_with_tag(int32_t tag) const {
    return by_tag_[static_cast<size_t>(tag)];
  }
  // The predicate value of an element (its trimmed direct text children
  // joined by one space) or attribute (its trimmed value).
  const std::string& value(int32_t id) const {
    return values_[static_cast<size_t>(id)];
  }
  // Interned token ids of value(id), in order of appearance.
  std::pair<const uint32_t*, const uint32_t*> tokens(int32_t id) const {
    return {token_ids_.data() + token_begin_[static_cast<size_t>(id)],
            token_ids_.data() + token_begin_[static_cast<size_t>(id) + 1]};
  }
  // UINT32_MAX when no value in the document contains `token`.
  uint32_t FindToken(std::string_view token) const;
  const std::string& token_text(uint32_t id) const { return vocab_[id]; }
  // True when some element or attribute with `tag` has `token` in its
  // value.
  bool TagHasToken(int32_t tag, uint32_t token) const;
  // True when some element has an ancestor with its own tag.
  bool recursive() const { return recursive_; }

 private:
  int32_t InternTag(std::string_view name);
  void Finish();

  std::vector<Node> nodes_;
  std::vector<std::string> values_;
  std::vector<std::string> tags_;
  std::unordered_map<std::string, int32_t> tag_ids_;
  std::vector<std::vector<int32_t>> by_tag_;
  std::vector<std::string> vocab_;
  std::unordered_map<std::string, uint32_t> vocab_ids_;
  std::vector<uint32_t> token_ids_;
  std::vector<size_t> token_begin_;
  // Sorted (tag << 32 | token) pairs.
  std::vector<uint64_t> tag_tokens_;
  bool recursive_ = false;
};

// What the oracle knows about one query over the document.
struct OracleResult {
  // Number of embeddings: distinct assignments of document nodes to all
  // query nodes that satisfy tags, predicates, axes and order.
  uint64_t count = 0;
  // The enumeration stopped at the cap; `count` and `bound` are partial.
  bool capped = false;
  // Per query node: ascending distinct document nodes that bind it in
  // some embedding (left empty when not collected).
  std::vector<std::vector<int32_t>> bound;
};

OracleResult Evaluate(const OracleDoc& doc, const lotusx::twig::TwigQuery& query,
                      uint64_t cap, bool collect = true);

// The nodes binding the last step of a path-shaped query, found by
// propagating step by step (no enumeration, so recursive '//' paths stay
// cheap).
std::vector<int32_t> PathLeafNodes(const OracleDoc& doc,
                                   const lotusx::twig::TwigQuery& query);

// Distinct document nodes (elements or attributes) per tag that extend a
// path-shaped query's leaf with `axis`. `leaf_nodes` are the nodes that
// bind the leaf; with `leaf_nodes == nullptr` the extension is a new
// query root under "//", i.e. every element and attribute counts.
std::vector<uint64_t> ExtensionCounts(const OracleDoc& doc,
                                      const std::vector<int32_t>* leaf_nodes,
                                      lotusx::twig::Axis axis);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_ORACLE_H_
