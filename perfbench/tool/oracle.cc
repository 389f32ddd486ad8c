#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>

namespace perfbench {

namespace {

using lotusx::twig::Axis;
using lotusx::twig::QueryNode;
using lotusx::twig::TwigQuery;
using lotusx::twig::ValuePredicate;

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsSpace(s.back())) s.remove_suffix(1);
  return s;
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool Unescape(std::string_view raw, std::string* out) {
  out->clear();
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      *out += raw[i];
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) return false;
    std::string_view name = raw.substr(i + 1, semi - i - 1);
    if (name == "amp") {
      *out += '&';
    } else if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "quot") {
      *out += '"';
    } else if (name == "apos") {
      *out += '\'';
    } else if (name.size() > 1 && name[0] == '#') {
      bool hex = name[1] == 'x';
      std::string digits(name.substr(hex ? 2 : 1));
      if (digits.empty()) return false;
      char* end = nullptr;
      unsigned long cp = std::strtoul(digits.c_str(), &end, hex ? 16 : 10);
      if (*end != '\0' || cp > 0x10FFFF) return false;
      AppendUtf8(static_cast<uint32_t>(cp), out);
    } else {
      return false;
    }
    i = semi;
  }
  return true;
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      current += static_cast<char>(std::tolower(u));
    } else if (!current.empty()) {
      out.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

int32_t OracleDoc::InternTag(std::string_view name) {
  auto it = tag_ids_.find(std::string(name));
  if (it != tag_ids_.end()) return it->second;
  int32_t id = static_cast<int32_t>(tags_.size());
  tags_.emplace_back(name);
  tag_ids_.emplace(std::string(name), id);
  by_tag_.emplace_back();
  return id;
}

int32_t OracleDoc::FindTag(std::string_view name) const {
  auto it = tag_ids_.find(std::string(name));
  return it == tag_ids_.end() ? -1 : it->second;
}

uint32_t OracleDoc::FindToken(std::string_view token) const {
  auto it = vocab_ids_.find(std::string(token));
  return it == vocab_ids_.end() ? UINT32_MAX : it->second;
}

bool OracleDoc::TagHasToken(int32_t tag, uint32_t token) const {
  uint64_t key = (static_cast<uint64_t>(tag) << 32) | token;
  return std::binary_search(tag_tokens_.begin(), tag_tokens_.end(), key);
}

bool OracleDoc::Parse(std::string_view xml, std::string* error) {
  nodes_.clear();
  values_.clear();
  std::vector<int32_t> open;       // stack of open element ids
  std::vector<int32_t> last_child;  // per node
  std::vector<int32_t> open_per_tag;
  std::string text;
  std::string decoded;
  bool have_root = false;

  auto append = [&](Node node, std::string value) {
    int32_t id = static_cast<int32_t>(nodes_.size());
    if (node.parent >= 0) {
      int32_t& last = last_child[static_cast<size_t>(node.parent)];
      if (last < 0) {
        nodes_[static_cast<size_t>(node.parent)].first_child = id;
      } else {
        nodes_[static_cast<size_t>(last)].next_sibling = id;
      }
      last = id;
    }
    node.subtree_end = id;
    nodes_.push_back(node);
    values_.push_back(std::move(value));
    last_child.push_back(-1);
    return id;
  };
  auto flush_text = [&]() -> bool {
    if (text.empty()) return true;
    if (!Unescape(text, &decoded)) {
      *error = "bad entity in text";
      return false;
    }
    text.clear();
    if (Trim(decoded).empty() || open.empty()) return true;
    Node node;
    node.kind = Kind::kText;
    node.parent = open.back();
    append(node, std::string(Trim(decoded)));
    return true;
  };

  size_t pos = 0;
  const size_t n = xml.size();
  while (pos < n) {
    if (xml[pos] != '<') {
      size_t next = xml.find('<', pos);
      if (next == std::string_view::npos) next = n;
      text.append(xml.substr(pos, next - pos));
      pos = next;
      continue;
    }
    if (xml.compare(pos, 4, "<!--") == 0) {
      size_t end = xml.find("-->", pos + 4);
      if (end == std::string_view::npos) {
        *error = "unterminated comment";
        return false;
      }
      pos = end + 3;
      continue;
    }
    if (xml.compare(pos, 2, "<?") == 0 || xml.compare(pos, 2, "<!") == 0) {
      size_t end = xml.find('>', pos);
      if (end == std::string_view::npos) {
        *error = "unterminated declaration";
        return false;
      }
      pos = end + 1;
      continue;
    }
    if (!flush_text()) return false;
    if (xml.compare(pos, 2, "</") == 0) {
      size_t end = xml.find('>', pos);
      if (end == std::string_view::npos || open.empty()) {
        *error = "bad end tag";
        return false;
      }
      std::string_view name = Trim(xml.substr(pos + 2, end - pos - 2));
      if (tags_[static_cast<size_t>(nodes_[static_cast<size_t>(open.back())].tag)] !=
          name) {
        *error = "mismatched end tag </" + std::string(name) + ">";
        return false;
      }
      --open_per_tag[static_cast<size_t>(nodes_[static_cast<size_t>(open.back())].tag)];
      open.pop_back();
      pos = end + 1;
      continue;
    }
    // Start tag.
    size_t p = pos + 1;
    size_t name_begin = p;
    while (p < n && IsNameChar(xml[p])) ++p;
    if (p == name_begin) {
      *error = "bad start tag";
      return false;
    }
    if (open.empty() && have_root) {
      *error = "second root element";
      return false;
    }
    have_root = true;
    Node element;
    element.kind = Kind::kElement;
    element.tag = InternTag(xml.substr(name_begin, p - name_begin));
    element.parent = open.empty() ? -1 : open.back();
    if (open_per_tag.size() < tags_.size()) open_per_tag.resize(tags_.size(), 0);
    if (open_per_tag[static_cast<size_t>(element.tag)] > 0) recursive_ = true;
    int32_t id = append(element, std::string());
    bool self_closing = false;
    while (true) {
      while (p < n && IsSpace(xml[p])) ++p;
      if (p >= n) {
        *error = "unterminated start tag";
        return false;
      }
      if (xml[p] == '>') {
        ++p;
        break;
      }
      if (xml[p] == '/' && p + 1 < n && xml[p + 1] == '>') {
        self_closing = true;
        p += 2;
        break;
      }
      size_t attr_begin = p;
      while (p < n && IsNameChar(xml[p])) ++p;
      if (p == attr_begin) {
        *error = "bad attribute";
        return false;
      }
      std::string attr_name = "@";
      attr_name.append(xml.substr(attr_begin, p - attr_begin));
      while (p < n && IsSpace(xml[p])) ++p;
      if (p >= n || xml[p] != '=') {
        *error = "attribute without value";
        return false;
      }
      ++p;
      while (p < n && IsSpace(xml[p])) ++p;
      if (p >= n || (xml[p] != '"' && xml[p] != '\'')) {
        *error = "unquoted attribute";
        return false;
      }
      char quote = xml[p++];
      size_t close = xml.find(quote, p);
      if (close == std::string_view::npos) {
        *error = "unterminated attribute";
        return false;
      }
      if (!Unescape(xml.substr(p, close - p), &decoded)) {
        *error = "bad entity in attribute";
        return false;
      }
      p = close + 1;
      Node attr;
      attr.kind = Kind::kAttribute;
      attr.tag = InternTag(attr_name);
      attr.parent = id;
      append(attr, std::string(Trim(decoded)));
    }
    if (open_per_tag.size() < tags_.size()) open_per_tag.resize(tags_.size(), 0);
    if (!self_closing) {
      open.push_back(id);
      ++open_per_tag[static_cast<size_t>(element.tag)];
    }
    pos = p;
  }
  if (!open.empty() || !have_root) {
    *error = "unterminated document";
    return false;
  }
  Finish();
  return true;
}

void OracleDoc::Finish() {
  const int32_t count = size();
  for (int32_t id = count - 1; id > 0; --id) {
    Node& node = nodes_[static_cast<size_t>(id)];
    Node& parent = nodes_[static_cast<size_t>(node.parent)];
    parent.subtree_end = std::max(parent.subtree_end, node.subtree_end);
  }
  // Element values: direct text children, trimmed, joined by one space.
  for (int32_t id = 0; id < count; ++id) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.kind != Kind::kText) continue;
    std::string& owner = values_[static_cast<size_t>(node.parent)];
    if (!owner.empty()) owner += ' ';
    owner += values_[static_cast<size_t>(id)];
  }
  token_begin_.assign(static_cast<size_t>(count) + 1, 0);
  for (int32_t id = 0; id < count; ++id) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    token_begin_[static_cast<size_t>(id)] = token_ids_.size();
    if (node.kind == Kind::kText) continue;
    by_tag_[static_cast<size_t>(node.tag)].push_back(id);
    for (std::string& token : Tokenize(values_[static_cast<size_t>(id)])) {
      auto [it, inserted] =
          vocab_ids_.emplace(token, static_cast<uint32_t>(vocab_.size()));
      if (inserted) vocab_.push_back(token);
      token_ids_.push_back(it->second);
      tag_tokens_.push_back((static_cast<uint64_t>(node.tag) << 32) | it->second);
    }
  }
  token_begin_[static_cast<size_t>(count)] = token_ids_.size();
  std::sort(tag_tokens_.begin(), tag_tokens_.end());
  tag_tokens_.erase(std::unique(tag_tokens_.begin(), tag_tokens_.end()),
                    tag_tokens_.end());
}

namespace {

class Matcher {
 public:
  Matcher(const OracleDoc& doc, const TwigQuery& query, uint64_t cap,
          bool collect)
      : doc_(doc), query_(query), cap_(cap), collect_(collect) {
    const size_t size = static_cast<size_t>(query.size());
    tags_.resize(size);
    needed_tokens_.resize(size);
    impossible_.assign(size, false);
    bindings_.assign(size, -1);
    for (size_t q = 0; q < size; ++q) {
      const QueryNode& node = query.node(static_cast<int>(q));
      tags_[q] = node.tag == "*" ? -2 : doc.FindTag(node.tag);
      if (tags_[q] == -1) impossible_[q] = true;
      if (node.predicate.op == ValuePredicate::Op::kContains) {
        std::vector<std::string> tokens = Tokenize(node.predicate.text);
        if (tokens.empty()) impossible_[q] = true;
        for (const std::string& token : tokens) {
          uint32_t id = doc.FindToken(token);
          if (id == UINT32_MAX) impossible_[q] = true;
          needed_tokens_[q].push_back(id);
        }
      }
    }
  }

  OracleResult Run() {
    OracleResult result;
    result.bound.resize(static_cast<size_t>(query_.size()));
    for (bool impossible : impossible_) {
      if (impossible) return result;
    }
    bound_ = &result.bound;
    Assign(0);
    result.count = count_;
    result.capped = capped_;
    for (std::vector<int32_t>& nodes : result.bound) {
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    }
    return result;
  }

  // Step-by-step propagation for a path-shaped query: the nodes that
  // bind step q given the set bound to step q - 1.
  std::vector<int32_t> PathLeaf() const {
    std::vector<int32_t> current;
    for (bool impossible : impossible_) {
      if (impossible) return current;
    }
    std::vector<char> marked;
    for (int q = 0; q < query_.size(); ++q) {
      std::vector<int32_t> next;
      auto consider = [&](int32_t id) {
        if (!Satisfies(q, id)) return;
        if (q == 0) {
          if (query_.root_axis() == Axis::kDescendant || id == 0) next.push_back(id);
          return;
        }
        if (query_.node(q).incoming_axis == Axis::kChild) {
          int32_t parent = doc_.node(id).parent;
          if (parent >= 0 && marked[static_cast<size_t>(parent)]) next.push_back(id);
          return;
        }
        for (int32_t a = doc_.node(id).parent; a >= 0; a = doc_.node(a).parent) {
          if (marked[static_cast<size_t>(a)]) {
            next.push_back(id);
            return;
          }
        }
      };
      int32_t tag = tags_[static_cast<size_t>(q)];
      if (tag == -2) {
        for (int32_t id = 0; id < doc_.size(); ++id) consider(id);
      } else {
        for (int32_t id : doc_.nodes_with_tag(tag)) consider(id);
      }
      if (q > 0) {
        for (int32_t id : current) marked[static_cast<size_t>(id)] = 0;
      } else {
        marked.assign(static_cast<size_t>(doc_.size()), 0);
      }
      current = std::move(next);
      for (int32_t id : current) marked[static_cast<size_t>(id)] = 1;
    }
    return current;
  }

 private:
  bool Satisfies(int q, int32_t id) const {
    const OracleDoc::Node& node = doc_.node(id);
    if (node.kind == OracleDoc::Kind::kText) return false;
    int32_t tag = tags_[static_cast<size_t>(q)];
    if (tag == -2) {
      if (node.kind != OracleDoc::Kind::kElement) return false;
    } else if (node.tag != tag) {
      return false;
    }
    const ValuePredicate& predicate = query_.node(q).predicate;
    switch (predicate.op) {
      case ValuePredicate::Op::kNone:
        return true;
      case ValuePredicate::Op::kEquals:
        return doc_.value(id) == Trim(predicate.text);
      case ValuePredicate::Op::kContains: {
        auto [begin, end] = doc_.tokens(id);
        for (uint32_t want : needed_tokens_[static_cast<size_t>(q)]) {
          if (std::find(begin, end, want) == end) return false;
        }
        return true;
      }
    }
    return false;
  }

  bool OrderOk(int q, int32_t id) const {
    const QueryNode& node = query_.node(q);
    if (node.parent < 0 || !query_.node(node.parent).ordered) return true;
    const std::vector<int>& siblings = query_.node(node.parent).children;
    auto it = std::find(siblings.begin(), siblings.end(), q);
    if (it == siblings.begin()) return true;
    int32_t previous = bindings_[static_cast<size_t>(*(it - 1))];
    return doc_.node(previous).subtree_end < id;
  }

  void Try(int q, int32_t id) {
    if (capped_ || !Satisfies(q, id) || !OrderOk(q, id)) return;
    bindings_[static_cast<size_t>(q)] = id;
    if (q + 1 == query_.size()) {
      ++count_;
      if (collect_) {
        for (size_t i = 0; i < bindings_.size(); ++i) {
          (*bound_)[i].push_back(bindings_[i]);
        }
      }
      if (count_ >= cap_) capped_ = true;
    } else {
      Assign(q + 1);
    }
  }

  void Range(int q, int32_t first, int32_t last) {
    int32_t tag = tags_[static_cast<size_t>(q)];
    if (tag == -2) {
      for (int32_t id = first; id <= last && !capped_; ++id) Try(q, id);
      return;
    }
    const std::vector<int32_t>& list = doc_.nodes_with_tag(tag);
    auto it = std::lower_bound(list.begin(), list.end(), first);
    for (; it != list.end() && *it <= last && !capped_; ++it) Try(q, *it);
  }

  void Assign(int q) {
    const QueryNode& node = query_.node(q);
    if (node.parent < 0) {
      if (query_.root_axis() == Axis::kChild) {
        Try(q, 0);
      } else {
        Range(q, 0, doc_.size() - 1);
      }
      return;
    }
    int32_t parent = bindings_[static_cast<size_t>(node.parent)];
    if (node.incoming_axis == Axis::kChild) {
      for (int32_t c = doc_.node(parent).first_child; c >= 0 && !capped_;
           c = doc_.node(c).next_sibling) {
        Try(q, c);
      }
    } else {
      Range(q, parent + 1, doc_.node(parent).subtree_end);
    }
  }

  const OracleDoc& doc_;
  const TwigQuery& query_;
  const uint64_t cap_;
  const bool collect_;
  std::vector<std::vector<int32_t>>* bound_ = nullptr;
  std::vector<int32_t> tags_;  // -2 = wildcard, -1 = absent tag
  std::vector<std::vector<uint32_t>> needed_tokens_;
  std::vector<bool> impossible_;
  std::vector<int32_t> bindings_;
  uint64_t count_ = 0;
  bool capped_ = false;
};

}  // namespace

OracleResult Evaluate(const OracleDoc& doc, const TwigQuery& query,
                      uint64_t cap, bool collect) {
  return Matcher(doc, query, cap, collect).Run();
}

std::vector<int32_t> PathLeafNodes(const OracleDoc& doc,
                                   const TwigQuery& query) {
  return Matcher(doc, query, 0, false).PathLeaf();
}

std::vector<uint64_t> ExtensionCounts(const OracleDoc& doc,
                                      const std::vector<int32_t>* leaf_nodes,
                                      Axis axis) {
  std::vector<uint64_t> counts(static_cast<size_t>(doc.num_tags()), 0);
  auto count = [&](int32_t id) {
    const OracleDoc::Node& node = doc.node(id);
    if (node.kind != OracleDoc::Kind::kText) ++counts[static_cast<size_t>(node.tag)];
  };
  if (leaf_nodes == nullptr) {
    for (int32_t id = 0; id < doc.size(); ++id) count(id);
    return counts;
  }
  if (axis == Axis::kChild) {
    for (int32_t b : *leaf_nodes) {
      for (int32_t c = doc.node(b).first_child; c >= 0; c = doc.node(c).next_sibling) {
        count(c);
      }
    }
    return counts;
  }
  // Union of the proper subtrees; `leaf_nodes` is ascending, so nested
  // subtrees are skipped by tracking the furthest id already counted.
  int32_t done = -1;
  for (int32_t b : *leaf_nodes) {
    int32_t last = doc.node(b).subtree_end;
    for (int32_t id = std::max(b + 1, done + 1); id <= last; ++id) count(id);
    done = std::max(done, last);
  }
  return counts;
}

}  // namespace perfbench
