#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "checker.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "xml/writer.h"

namespace perfbench {

namespace {

using lotusx::twig::Axis;
using lotusx::twig::TwigQuery;
using lotusx::twig::ValuePredicate;

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::vector<int32_t> ChildrenWithTag(const OracleDoc& doc, int32_t id,
                                     int32_t tag) {
  std::vector<int32_t> out;
  for (int32_t c = doc.node(id).first_child; c >= 0; c = doc.node(c).next_sibling) {
    if (doc.node(c).tag == tag && doc.node(c).kind == OracleDoc::Kind::kElement) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<int32_t> ElementChildren(const OracleDoc& doc, int32_t id) {
  std::vector<int32_t> out;
  for (int32_t c = doc.node(id).first_child; c >= 0; c = doc.node(c).next_sibling) {
    if (doc.node(c).kind == OracleDoc::Kind::kElement) out.push_back(c);
  }
  return out;
}

// A random token of the value of `id`'s first child with `tag`, or "".
std::string TokenOf(const OracleDoc& doc, int32_t id, std::string_view tag,
                    lotusx::Random* rng) {
  int32_t tag_id = doc.FindTag(tag);
  if (tag_id < 0) return "";
  std::vector<int32_t> children = ChildrenWithTag(doc, id, tag_id);
  if (children.empty()) return "";
  int32_t child = children[rng->NextBounded(children.size())];
  auto [begin, end] = doc.tokens(child);
  if (begin == end) return "";
  return doc.token_text(begin[rng->NextBounded(static_cast<uint64_t>(end - begin))]);
}

std::string ValueOf(const OracleDoc& doc, int32_t id, std::string_view tag) {
  int32_t tag_id = doc.FindTag(tag);
  if (tag_id < 0) return "";
  std::vector<int32_t> children = ChildrenWithTag(doc, id, tag_id);
  return children.empty() ? "" : doc.value(children.front());
}

// A target twig from a real subtree: a root with element children, one
// child (and possibly a grandchild below it), possibly a second child,
// and usually a keyword of the deepest drawn node that has text. In a
// recursive corpus a step sometimes skips a level and is drawn with '//'.
TypingTarget DrawTarget(const OracleDoc& doc, const std::vector<int32_t>& roots,
                        lotusx::Random* rng) {
  const bool deep = doc.recursive();
  auto pick_below = [&](int32_t parent, Axis* axis) -> int32_t {
    std::vector<int32_t> children = ElementChildren(doc, parent);
    if (children.empty()) return -1;
    *axis = Axis::kChild;
    int32_t child = children[rng->NextBounded(children.size())];
    if (deep && rng->NextBounded(10) < 3) {
      std::vector<int32_t> grand = ElementChildren(doc, child);
      if (!grand.empty()) {
        *axis = Axis::kDescendant;
        return grand[rng->NextBounded(grand.size())];
      }
    }
    return child;
  };
  int32_t root = roots[rng->NextBounded(roots.size())];
  TypingTarget target;
  std::vector<int32_t> doc_nodes = {root};
  target.nodes.push_back({doc.tag_name(doc.node(root).tag), -1, Axis::kDescendant, ""});
  auto add = [&](int parent, int32_t id, Axis axis) {
    target.nodes.push_back({doc.tag_name(doc.node(id).tag), parent, axis, ""});
    doc_nodes.push_back(id);
  };
  Axis axis = Axis::kChild;
  int32_t a = pick_below(root, &axis);
  add(0, a, axis);
  if (rng->NextBounded(10) < 6) {
    int32_t b = pick_below(a, &axis);
    if (b >= 0) add(1, b, axis);
  }
  if (rng->NextBounded(10) < 6) {
    int32_t c = pick_below(root, &axis);
    if (c != a) add(0, c, axis);
  }
  if (rng->NextBounded(10) < 8) {
    for (size_t i = doc_nodes.size(); i-- > 1;) {
      auto [begin, end] = doc.tokens(doc_nodes[i]);
      if (begin == end) continue;
      target.nodes[i].token =
          doc.token_text(begin[rng->NextBounded(static_cast<uint64_t>(end - begin))]);
      break;
    }
  }
  target.text = BuildTargetQuery(target, true).ToString();
  return target;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"dblp-search", false, 600000, Mix::kSearch, 5000, 0},
      {"treebank-typing", true, 300000, Mix::kTyping, 7000, 20000},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

bool WriteCorpus(const WorkloadSpec& spec, const std::string& path,
                 std::string* error) {
  lotusx::xml::Document document =
      spec.treebank ? lotusx::datagen::GenerateTreebankWithApproxNodes(
                          kCorpusSeed, spec.approx_nodes)
                    : lotusx::datagen::GenerateDblpWithApproxNodes(
                          kCorpusSeed, spec.approx_nodes);
  std::string text = lotusx::xml::WriteXml(document);
  std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.flush()) {
      *error = "cannot write " + temp;
      return false;
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    *error = "cannot rename " + temp;
    return false;
  }
  return true;
}

bool PlanSearch(const OracleDoc& doc, uint64_t seed, int actions,
                SearchPlan* plan, std::string* error) {
  lotusx::Random rng(seed * 0x100000001B3ULL + 11);
  // Query templates. Each has its own pool of literals drawn from real
  // publications; the seed decides the literals and their Zipf ranks,
  // while the fixed action pattern below fixes how often each template
  // runs, so runs with different seeds do the same kinds of work.
  struct Template {
    const char* id;
    const char* type;  // publication the literals come from
  };
  const std::vector<Template> templates = {
      {"S1", "article"},       {"S2", "inproceedings"},
      {"S3", "article"},       {"S4", "inproceedings"},
      {"S5", "inproceedings"}, {"S6", "article"},
      {"S7", "book"},          {"O1", "article"},
      {"O2", "inproceedings"}, {"E1", "article"},
      {"E2", "inproceedings"}, {"E3", "article"},
  };
  // Unselective scans carry no literal; they run in a fixed rotation.
  const std::vector<std::string> scans = {
      "//dblp//author", "//dblp//title", "//article/author",
      "//inproceedings//year", "//book/title", "//dblp/*/year"};
  // Selective and ordered literals recur with Zipf skew (s = 0.5 over 60
  // literals: the most popular literal takes 7% of its template's runs).
  // The same literal can cost a few or tens of milliseconds, so a mild
  // skew over a large pool keeps the latency mix from hinging on the one
  // literal the seed made most popular. Empty twigs cost anything from a
  // few to hundreds of milliseconds in the rewriter, so they are drawn
  // uniformly.
  constexpr size_t kPoolSize = 60;
  constexpr double kZipfSkew = 0.5;

  std::set<std::string> seen;
  auto add = [&](std::string text, std::string type_line) -> int64_t {
    if (!seen.insert(text).second) return -1;
    plan->queries.push_back({std::move(text), std::move(type_line)});
    return static_cast<int64_t>(plan->queries.size() - 1);
  };
  // The second TYPE keystroke after RUN: one or two letters of a tag the
  // publication has as a child, for a new root under '//'.
  auto type_line = [&](int32_t pub) {
    std::vector<int32_t> children = ElementChildren(doc, pub);
    std::string tag = doc.tag_name(doc.node(children[rng.NextBounded(children.size())]).tag);
    return "TYPE 0 // " + tag.substr(0, 1 + rng.NextBounded(2));
  };
  std::map<std::string, std::vector<uint32_t>> pools;
  for (size_t i = 0; i < scans.size(); ++i) {
    pools[std::string("U") + std::to_string(i)].push_back(static_cast<uint32_t>(
        add(scans[i], "TYPE 0 // " + std::string(i % 2 ? "a" : "t"))));
  }
  for (const Template& t : templates) {
    int32_t tag = doc.FindTag(t.type);
    if (tag < 0) {
      *error = std::string("corpus has no ") + t.type;
      return false;
    }
    const std::vector<int32_t>& pubs = doc.nodes_with_tag(tag);
    std::vector<uint32_t>& pool = pools[t.id];
    const std::string type = t.type;
    const std::string id = t.id;
    const size_t wanted = kPoolSize;
    for (size_t attempt = 0; attempt < 100 * wanted && pool.size() < wanted; ++attempt) {
      int32_t pub = pubs[rng.NextBounded(pubs.size())];
      std::string author = TokenOf(doc, pub, "author", &rng);
      std::string word = TokenOf(doc, pub, "title", &rng);
      std::string year = ValueOf(doc, pub, "year");
      if (author.empty() || word.empty() || year.empty()) continue;
      std::string text;
      if (id == "S1") {
        text = "//article[author[~" + Quote(author) + "]]/title";
      } else if (id == "S2") {
        text = "//inproceedings[author[~" + Quote(author) + "]][year[=" + Quote(year) +
               "]]/title";
      } else if (id == "S3") {
        std::string second = TokenOf(doc, pub, "title", &rng);
        text = "//article[title[~" + Quote(word + " " + second) + "]]/author";
      } else if (id == "S4") {
        text = "//inproceedings[year[=" + Quote(year) + "]][title[~" + Quote(word) +
               "]]/@key";
      } else if (id == "S5") {
        std::string venue = ValueOf(doc, pub, "booktitle");
        if (venue.empty()) continue;
        text = "//inproceedings[booktitle[=" + Quote(venue) + "]][year[=" + Quote(year) +
               "]]/title";
      } else if (id == "S6") {
        std::string journal = ValueOf(doc, pub, "journal");
        if (journal.empty()) continue;
        text = "//article[journal[=" + Quote(journal) + "]][author[~" + Quote(author) +
               "]]/year";
      } else if (id == "S7") {
        text = "//dblp/book[author[~" + Quote(author) + "]][title[~" + Quote(word) +
               "]]/year";
      } else if (id == "O1") {
        std::vector<int32_t> authors = ChildrenWithTag(doc, pub, doc.FindTag("author"));
        if (authors.size() < 2) continue;
        auto [b1, e1] = doc.tokens(authors[0]);
        auto [b2, e2] = doc.tokens(authors[1]);
        if (b1 == e1 || b2 == e2) continue;
        text = "//article[ordered][author[~" + Quote(doc.token_text(*b1)) + "]][author[~" +
               Quote(doc.token_text(*b2)) + "]]/title";
      } else if (id == "O2") {
        text = "//inproceedings[ordered][author[~" + Quote(author) + "]][title[~" +
               Quote(word) + "]]/year";
      } else if (id == "E1") {  // misspelled publication tag
        text = "//" + type.substr(0, type.size() - 1) + "[author[~" + Quote(author) +
               "]]/title";
      } else if (id == "E2") {  // a year the corpus does not have
        text = "//inproceedings[year[=" + Quote(std::to_string(1800 + rng.NextBounded(100))) +
               "]]/title";
      } else {  // E3: misspelled leaf tag
        text = "//article[author[~" + Quote(author) + "]]/titel";
      }
      int64_t query = add(text, type_line(pub));
      if (query >= 0) pool.push_back(static_cast<uint32_t>(query));
    }
    if (pool.size() < wanted) {
      *error = "corpus too small for the dblp-search template " + id;
      return false;
    }
  }

  // 24 actions: 15 selective, 3 unselective, 3 ordered and 3 empty twigs
  // (the empty ones go through the rewriter).
  const std::vector<std::string> kPattern = {
      "S1", "S2", "U0", "S3", "O1", "S4", "S5", "E1", "S6", "S7", "S1", "U1",
      "S2", "O2", "S3", "E2", "S4", "U2", "S5", "O1", "S6", "E3", "S7", "S1"};
  size_t scan_turn = 0;
  for (int i = 0; i < actions; ++i) {
    std::string id = kPattern[static_cast<size_t>(i) % kPattern.size()];
    if (id[0] == 'U') id = std::string("U") + std::to_string(scan_turn++ % scans.size());
    const std::vector<uint32_t>& pool = pools.at(id);
    const size_t pick = id[0] == 'E' ? rng.NextBounded(pool.size())
                                     : rng.NextZipf(pool.size(), kZipfSkew);
    plan->actions.push_back({pool[pick], i % 8 == 7});
  }
  return true;
}

TwigQuery BuildTargetQuery(const TypingTarget& target, bool with_predicates) {
  TwigQuery query;
  std::vector<int> ids;
  for (const TargetNode& node : target.nodes) {
    int id = node.parent < 0
                 ? query.AddRoot(node.tag)
                 : query.AddChild(ids[static_cast<size_t>(node.parent)],
                                  node.axis, node.tag);
    ids.push_back(id);
    if (with_predicates && !node.token.empty()) {
      query.SetPredicate(id, {ValuePredicate::Op::kContains, node.token});
    }
  }
  return query;
}

bool PlanTyping(OracleCache* cache, uint64_t seed, int count, uint64_t cap,
                std::vector<TypingTarget>* targets, std::string* error) {
  const OracleDoc& doc = cache->doc();
  std::vector<int32_t> roots;
  for (int32_t id = 1; id < doc.size(); ++id) {
    if (doc.node(id).kind == OracleDoc::Kind::kElement &&
        !ElementChildren(doc, id).empty()) {
      roots.push_back(id);
    }
  }
  if (roots.empty()) {
    *error = "corpus has no element with element children";
    return false;
  }
  // Four lanes split the target space by a hash of the query text, so no
  // two lanes draw the same target and each lane's draws are independent
  // of the others' (and of thread timing). The lanes are then interleaved
  // in a fixed order.
  constexpr size_t kLanes = 4;
  const size_t wanted = static_cast<size_t>(count);
  const size_t per_lane = (wanted + kLanes - 1) / kLanes;
  std::vector<std::vector<TypingTarget>> lanes(kLanes);
  std::vector<std::thread> threads;
  for (size_t l = 0; l < kLanes; ++l) {
    threads.emplace_back([&, l] {
      std::vector<TypingTarget>& mine = lanes[l];
      lotusx::Random rng(seed * 0x100000001B3ULL + 23 + static_cast<uint64_t>(l) * 7919);
      std::set<std::string> seen;
      for (size_t attempt = 0; attempt < 200 * per_lane && mine.size() < per_lane;
           ++attempt) {
        TypingTarget target = DrawTarget(doc, roots, &rng);
        if (std::hash<std::string>()(target.text) % kLanes != l ||
            !seen.insert(target.text).second) {
          continue;
        }
        std::shared_ptr<const OracleResult> answers =
            cache->Get(BuildTargetQuery(target, true), cap);
        if (answers->capped || answers->count == 0) continue;
        // The canvas before the predicate is typed; TYPEVAL checks use it.
        if (cache->Get(BuildTargetQuery(target, false), cap)->capped) continue;
        mine.push_back(std::move(target));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t l = 0; l < kLanes; ++l) {
    if (lanes[l].size() < per_lane) {
      *error = "could not draw " + std::to_string(wanted) + " distinct typing targets";
      return false;
    }
  }
  targets->clear();
  for (size_t i = 0; i < per_lane && targets->size() < wanted; ++i) {
    for (size_t l = 0; l < kLanes && targets->size() < wanted; ++l) {
      targets->push_back(std::move(lanes[l][i]));
    }
  }
  return true;
}

}  // namespace perfbench
