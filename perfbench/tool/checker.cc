#include "checker.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>

#include "twig/query_parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lotusx::twig::Axis;
using lotusx::twig::TwigQuery;
using lotusx::twig::ValuePredicate;

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool HasPredicates(const TwigQuery& query) {
  for (int q = 0; q < query.size(); ++q) {
    if (query.node(q).predicate.active()) return true;
  }
  return false;
}

}  // namespace

std::shared_ptr<const OracleResult> OracleCache::Get(const TwigQuery& query) {
  return Get(query, kOracleCap);
}

std::shared_ptr<const OracleResult> OracleCache::Get(const TwigQuery& query,
                                                     uint64_t cap) {
  std::string key = query.ToString();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(key);
    if (it != results_.end()) return it->second;
  }
  auto result = std::make_shared<const OracleResult>(Evaluate(doc_, query, cap));
  std::lock_guard<std::mutex> lock(mu_);
  return results_.emplace(key, result).first->second;
}

bool ParseCandidates(const std::string& payload, std::vector<Candidate>* out) {
  out->clear();
  if (payload == "(no candidates)") return true;
  std::vector<std::string> lines = Lines(payload);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::string rank = std::to_string(i + 1) + ". ";
    if (!StartsWith(line, rank) || line.size() < rank.size() + 4 ||
        line.back() != ')') {
      return false;
    }
    size_t open = line.rfind(" (");
    if (open == std::string::npos || open < rank.size()) return false;
    Candidate candidate;
    candidate.text = line.substr(rank.size(), open - rank.size());
    candidate.count = std::strtoull(line.c_str() + open + 2, nullptr, 10);
    out->push_back(std::move(candidate));
  }
  return !out->empty();
}

std::string Checker::CheckRun(const TwigQuery& canvas, const std::string& payload) {
  ++quality_.checks;
  std::vector<std::string> lines = Lines(payload);
  if (lines.size() < 3 || !StartsWith(lines[0], "query: ")) {
    return "RUN: malformed response";
  }
  std::shared_ptr<const OracleResult> original = cache_->Get(canvas);
  if (original->capped) return "RUN: oracle cap exceeded for " + canvas.ToString();
  size_t next = 1;
  TwigQuery executed = canvas;
  std::string shown = lines[0].substr(7);
  if (StartsWith(lines[1], "rewritten (")) {
    if (original->count != 0) {
      return "RUN: rewrote " + canvas.ToString() + ", which has " +
             std::to_string(original->count) + " matches";
    }
    auto parsed = lotusx::twig::ParseQuery(shown);
    if (!parsed.ok()) return "RUN: unparsable rewritten query " + shown;
    executed = *std::move(parsed);
    next = 2;
  } else if (shown != canvas.ToString()) {
    return "RUN: ran " + shown + " instead of " + canvas.ToString();
  }
  std::shared_ptr<const OracleResult> answer =
      next == 1 ? original : cache_->Get(executed);
  if (answer->capped) return "RUN: oracle cap exceeded for " + shown;
  const std::string& stats = lines[next];
  size_t at = stats.find(", matches: ");
  if (!StartsWith(stats, "algorithm: ") || at == std::string::npos) {
    return "RUN: malformed statistics line";
  }
  uint64_t matches = std::strtoull(stats.c_str() + at + 11, nullptr, 10);
  if (matches != answer->count) {
    return "RUN: " + shown + " reported " + std::to_string(matches) +
           " matches, oracle counts " + std::to_string(answer->count);
  }
  const std::vector<int32_t>& outputs =
      answer->bound[static_cast<size_t>(executed.output())];
  size_t listed = 0;
  double previous = 0;
  for (size_t i = next + 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line == "(no results)") {
      if (matches != 0 || i + 1 != lines.size()) return "RUN: stray (no results)";
      continue;
    }
    std::string rank = std::to_string(listed + 1) + ". score=";
    size_t node_at = line.find(" node#");
    if (!StartsWith(line, rank) || node_at == std::string::npos) {
      return "RUN: malformed result line '" + line + "'";
    }
    double score = std::strtod(line.c_str() + rank.size(), nullptr);
    int32_t node = static_cast<int32_t>(std::strtol(line.c_str() + node_at + 6, nullptr, 10));
    if (listed > 0 && score > previous) return "RUN: scores increase down the list";
    previous = score;
    if (!std::binary_search(outputs.begin(), outputs.end(), node)) {
      return "RUN: node#" + std::to_string(node) + " does not bind the output of " + shown;
    }
    ++listed;
  }
  uint64_t most = std::min<uint64_t>(10, matches);
  uint64_t least = std::min<uint64_t>(10, outputs.size());
  if (listed > most || listed < least) {
    return "RUN: listed " + std::to_string(listed) + " answers for " +
           std::to_string(matches) + " matches and " +
           std::to_string(outputs.size()) + " distinct answers";
  }
  if (matches == 0 && lines.back() != "(no results)") return "RUN: missing (no results)";
  return "";
}

std::string Checker::CheckExplain(const TwigQuery& canvas, const std::string& payload) {
  ++quality_.checks;
  std::vector<std::string> lines = Lines(payload);
  if (lines.empty() || lines[0] != "query: " + canvas.ToString()) {
    return "EXPLAIN: explains another query than " + canvas.ToString();
  }
  std::shared_ptr<const OracleResult> answer = cache_->Get(canvas);
  if (answer->capped) return "EXPLAIN: oracle cap exceeded";
  for (const std::string& line : lines) {
    size_t at = line.find("actual matches: ");
    if (at == std::string::npos) continue;
    uint64_t matches = std::strtoull(line.c_str() + at + 16, nullptr, 10);
    if (matches != answer->count) {
      return "EXPLAIN: " + canvas.ToString() + " reported " +
             std::to_string(matches) + " actual matches, oracle counts " +
             std::to_string(answer->count);
    }
    return "";
  }
  return "EXPLAIN: no actual matches line";
}

std::string Checker::CheckType(const TwigQuery* canvas, int anchor, Axis axis,
                               const std::string& prefix,
                               const std::string& payload) {
  ++quality_.checks;
  std::vector<Candidate> candidates;
  if (!ParseCandidates(payload, &candidates)) return "TYPE: malformed response";
  for (const Candidate& candidate : candidates) {
    if (!StartsWith(candidate.text, prefix)) {
      return "TYPE: candidate " + candidate.text + " lacks prefix " + prefix;
    }
  }
  // The oracle's view is exact for a new query root under '//' and for
  // extending the leaf of a path-shaped canvas without predicates.
  const OracleDoc& doc = cache_->doc();
  std::string key;
  const std::vector<uint64_t>* counts = nullptr;
  if (anchor == -1) {
    if (axis != Axis::kDescendant) return "";
    key = "//";
  } else {
    if (canvas == nullptr || !canvas->IsPath() || HasPredicates(*canvas) ||
        anchor != canvas->size() - 1) {
      return "";
    }
    key = canvas->ToString() + (axis == Axis::kChild ? " /" : " //");
  }
  auto it = extension_cache_.find(key);
  if (it == extension_cache_.end()) {
    std::vector<int32_t> leaf;
    if (anchor != -1) leaf = PathLeafNodes(doc, *canvas);
    it = extension_cache_
             .emplace(key, ExtensionCounts(doc, anchor == -1 ? nullptr : &leaf, axis))
             .first;
  }
  counts = &it->second;
  std::vector<Candidate> expected;
  for (int32_t tag = 0; tag < doc.num_tags(); ++tag) {
    uint64_t count = (*counts)[static_cast<size_t>(tag)];
    if (count > 0 && StartsWith(doc.tag_name(tag), prefix)) {
      expected.push_back({doc.tag_name(tag), count});
    }
  }
  std::sort(expected.begin(), expected.end(), [](const Candidate& a, const Candidate& b) {
    return a.count != b.count ? a.count > b.count : a.text < b.text;
  });
  // Overlapping '//' positions of a recursive corpus may be counted more
  // than once by the program; everywhere else counts are exact.
  const bool exact = anchor == -1 || axis == Axis::kChild || !doc.recursive();
  std::set<std::string> seen;
  for (const Candidate& candidate : candidates) {
    int32_t tag = doc.FindTag(candidate.text);
    uint64_t count = tag < 0 ? 0 : (*counts)[static_cast<size_t>(tag)];
    if (count == 0) {
      return "TYPE: candidate " + candidate.text + " extends " + key + " to an empty query";
    }
    if (candidate.count < count || (exact && candidate.count != count)) {
      return "TYPE: candidate " + candidate.text + " counted " +
             std::to_string(candidate.count) + ", oracle counts " + std::to_string(count);
    }
    seen.insert(candidate.text);
  }
  const size_t kLimit = 10;
  if (candidates.size() < std::min(kLimit, expected.size())) {
    for (const Candidate& want : expected) {
      if (seen.count(want.text) == 0) {
        return "TYPE: missing candidate " + want.text + " after " + key;
      }
    }
  }
  if (exact) {
    expected.resize(std::min(kLimit, expected.size()));
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i >= expected.size() || candidates[i].text != expected[i].text) {
        return "TYPE: candidate " + std::to_string(i + 1) + " is " +
               candidates[i].text + ", oracle ranks " +
               (i < expected.size() ? expected[i].text : std::string("nothing")) + " there";
      }
    }
  }
  return "";
}

std::string Checker::CheckTypeval(const TwigQuery& canvas, int node,
                                  const std::string& prefix,
                                  const std::string& payload) {
  ++quality_.checks;
  std::vector<Candidate> candidates;
  if (!ParseCandidates(payload, &candidates)) return "TYPEVAL: malformed response";
  const OracleDoc& doc = cache_->doc();
  const std::string& tag_name = canvas.node(node).tag;
  int32_t tag = doc.FindTag(tag_name);
  std::string lowered = Lower(prefix);
  std::shared_ptr<const OracleResult> answer = cache_->Get(canvas);
  for (const Candidate& candidate : candidates) {
    if (!StartsWith(candidate.text, lowered)) {
      return "TYPEVAL: term " + candidate.text + " lacks prefix " + lowered;
    }
    uint32_t token = doc.FindToken(candidate.text);
    bool occurs = token != UINT32_MAX &&
                  (tag_name == "*" || (tag >= 0 && doc.TagHasToken(tag, token)));
    if (!occurs) {
      return "TYPEVAL: term " + candidate.text + " occurs under no <" + tag_name + ">";
    }
    if (answer->capped) continue;
    ++quality_.value_terms;
    for (int32_t id : answer->bound[static_cast<size_t>(node)]) {
      auto [begin, end] = doc.tokens(id);
      if (std::find(begin, end, token) != end) {
        ++quality_.value_terms_at_box;
        break;
      }
    }
  }
  return "";
}

}  // namespace perfbench
