#ifndef PERFBENCH_TOOL_CHECKER_H_
#define PERFBENCH_TOOL_CHECKER_H_

// Checks the program's protocol responses against the oracle.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "oracle.h"
#include "twig/twig_query.h"

namespace perfbench {

// Oracle results shared by the threads of one process, keyed by query
// text.
class OracleCache {
 public:
  explicit OracleCache(const OracleDoc& doc) : doc_(doc) {}
  const OracleDoc& doc() const { return doc_; }
  // Evaluates with enumeration limit `cap` on first use.
  std::shared_ptr<const OracleResult> Get(const lotusx::twig::TwigQuery& query,
                                          uint64_t cap);
  std::shared_ptr<const OracleResult> Get(const lotusx::twig::TwigQuery& query);

 private:
  const OracleDoc& doc_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const OracleResult>> results_;
};

struct Candidate {
  std::string text;
  uint64_t count = 0;
};
// Parses "1. text (count)" lines; "(no candidates)" is the empty list.
bool ParseCandidates(const std::string& payload, std::vector<Candidate>* out);

// Suggestion-quality tallies over the TYPE/TYPEVAL responses checked.
struct Quality {
  uint64_t value_terms = 0;          // TYPEVAL suggestions seen
  uint64_t value_terms_at_box = 0;   // ... that occur at the box's positions
  uint64_t accepts = 0;
  uint64_t accept_rank_sum = 0;
  uint64_t checks = 0;
};

class Checker {
 public:
  explicit Checker(OracleCache* cache) : cache_(cache) {}

  // Each returns "" when the response is right, else what is wrong.
  std::string CheckRun(const lotusx::twig::TwigQuery& canvas,
                       const std::string& payload);
  std::string CheckExplain(const lotusx::twig::TwigQuery& canvas,
                           const std::string& payload);
  // `canvas` is null when the canvas is empty or does not compile;
  // `anchor` is the query node under the anchor box, -1 for anchor 0 (a
  // new query root), or -2 when the canvas does not compile.
  std::string CheckType(const lotusx::twig::TwigQuery* canvas, int anchor,
                        lotusx::twig::Axis axis, const std::string& prefix,
                        const std::string& payload);
  std::string CheckTypeval(const lotusx::twig::TwigQuery& canvas, int node,
                           const std::string& prefix, const std::string& payload);
  void RecordAccept(int rank) {
    ++quality_.accepts;
    quality_.accept_rank_sum += static_cast<uint64_t>(rank);
  }
  const Quality& quality() const { return quality_; }

 private:
  OracleCache* cache_;
  Quality quality_;
  std::map<std::string, std::vector<uint64_t>> extension_cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_CHECKER_H_
