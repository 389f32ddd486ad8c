#ifndef PERFBENCH_TOOL_WORKLOADS_H_
#define PERFBENCH_TOOL_WORKLOADS_H_

// The benchmark's workloads: which corpus each one indexes and how its
// user's command stream is drawn from that corpus and a seed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "oracle.h"
#include "twig/twig_query.h"

namespace perfbench {

class OracleCache;

enum class Mix { kSearch, kTyping };

struct WorkloadSpec {
  const char* name;
  bool treebank;         // else DBLP
  int64_t approx_nodes;  // datagen size knob
  Mix mix;
  // Search: PARSE+RUN actions. Typing: distinct target twigs. Sized so
  // that a closed-loop run seldom wraps around.
  int sessions;
  // Largest oracle embedding count a drawn typing target may have.
  uint64_t target_cap;
};

// The corpora are fixed; only the command streams depend on --seed.
inline constexpr uint64_t kCorpusSeed = 7;
// Oracle enumeration limit for queries whose answers are checked.
inline constexpr uint64_t kOracleCap = 2000000;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// Generates the workload's corpus with the program's data generator and
// writes it as XML.
bool WriteCorpus(const WorkloadSpec& spec, const std::string& path,
                 std::string* error);

// dblp-search: each action is PARSE <query>, RUN, two TYPE keystrokes for
// a new root under '//' and, every eighth action, EXPLAIN.
struct SearchQuery {
  std::string text;
  std::string type_line;
};
struct SearchAction {
  uint32_t query;
  bool explain;
};
struct SearchPlan {
  std::vector<SearchQuery> queries;
  std::vector<SearchAction> actions;
};
// Fails (returns false) only if the corpus cannot supply a pool.
bool PlanSearch(const OracleDoc& doc, uint64_t seed, int actions,
                SearchPlan* plan, std::string* error);

// Typing: a target twig taken from a real subtree, in the order the user
// draws it (depth first, parents before children).
struct TargetNode {
  std::string tag;
  int parent = -1;
  lotusx::twig::Axis axis = lotusx::twig::Axis::kChild;
  std::string token;  // keyword predicate, or empty
};
struct TypingTarget {
  std::vector<TargetNode> nodes;
  std::string text;  // the finished twig's query text
};
lotusx::twig::TwigQuery BuildTargetQuery(const TypingTarget& target,
                                         bool with_predicates);
// Draws `count` distinct targets whose oracle embedding counts stay
// within `cap`, with and without their predicates; their oracle results
// land in `cache`.
bool PlanTyping(OracleCache* cache, uint64_t seed, int count, uint64_t cap,
                std::vector<TypingTarget>* targets, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_WORKLOADS_H_
