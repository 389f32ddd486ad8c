// `prepare`: draws a workload's command streams from its corpus and the
// seed, plays every distinct session once in-process through the
// program's ProtocolInterpreter, checks each response with the oracle,
// and writes the streams with the accepted responses for `drive` (which
// compares what the server sends over TCP with them) and `replay`.

#include <sys/stat.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "checker.h"
#include "lotusx/engine.h"
#include "session/protocol.h"
#include "stream.h"
#include "tool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lotusx::twig::Axis;
using lotusx::twig::TwigQuery;

struct PlayedStep {
  VerbClass cls;
  std::string line;
  std::string response;
};

// Plays lines through one in-process session and checks the responses.
class Player {
 public:
  Player(const lotusx::index::IndexedDocument& indexed, OracleCache* cache)
      : session_(indexed), interpreter_(&session_), checker_(cache) {}

  Checker& checker() { return checker_; }
  const std::string& error() const { return error_; }

  // Runs `line`; false (with error() set) on ERR or a failed check.
  bool Exec(const std::string& line, std::vector<PlayedStep>* out,
            std::string* response = nullptr) {
    if (!error_.empty()) return false;
    // The canvas as the command sees it, for the oracle.
    std::map<int, int> mapping;
    auto compiled = session_.canvas().Compile(&mapping);
    lotusx::StatusOr<std::string> result = interpreter_.Execute(line);
    if (!result.ok()) {
      error_ = "'" + line + "' failed: " + result.status().ToString();
      return false;
    }
    VerbClass cls = ClassOfLine(line);
    std::string payload = *result;
    std::istringstream tokens(line);
    std::string verb;
    tokens >> verb;
    std::string problem;
    if (verb == "RUN") {
      problem = compiled.ok() ? checker_.CheckRun(*compiled, payload)
                              : "RUN on an uncompilable canvas";
    } else if (verb == "EXPLAIN") {
      problem = compiled.ok() ? checker_.CheckExplain(*compiled, payload)
                              : "EXPLAIN on an uncompilable canvas";
      payload = MaskTimes(payload);
    } else if (verb == "TYPE") {
      int anchor = 0;
      std::string axis;
      std::string prefix;
      tokens >> anchor >> axis >> prefix;
      int q = -1;
      if (anchor != 0 && compiled.ok()) q = mapping.at(anchor);
      problem = checker_.CheckType(
          anchor != 0 && compiled.ok() ? &*compiled : nullptr,
          anchor == 0 ? -1 : (compiled.ok() ? q : -2),
          axis == "/" ? Axis::kChild : Axis::kDescendant, prefix, payload);
    } else if (verb == "TYPEVAL") {
      int box = 0;
      std::string prefix;
      tokens >> box >> prefix;
      problem = compiled.ok()
                    ? checker_.CheckTypeval(*compiled, mapping.at(box), prefix, payload)
                    : "TYPEVAL on an uncompilable canvas";
    }
    if (!problem.empty()) {
      error_ = problem + "\n  command: " + line + "\n  response:\n" + *result;
      return false;
    }
    if (response != nullptr) *response = *result;
    out->push_back({cls, line, std::move(payload)});
    return true;
  }

 private:
  lotusx::session::Session session_;
  lotusx::session::ProtocolInterpreter interpreter_;
  Checker checker_;
  std::string error_;
};

int RankOf(const std::string& payload, const std::string& tag) {
  std::vector<Candidate> candidates;
  if (!ParseCandidates(payload, &candidates)) return 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].text == tag) return static_cast<int>(i) + 1;
  }
  return 0;
}

int BoxOf(const std::string& payload) {
  // "node <id>" or "node <id> (<tag>)"
  return std::atoi(payload.c_str() + 5);
}

// One typing session: draw the target box by box with growing prefixes,
// type and set its keyword predicate, then RUN the finished twig.
bool PlayTarget(Player* player, const TypingTarget& target,
                std::vector<PlayedStep>* out) {
  if (!player->Exec("RESET", out)) return false;
  std::vector<int> boxes;
  for (const TargetNode& node : target.nodes) {
    const int anchor = node.parent < 0 ? 0 : boxes[static_cast<size_t>(node.parent)];
    const std::string axis =
        node.parent < 0 || node.axis == Axis::kDescendant ? "//" : "/";
    int box = 0;
    for (size_t length = 1; length <= node.tag.size() && box == 0; ++length) {
      std::string response;
      if (!player->Exec("TYPE " + std::to_string(anchor) + " " + axis + " " +
                            node.tag.substr(0, length),
                        out, &response)) {
        return false;
      }
      int rank = RankOf(response, node.tag);
      if (rank == 0) continue;
      player->checker().RecordAccept(rank);
      if (!player->Exec("ACCEPT " + std::to_string(rank), out, &response)) return false;
      box = BoxOf(response);
    }
    if (box == 0) {  // never offered: draw the box by hand
      std::string response;
      if (!player->Exec("ADD 0 0 " + node.tag, out, &response)) return false;
      box = BoxOf(response);
      if (anchor != 0 &&
          !player->Exec("EDGE " + std::to_string(anchor) + " " +
                            std::to_string(box) + " " + axis,
                        out)) {
        return false;
      }
    }
    boxes.push_back(box);
  }
  bool has_predicate = false;
  for (const TargetNode& node : target.nodes) has_predicate |= !node.token.empty();
  if (!has_predicate) return player->Exec("RUN", out);
  for (size_t i = 0; i < target.nodes.size(); ++i) {
    const std::string& token = target.nodes[i].token;
    if (token.empty()) continue;
    const std::string box = std::to_string(boxes[i]);
    for (size_t length = 1; length <= token.size(); ++length) {
      std::string response;
      if (!player->Exec("TYPEVAL " + box + " " + token.substr(0, length), out,
                        &response)) {
        return false;
      }
      if (RankOf(response, token) != 0) break;
    }
    if (!player->Exec("VALUE " + box + " ~ " + token, out)) return false;
  }
  return player->Exec("RUN", out);
}

void WriteQuality(const std::string& path, const Quality& quality, size_t sessions) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"value_terms\": " << quality.value_terms
      << ", \"value_terms_at_box\": " << quality.value_terms_at_box
      << ", \"accepts\": " << quality.accepts
      << ", \"accept_rank_sum\": " << quality.accept_rank_sum
      << ", \"checks\": " << quality.checks << ", \"sessions\": " << sessions << "}\n";
}

// Plays sessions 0..count-1 with play(i, player, steps) on kThreads
// threads, each with its own in-process session. Sessions are
// independent (each starts with RESET or PARSE), so the split does not
// change any response. Adds the checkers' tallies to `quality`.
template <typename Play>
bool PlayAll(size_t count, const lotusx::index::IndexedDocument& indexed,
             OracleCache* cache, Play play,
             std::vector<std::vector<PlayedStep>>* played, Quality* quality,
             std::string* error) {
  constexpr size_t kThreads = 4;
  played->assign(count, {});
  std::vector<Quality> tallies(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Player player(indexed, cache);
      for (size_t i = w; i < count; i += kThreads) {
        if (!play(i, &player, &(*played)[i])) {
          errors[w] = player.error();
          return;
        }
      }
      tallies[w] = player.checker().quality();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t w = 0; w < kThreads; ++w) {
    if (!errors[w].empty()) {
      *error = errors[w];
      return false;
    }
    quality->value_terms += tallies[w].value_terms;
    quality->value_terms_at_box += tallies[w].value_terms_at_box;
    quality->accepts += tallies[w].accepts;
    quality->accept_rank_sum += tallies[w].accept_rank_sum;
    quality->checks += tallies[w].checks;
  }
  return true;
}

}  // namespace

int Prepare(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::string error;
  struct stat info;
  if (stat(args.corpus.c_str(), &info) != 0 &&
      !WriteCorpus(*spec, args.corpus, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  std::string xml;
  {
    std::ifstream in(args.corpus, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    xml = buffer.str();
  }
  OracleDoc doc;
  if (!doc.Parse(xml, &error)) {
    std::cerr << "oracle cannot read " << args.corpus << ": " << error << "\n";
    return 1;
  }
  xml.clear();
  xml.shrink_to_fit();
  auto engine = lotusx::Engine::FromXmlFile(args.corpus);
  if (!engine.ok()) {
    std::cerr << "cannot index " << args.corpus << ": " << engine.status().ToString() << "\n";
    return 1;
  }
  OracleCache cache(doc);
  const auto started = std::chrono::steady_clock::now();
  auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
  };

  Stream stream;
  stream.workload = spec->name;
  stream.seed = args.seed;
  stream.corpus_path = args.corpus;
  std::unordered_map<std::string, uint32_t> response_ids;
  auto session_of = [&](const std::vector<PlayedStep>& steps, size_t length) {
    std::vector<Step> session;
    for (size_t i = 0; i < length; ++i) {
      auto [it, inserted] = response_ids.emplace(steps[i].response, stream.responses.size());
      if (inserted) stream.responses.push_back(steps[i].response);
      session.push_back({steps[i].cls, steps[i].line, it->second});
    }
    return session;
  };
  Quality total;
  std::vector<std::vector<PlayedStep>> played;

  if (spec->mix == Mix::kSearch) {
    SearchPlan plan;
    if (!PlanSearch(doc, args.seed, spec->sessions, &plan, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    // Each distinct query is played once: PARSE, RUN, two TYPE keystrokes
    // for a new root under '//', EXPLAIN. The session without EXPLAIN is
    // its prefix.
    auto play = [&](size_t q, Player* player, std::vector<PlayedStep>* steps) {
      const SearchQuery& query = plan.queries[q];
      return player->Exec("PARSE " + query.text, steps) && player->Exec("RUN", steps) &&
             player->Exec("TYPE 0 //", steps) && player->Exec(query.type_line, steps) &&
             player->Exec("EXPLAIN", steps);
    };
    if (!PlayAll(plan.queries.size(), engine->indexed(), &cache, play, &played, &total,
                 &error)) {
      std::cerr << "check failed: " << error << "\n";
      return 1;
    }
    // Session 2q is query q without EXPLAIN, 2q+1 with it.
    for (const std::vector<PlayedStep>& steps : played) {
      stream.sessions.push_back(session_of(steps, steps.size() - 1));
      stream.sessions.push_back(session_of(steps, steps.size()));
    }
    for (const SearchAction& action : plan.actions) {
      stream.order.push_back(2 * action.query + (action.explain ? 1 : 0));
    }
  } else {
    std::vector<TypingTarget> targets;
    if (!PlanTyping(&cache, args.seed, spec->sessions, spec->target_cap, &targets,
                    &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    std::cerr << "drew targets in " << seconds_since(started) << " s\n";
    auto play = [&](size_t i, Player* player, std::vector<PlayedStep>* steps) {
      return PlayTarget(player, targets[i], steps);
    };
    if (!PlayAll(targets.size(), engine->indexed(), &cache, play, &played, &total,
                 &error)) {
      std::cerr << "check failed: " << error << "\n";
      return 1;
    }
    for (const std::vector<PlayedStep>& steps : played) {
      stream.order.push_back(static_cast<uint32_t>(stream.sessions.size()));
      stream.sessions.push_back(session_of(steps, steps.size()));
    }
  }

  if (!WriteStream(stream, args.out + "/stream.txt", &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  WriteQuality(args.out + "/quality.json", total, stream.sessions.size());
  std::cerr << "prepared in " << seconds_since(started) << " s\n";
  std::cout << "prepared " << stream.sessions.size() << " sessions, "
            << total.checks << " oracle checks passed\n";
  return 0;
}

}  // namespace perfbench
