// `replay`: the traced, in-process pass. It plays the prepared command
// streams through ProtocolInterpreter::Execute and, for the same canvas,
// through each layer's public call (parse, compile, plan, execute,
// rewrite, rank, complete, Engine::Search), recording one span per call.
// It prints the per-layer metrics as one JSON object and writes the spans
// as Chrome trace-event JSON to <out>/spans.json.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bench/alloc_tracker.h"
#include "lotusx/engine.h"
#include "session/protocol.h"
#include "stream.h"
#include "tool.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"
#include "workloads.h"
#include "xml/dom_builder.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using lotusx::twig::Axis;
using lotusx::twig::TwigQuery;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index of the parent span, -1 for a command span
  uint32_t command;
};

// Records spans when enabled; otherwise only runs the calls, so the two
// passes differ by the recording alone.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Begin(const char* name, int32_t parent, uint32_t command) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0, parent, command});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = Now();
  }
  double Millis(int32_t span) const {
    if (span < 0) return 0;
    const Span& s = spans_[static_cast<size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Measurements of one traced pass.
struct Tally {
  std::map<std::string, std::vector<double>> samples;  // metric -> values
  double blocks_decoded = 0;
  double blocks_skipped = 0;
  double bytes_decoded = 0;
  double intermediate = 0;
  double matches = 0;
  double scored = 0;
  double returned = 0;
  double distinct_returned = 0;
  double rank_allocs = 0;
  double rewrites = 0;
  double rewrite_evaluations = 0;
  size_t runs = 0;
  std::vector<TwigQuery> run_queries;
};

class Replayer {
 public:
  Replayer(const lotusx::Engine& engine, Tracer* tracer, Tally* tally)
      : engine_(engine),
        indexed_(engine.indexed()),
        tracer_(tracer),
        tally_(tally),
        planner_(indexed_),
        ranker_(indexed_),
        rewriter_(indexed_),
        completion_(indexed_) {}

  // Plays one command of a user's session.
  // `tcp_us` is the command's median TCP round trip in the measured run,
  // or a negative value when the run did not measure it.
  bool Play(lotusx::session::Session* session,
            lotusx::session::ProtocolInterpreter* interpreter, const Step& step,
            uint32_t command, double tcp_us) {
    std::istringstream tokens(step.line);
    std::string verb;
    tokens >> verb;
    const int32_t root = tracer_->Begin(verb == "RUN"       ? "RUN"
                                        : verb == "TYPE"    ? "TYPE"
                                        : verb == "TYPEVAL" ? "TYPEVAL"
                                        : verb == "PARSE"   ? "PARSE"
                                        : verb == "EXPLAIN" ? "EXPLAIN"
                                                            : "EDIT",
                                        -1, command);
    // The protocol call first, then the same command's layer calls on the
    // unchanged canvas (RUN, PARSE's text, TYPE and TYPEVAL leave the
    // canvas as it was).
    int32_t span = tracer_->Begin("session.Execute", root, command);
    auto result = interpreter->Execute(step.line);
    tracer_->End(span);
    if (!result.ok()) {
      std::cerr << "in-process '" << step.line << "' failed: " << result.status().ToString() << "\n";
      return false;
    }
    double layers_ms = 0;
    if (verb == "RUN") {
      layers_ms = DecomposeRun(*session, root, command);
    } else if (verb == "PARSE") {
      int32_t parse = tracer_->Begin("twig.ParseQuery", root, command);
      auto parsed = lotusx::twig::ParseQuery(step.line.substr(6));
      tracer_->End(parse);
      Sample("twig.parse_us", tracer_->Millis(parse) * 1000);
      if (!parsed.ok()) return false;
    } else if (verb == "TYPE" || verb == "TYPEVAL") {
      DecomposeCompletion(*session, verb == "TYPE", tokens, root, command);
    }
    tracer_->End(root);
    const double execute_ms = tracer_->Millis(span);
    Sample(std::string("session.execute_us.") + VerbClassName(step.cls), execute_ms * 1000);
    if (tcp_us >= 0) {
      Sample(std::string("net.residue_us.") + VerbClassName(step.cls), tcp_us - execute_ms * 1000);
    }
    if (verb == "RUN") Sample("run.unaccounted_ms", execute_ms - layers_ms);
    return true;
  }

 private:
  void Sample(const std::string& metric, double value) {
    if (tracer_->enabled()) tally_->samples[metric].push_back(value);
  }

  // The canvas query with its box -> query node mapping.
  lotusx::StatusOr<TwigQuery> Compile(const lotusx::session::Session& session,
                                      std::map<int, int>* mapping, int32_t root,
                                      uint32_t command, double* ms = nullptr) {
    int32_t span = tracer_->Begin("session.Compile", root, command);
    auto compiled = session.canvas().Compile(mapping);
    tracer_->End(span);
    Sample("session.compile_us", tracer_->Millis(span) * 1000);
    if (ms != nullptr) *ms = tracer_->Millis(span);
    return compiled;
  }

  // Compile, plan, execute, rewrite when empty, rank: returns their
  // summed time. Engine::Search (cache off) is timed alongside.
  double DecomposeRun(const lotusx::session::Session& session, int32_t root,
                      uint32_t command) {
    std::map<int, int> mapping;
    double total = 0;
    auto compiled = Compile(session, &mapping, root, command, &total);
    if (!compiled.ok()) return total;
    const TwigQuery& query = *compiled;

    int32_t span = tracer_->Begin("twig.Plan", root, command);
    auto plan = planner_.Plan(query, lotusx::twig::plan::HintsFrom({}));
    tracer_->End(span);
    total += tracer_->Millis(span);
    Sample("twig.plan_us", tracer_->Millis(span) * 1000);
    if (!plan.ok()) return total;

    span = tracer_->Begin("twig.ExecutePlan", root, command);
    auto executed = lotusx::twig::plan::ExecutePlan(indexed_, &*plan);
    tracer_->End(span);
    total += tracer_->Millis(span);
    Sample("twig.exec_ms", tracer_->Millis(span));
    if (!executed.ok()) return total;
    lotusx::twig::QueryResult result = *std::move(executed);
    const lotusx::twig::EvalStats& stats = result.stats;
    if (tracer_->enabled()) {
      ++tally_->runs;
      tally_->blocks_decoded += static_cast<double>(stats.posting_blocks_decoded);
      tally_->blocks_skipped += static_cast<double>(stats.posting_blocks_skipped);
      tally_->bytes_decoded += static_cast<double>(stats.posting_bytes_decoded);
      tally_->intermediate += static_cast<double>(stats.intermediate_tuples);
      tally_->matches += static_cast<double>(stats.matches);
      const double estimate = std::max(1.0, plan->estimate.match_cardinality);
      const double actual = std::max(1.0, static_cast<double>(stats.matches));
      Sample("twig.row_estimate_qerror", std::max(estimate / actual, actual / estimate));
      tally_->run_queries.push_back(query);
    }

    TwigQuery ranked_query = query;
    if (result.matches.empty()) {
      span = tracer_->Begin("rewrite.Rewrite", root, command);
      auto rewritten = rewriter_.Rewrite(query, {});
      tracer_->End(span);
      total += tracer_->Millis(span);
      Sample("rewrite.rewrite_ms", tracer_->Millis(span));
      if (rewritten.ok()) {
        if (tracer_->enabled()) {
          tally_->rewrites += 1;
          tally_->rewrite_evaluations += static_cast<double>(rewritten->evaluations);
        }
        ranked_query = rewritten->query;
        result = std::move(rewritten->result);
      }
    }

    lotusx::ranking::RankingOptions ranking;
    ranking.top_k = lotusx::session::SessionOptions{}.top_k;
    const uint64_t allocs_before = lotusx::bench::CurrentAllocCounters().allocs;
    span = tracer_->Begin("ranking.Rank", root, command);
    std::vector<lotusx::ranking::RankedResult> ranked =
        ranker_.Rank(ranked_query, result.matches, ranking);
    tracer_->End(span);
    const uint64_t allocs = lotusx::bench::CurrentAllocCounters().allocs - allocs_before;
    total += tracer_->Millis(span);
    Sample("ranking.rank_ms", tracer_->Millis(span));
    if (tracer_->enabled() && !ranked.empty()) {
      tally_->rank_allocs += static_cast<double>(allocs);
      tally_->scored += static_cast<double>(result.matches.size());
      tally_->returned += static_cast<double>(ranked.size());
      std::vector<int32_t> outputs;
      for (const auto& r : ranked) outputs.push_back(r.output);
      std::sort(outputs.begin(), outputs.end());
      tally_->distinct_returned += static_cast<double>(
          std::unique(outputs.begin(), outputs.end()) - outputs.begin());
    }

    lotusx::SearchOptions options;
    options.ranking.top_k = ranking.top_k;
    span = tracer_->Begin("lotusx.Search", root, command);
    auto searched = engine_.Search(query, options);
    tracer_->End(span);
    Sample("lotusx.search_ms", tracer_->Millis(span));
    return total;
  }

  void DecomposeCompletion(const lotusx::session::Session& session, bool tag,
                           std::istringstream& tokens, int32_t root, uint32_t command) {
    int box = 0;
    tokens >> box;
    std::map<int, int> mapping;
    if (tag) {
      std::string axis;
      std::string prefix;
      tokens >> axis >> prefix;
      lotusx::autocomplete::TagRequest request;
      request.axis = axis == "/" ? Axis::kChild : Axis::kDescendant;
      request.prefix = prefix;
      request.limit = lotusx::session::SessionOptions{}.completion_limit;
      TwigQuery query;
      if (box != 0 && !session.canvas().empty()) {
        auto compiled = Compile(session, &mapping, root, command);
        if (compiled.ok()) {
          query = *std::move(compiled);
          request.anchor = mapping.at(box);
        } else {
          request.position_aware = false;
        }
      }
      int32_t span = tracer_->Begin("autocomplete.CompleteTag", root, command);
      auto candidates = completion_.CompleteTag(query, request);
      tracer_->End(span);
      Sample("autocomplete.tag_us", tracer_->Millis(span) * 1000);
      return;
    }
    std::string prefix;
    tokens >> prefix;
    auto compiled = Compile(session, &mapping, root, command);
    if (!compiled.ok()) return;
    int32_t span = tracer_->Begin("autocomplete.CompleteValue", root, command);
    auto candidates = completion_.CompleteValue(
        *compiled, mapping.at(box), prefix,
        lotusx::session::SessionOptions{}.completion_limit, true);
    tracer_->End(span);
    Sample("autocomplete.value_us", tracer_->Millis(span) * 1000);
  }

  const lotusx::Engine& engine_;
  const lotusx::index::IndexedDocument& indexed_;
  Tracer* tracer_;
  Tally* tally_;
  lotusx::twig::plan::Planner planner_;
  lotusx::ranking::Ranker ranker_;
  lotusx::rewrite::Rewriter rewriter_;
  lotusx::autocomplete::CompletionEngine completion_;
};

// One command to replay and its median TCP round trip in the measured
// run (-1 when not measured).
struct Planned {
  const Step* step;
  double tcp_us;
};

// Per (session, step): the TCP round trips the drive measured, and the
// position in the stream where the measured window began.
struct TcpRecord {
  size_t first_measured = 0;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<double>> latencies;
};

bool ReadTcpRecord(const std::string& path, TcpRecord* record) {
  std::ifstream in(path);
  std::string word;
  if (!(in >> word) || word != "first_measured" || !(in >> record->first_measured)) {
    return false;
  }
  uint32_t session = 0;
  uint32_t step = 0;
  double latency = 0;
  while (in >> session >> step >> latency) record->latencies[{session, step}].push_back(latency);
  return true;
}

// Commands in the order the replay plays them: the sessions from the
// first one the TCP run measured. Runs them once (the warm-up) and stops
// after `budget_s`.
std::vector<Planned> Schedule(const Stream& stream, const TcpRecord& tcp, double budget_s,
                              const lotusx::Engine& engine) {
  std::vector<Planned> order;
  Tally unused;
  Tracer off(false);
  Replayer replayer(engine, &off, &unused);
  lotusx::session::Session session(engine.indexed());
  lotusx::session::ProtocolInterpreter interpreter(&session);
  const Clock::time_point start = Clock::now();
  for (size_t position = tcp.first_measured; position < stream.order.size(); ++position) {
    const uint32_t id = stream.order[position];
    const std::vector<Step>& steps = stream.sessions[id];
    for (size_t i = 0; i < steps.size(); ++i) {
      if (!replayer.Play(&session, &interpreter, steps[i], 0, -1)) return {};
      auto it = tcp.latencies.find({id, static_cast<uint32_t>(i)});
      order.push_back({&steps[i], it == tcp.latencies.end() ? -1.0 : Median(it->second)});
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() > budget_s) break;
  }
  return order;
}

double PlayAll(const lotusx::Engine& engine, const std::vector<Planned>& order,
               Tracer* tracer, Tally* tally, bool* ok) {
  Replayer replayer(engine, tracer, tally);
  lotusx::session::Session session(engine.indexed());
  lotusx::session::ProtocolInterpreter interpreter(&session);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < order.size(); ++i) {
    if (!replayer.Play(&session, &interpreter, *order[i].step, static_cast<uint32_t>(i),
                       order[i].tcp_us)) {
      *ok = false;
      return 0;
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"command\":%u,\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.command, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace

int Replay(const Args& args) {
  Stream stream;
  std::string error;
  if (!ReadStream(args.out + "/stream.txt", &stream, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  std::map<std::string, double> metrics;

  // Set-up layers, timed through their public calls.
  Clock::time_point t0 = Clock::now();
  auto document = lotusx::xml::ParseDocumentFile(stream.corpus_path);
  Clock::time_point t1 = Clock::now();
  if (!document.ok()) {
    std::cerr << document.status().ToString() << "\n";
    return 1;
  }
  {
    lotusx::index::IndexedDocument indexed(*std::move(document));
    Clock::time_point t2 = Clock::now();
    metrics["xml.parse_ms"] = std::chrono::duration<double, std::milli>(t1 - t0).count();
    metrics["index.build_ms"] = std::chrono::duration<double, std::milli>(t2 - t1).count();
  }
  auto engine = lotusx::Engine::FromXmlFile(stream.corpus_path);
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  const std::string image = args.out + "/index.img";
  if (!engine->SaveIndex(image).ok()) {
    std::cerr << "cannot save the index image\n";
    return 1;
  }
  struct stat info;
  metrics["index.image_bytes"] = stat(image.c_str(), &info) == 0 ? static_cast<double>(info.st_size) : 0;
  std::remove(image.c_str());

  // Warm-up pass (sizes the replay), then untraced, traced and untraced
  // again over the same commands; comparing the traced pass with the mean
  // of the two around it cancels a steady drift in machine speed.
  TcpRecord tcp;
  if (!ReadTcpRecord(args.out + "/tcp_commands.txt", &tcp)) {
    std::cerr << "no TCP record to replay against\n";
    return 1;
  }
  auto order = Schedule(stream, tcp, args.seconds / 4, *engine);
  if (order.empty()) return 1;
  bool ok = true;
  Tally tally;
  Tracer traced(true);
  Tally ignored;
  Tracer untraced(false);
  const double before_s = PlayAll(*engine, order, &untraced, &ignored, &ok);
  const double traced_s = PlayAll(*engine, order, &traced, &tally, &ok);
  const double after_s = PlayAll(*engine, order, &untraced, &ignored, &ok);
  if (!ok) return 1;
  const double untraced_s = (before_s + after_s) / 2;

  for (const auto& [name, values] : tally.samples) metrics[name] = Median(values);
  const char* kPerRun[] = {"twig.exec_ms", "twig.plan_us", "rewrite.rewrite_ms",
                           "ranking.rank_ms", "lotusx.search_ms", "autocomplete.tag_us",
                           "autocomplete.value_us", "twig.parse_us", "session.compile_us",
                           "twig.row_estimate_qerror", "run.unaccounted_ms",
                           "session.execute_us.run", "session.execute_us.complete",
                           "session.execute_us.edit", "net.residue_us.run",
                           "net.residue_us.complete", "net.residue_us.edit"};
  for (const char* name : kPerRun) metrics.emplace(name, 0.0);
  const double runs = std::max<double>(1, static_cast<double>(tally.runs));
  metrics["index.blocks_decoded_per_run"] = tally.blocks_decoded / runs;
  metrics["index.blocks_skipped_per_run"] = tally.blocks_skipped / runs;
  metrics["index.bytes_decoded_per_run"] = tally.bytes_decoded / runs;
  metrics["twig.intermediate_tuples_per_match"] =
      tally.matches > 0 ? tally.intermediate / tally.matches : 0;
  metrics["ranking.scored_per_returned"] = tally.returned > 0 ? tally.scored / tally.returned : 0;
  metrics["ranking.distinct_answer_share"] =
      tally.returned > 0 ? tally.distinct_returned / tally.returned : 0;
  metrics["ranking.allocs_per_run"] = tally.rank_allocs / runs;
  metrics["rewrite.evaluations_per_rewrite"] =
      tally.rewrites > 0 ? tally.rewrite_evaluations / tally.rewrites : 0;
  metrics["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100;

  // The same RUN stream through Engine::Search with the result cache on.
  engine->EnableResultCache(4096);
  lotusx::SearchOptions options;
  options.ranking.top_k = lotusx::session::SessionOptions{}.top_k;
  for (const TwigQuery& query : tally.run_queries) (void)engine->Search(query, options);
  const double lookups = static_cast<double>(engine->cache_hits() + engine->cache_misses());
  metrics["lotusx.cache_hit_share"] =
      lookups > 0 ? static_cast<double>(engine->cache_hits()) / lookups : 0;

  if (!WriteSpans(traced, args.out + "/spans.json")) {
    std::cerr << "cannot write spans\n";
    return 1;
  }
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf(", \"replayed_commands\": %zu, \"spans\": %zu}\n", order.size(),
              traced.spans().size());
  return 0;
}

}  // namespace perfbench
