#include "stream.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace perfbench {

const char* VerbClassName(VerbClass cls) {
  switch (cls) {
    case VerbClass::kRun:
      return "run";
    case VerbClass::kComplete:
      return "complete";
    case VerbClass::kEdit:
      return "edit";
    case VerbClass::kExplain:
      return "explain";
  }
  return "edit";
}

VerbClass ClassOfLine(std::string_view line) {
  std::string verb;
  for (char c : line) {
    if (c == ' ') break;
    verb += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (verb == "RUN") return VerbClass::kRun;
  if (verb == "TYPE" || verb == "TYPEVAL") return VerbClass::kComplete;
  if (verb == "EXPLAIN") return VerbClass::kExplain;
  return VerbClass::kEdit;
}

bool WriteStream(const Stream& stream, const std::string& path,
                 std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << "perfbench-stream 1\n"
      << stream.workload << "\n"
      << stream.seed << "\n"
      << stream.corpus_path << "\n"
      << stream.responses.size() << "\n";
  for (const std::string& response : stream.responses) {
    out << response.size() << "\n" << response << "\n";
  }
  out << stream.sessions.size() << "\n";
  for (const std::vector<Step>& session : stream.sessions) {
    out << session.size() << "\n";
    for (const Step& step : session) {
      out << static_cast<int>(step.cls) << " " << step.response << " "
          << step.line << "\n";
    }
  }
  out << stream.order.size();
  for (uint32_t session : stream.order) out << " " << session;
  out << "\n";
  out.flush();
  if (!out) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

bool ReadStream(const std::string& path, Stream* stream, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::string header;
  if (!in || !std::getline(in, header) || header != "perfbench-stream 1") {
    *error = "not a stream file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, stream->workload);
  std::getline(in, line);
  stream->seed = std::stoull(line);
  std::getline(in, stream->corpus_path);
  size_t count = 0;
  in >> count;
  stream->responses.resize(count);
  for (std::string& response : stream->responses) {
    size_t size = 0;
    in >> size;
    in.get();  // '\n'
    response.resize(size);
    in.read(response.data(), static_cast<std::streamsize>(size));
    in.get();
  }
  in >> count;
  stream->sessions.resize(count);
  for (std::vector<Step>& session : stream->sessions) {
    size_t steps = 0;
    in >> steps;
    in.get();
    session.resize(steps);
    for (Step& step : session) {
      int cls = 0;
      in >> cls >> step.response;
      in.get();  // the separating space
      std::getline(in, step.line);
      step.cls = static_cast<VerbClass>(cls);
      if (step.response >= stream->responses.size()) {
        *error = "response index out of range in " + path;
        return false;
      }
    }
  }
  in >> count;
  stream->order.resize(count);
  for (uint32_t& session : stream->order) {
    in >> session;
    if (in && session >= stream->sessions.size()) {
      *error = "session index out of range in " + path;
      return false;
    }
  }
  if (!in) {
    *error = "truncated stream file: " + path;
    return false;
  }
  return true;
}

std::string MaskTimes(std::string_view explain) {
  std::string out;
  out.reserve(explain.size());
  size_t i = 0;
  while (i < explain.size()) {
    size_t skip_from = std::string_view::npos;
    if (explain.compare(i, 5, "time=") == 0) skip_from = i + 5;
    if (explain.compare(i, 8, "elapsed ") == 0) skip_from = i + 8;
    if (skip_from == std::string_view::npos) {
      out += explain[i++];
      continue;
    }
    out.append(explain.substr(i, skip_from - i));
    i = skip_from;
    while (i < explain.size() &&
           (std::isdigit(static_cast<unsigned char>(explain[i])) ||
            explain[i] == '.' || explain[i] == 'e' || explain[i] == '-' ||
            explain[i] == '+')) {
      ++i;
    }
    out += '#';
  }
  return out;
}

}  // namespace perfbench
