// perfbench_tool: the compiled half of the LotusX benchmark.
//
//   perfbench_tool prepare --workload W --seed N --corpus FILE --out DIR
//   perfbench_tool drive   --out DIR --port P --server-pid PID --seconds S
//   perfbench_tool replay  --out DIR --seconds S
//   perfbench_tool selftest
//
// perfbench/run.py strings them together; see perfbench/README.md.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "tool.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool prepare|drive|replay|selftest [flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  perfbench::Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--corpus") {
      args.corpus = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--port") {
      args.port = std::atoi(value);
    } else if (flag == "--server-pid") {
      args.server_pid = std::atoi(value);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (command == "prepare") return perfbench::Prepare(args);
  if (command == "drive") return perfbench::Drive(args);
  if (command == "replay") return perfbench::Replay(args);
  if (command == "selftest") return perfbench::SelfTest();
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
