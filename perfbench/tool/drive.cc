// `drive`: the closed-loop TCP client. One thread on one connection: a
// user who sends the next command only after the previous answer
// arrived. Every answer must be OK and equal to the response the oracle
// accepted in `prepare`; latencies of commands sent inside the measured
// window are reported per verb class.
//
// The server and the client each run on one CPU, and every half second
// both move on to the next CPU. On a shared host each virtual CPU runs
// fast or about 1.6 times slower for seconds at a time, independently of
// the others (the host's other tenants); a server left on one CPU makes
// a run's figures depend on that one CPU's luck, while the rotation
// spreads every run over all of them.
//
// The host also steals whole stretches of time from a virtual CPU, in
// bursts (/proc/stat counts them per CPU). The latencies of a turn in
// which the server's and the client's CPU lost more than kMaxStolenTicks
// are left out of the percentiles, unless that would leave fewer than a
// quarter of the turns: then the quarter that lost the fewest is kept.
// `attempted` and `failed` still count every command.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stream.h"
#include "tool.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Commands sent in the first second are not measured.
constexpr double kWarmupSeconds = 1.0;

// How long the server and the client stay on one CPU.
constexpr double kRotateSeconds = 0.5;

// Pins every thread of `pid` (0: this process's calling thread only) to `cpu`.
bool PinTo(int pid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pid == 0) return ::sched_setaffinity(0, sizeof(set), &set) == 0;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return false;
  bool ok = true;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ok &= ::sched_setaffinity(std::atoi(entry->d_name), sizeof(set), &set) == 0;
  }
  ::closedir(dir);
  return ok;
}

// A turn whose two CPUs lost more than this many ticks (1/100 s each)
// to the host is left out of the latency percentiles.
constexpr uint64_t kMaxStolenTicks = 2;

// Ticks stolen from each CPU so far (the "steal" column of /proc/stat),
// indexed by CPU number; empty if the kernel does not count them.
std::vector<uint64_t> StolenTicks() {
  std::vector<uint64_t> stolen;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line.substr(3));
    size_t cpu = 0;
    // user nice system idle iowait irq softirq steal
    uint64_t columns[8] = {};
    fields >> cpu;
    for (uint64_t& column : columns) fields >> column;
    if (!fields) continue;
    if (stolen.size() <= cpu) stolen.resize(cpu + 1, 0);
    stolen[cpu] = columns[7];
  }
  return stolen;
}

// A measured command: where it is in the stream and its round trip.
struct Record {
  uint32_t session;
  uint32_t step;
  double latency_us;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Pops one "OK|ERR <n>\n<payload>\n" frame off `input`; false while the
// frame is incomplete. Sets `bad` on a malformed header.
bool PopFrame(std::string* input, bool* ok, std::string* payload, bool* bad) {
  size_t eol = input->find('\n');
  if (eol == std::string::npos) return false;
  const bool is_ok = input->compare(0, 3, "OK ") == 0;
  const bool is_err = input->compare(0, 4, "ERR ") == 0;
  if (!is_ok && !is_err) {
    *bad = true;
    return false;
  }
  size_t size = std::strtoull(input->c_str() + (is_ok ? 3 : 4), nullptr, 10);
  if (input->size() < eol + 1 + size + 1) return false;
  *ok = is_ok;
  payload->assign(*input, eol + 1, size);
  input->erase(0, eol + 1 + size + 1);
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

}  // namespace

int Drive(const Args& args) {
  Stream stream;
  std::string error;
  if (!ReadStream(args.out + "/stream.txt", &stream, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  if (stream.order.empty()) {
    std::cerr << "the stream has no sessions\n";
    return 1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(args.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "cannot connect to port " << args.port << "\n";
    return 1;
  }

  std::vector<std::vector<double>> latency_ms(kNumVerbClasses);
  std::vector<uint32_t> run_keys;
  // Every measured command's round trip, for the replay's per-command
  // residue; written out after the run.
  std::vector<Record> per_command;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  // Position in stream.order of the first session played wholly inside
  // the measured window (-1 until known).
  long first_measured = -1;
  bool wrapped = false;
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point measure_to =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const Clock::time_point give_up = measure_to + std::chrono::seconds(60);

  // The CPUs this process may use; the server takes turns on them and the
  // client stays half the list away from it.
  std::vector<int> cpus;
  {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
      }
    }
  }
  size_t turn = 0;
  Clock::time_point next_turn = start;
  int server_cpu = -1;
  int client_cpu = -1;
  std::vector<uint64_t> stolen_at_turn;
  // The measured turns: ticks the host stole from their two CPUs and
  // latencies per verb class.
  struct Turn {
    uint64_t lost = 0;
    std::vector<std::vector<double>> ms = std::vector<std::vector<double>>(kNumVerbClasses);
  };
  std::vector<Turn> turns(1);
  auto end_turn = [&] {
    bool any = false;
    for (const std::vector<double>& values : turns.back().ms) any |= !values.empty();
    if (!any) return;
    std::vector<uint64_t> stolen = StolenTicks();
    for (int cpu : {server_cpu, client_cpu}) {
      const size_t c = static_cast<size_t>(cpu);
      if (cpu >= 0 && c < stolen.size() && c < stolen_at_turn.size()) {
        turns.back().lost += stolen[c] - stolen_at_turn[c];
      }
    }
    turns.emplace_back();
  };

  std::string input;
  char buffer[1 << 16];
  size_t position = 0;
  size_t step_index = 0;
  while (true) {
    const Clock::time_point sent = Clock::now();
    if (sent >= measure_to) break;
    const bool measured = sent >= measure_from;
    if (args.server_pid > 0 && cpus.size() >= 2 && sent >= next_turn) {
      end_turn();
      const size_t n = cpus.size();
      server_cpu = cpus[turn % n];
      client_cpu = cpus[(turn + std::max<size_t>(1, n / 2)) % n];
      if (!PinTo(args.server_pid, server_cpu) || !PinTo(0, client_cpu)) {
        std::cerr << "cannot move the server or the client to another CPU\n";
        return 1;
      }
      stolen_at_turn = StolenTicks();
      ++turn;
      next_turn = sent + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kRotateSeconds));
      continue;
    }
    if (measured && step_index == 0 && first_measured < 0) {
      first_measured = static_cast<long>(position);
    }
    const uint32_t session = stream.order[position];
    const Step& step = stream.sessions[session][step_index];
    if (!SendAll(fd, step.line + "\n")) {
      std::cerr << "send failed\n";
      return 1;
    }
    bool ok = false;
    bool bad = false;
    std::string payload;
    while (!PopFrame(&input, &ok, &payload, &bad)) {
      if (bad) {
        std::cerr << "malformed frame from server\n";
        return 1;
      }
      if (Clock::now() > give_up) {
        std::cerr << "server stopped answering\n";
        return 1;
      }
      // Busy polling: the client never sleeps, so its own wake-up latency
      // stays out of the measured round trips.
      ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) {
        std::cerr << "server closed the connection\n";
        return 1;
      }
      input.append(buffer, static_cast<size_t>(n));
    }
    const Clock::time_point now = Clock::now();
    if (measured) {
      ++attempted;
      if (!ok) ++failed;
      turns.back().ms[static_cast<size_t>(step.cls)].push_back(
          std::chrono::duration<double, std::milli>(now - sent).count());
      if (step.cls == VerbClass::kRun) run_keys.push_back(step.response);
      per_command.push_back({session, static_cast<uint32_t>(step_index),
                             std::chrono::duration<double, std::micro>(now - sent).count()});
    }
    // Every checked answer was OK, so an ERR is a wrong answer too.
    const std::string& expected = stream.responses[step.response];
    const bool same = step.cls == VerbClass::kExplain ? MaskTimes(payload) == expected
                                                      : payload == expected;
    if (!ok || !same) {
      if (mismatches++ == 0) {
        first_mismatch = "command: " + step.line + "\nexpected: OK\n" + expected +
                         "\ngot: " + (ok ? "OK" : "ERR") + "\n" + payload;
      }
    }
    if (++step_index == stream.sessions[session].size()) {
      step_index = 0;
      if (++position == stream.order.size()) {
        position = 0;
        wrapped = true;
      }
    }
  }
  end_turn();
  turns.pop_back();  // the empty turn end_turn opened
  ::close(fd);
  std::stable_sort(turns.begin(), turns.end(),
                   [](const Turn& a, const Turn& b) { return a.lost < b.lost; });
  size_t turns_kept = 0;
  while (turns_kept < turns.size() &&
         (turns[turns_kept].lost <= kMaxStolenTicks || 4 * turns_kept < turns.size())) {
    for (size_t c = 0; c < latency_ms.size(); ++c) {
      const std::vector<double>& ms = turns[turns_kept].ms[c];
      latency_ms[c].insert(latency_ms[c].end(), ms.begin(), ms.end());
    }
    ++turns_kept;
  }
  {
    std::ofstream out(args.out + "/tcp_commands.txt", std::ios::trunc);
    out << "first_measured " << std::max(0L, first_measured) << "\n";
    for (const Record& record : per_command) {
      out << record.session << " " << record.step << " " << record.latency_us << "\n";
    }
  }

  if (mismatches > 0) {
    std::cerr << mismatches << " TCP answers differ from the checked in-process answers; first:\n"
              << first_mismatch << "\n";
  }
  std::set<uint32_t> distinct(run_keys.begin(), run_keys.end());
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"mismatches\": %llu, \"wrapped\": %s, ",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches), wrapped ? "true" : "false");
  std::printf("\"turns\": %zu, \"turns_kept\": %zu, ", turns.size(), turns_kept);
  std::printf("\"commands_per_s\": %.6f, \"run_repeat_share\": %.6f, \"classes\": {",
              static_cast<double>(attempted) / args.seconds,
              run_keys.empty() ? 0.0
                               : 1.0 - static_cast<double>(distinct.size()) /
                                           static_cast<double>(run_keys.size()));
  for (int c = 0; c < kNumVerbClasses; ++c) {
    const std::vector<double>& values = latency_ms[static_cast<size_t>(c)];
    std::printf("%s\"%s\": {\"count\": %zu, \"p50_ms\": %.6f, \"p99_ms\": %.6f}",
                c == 0 ? "" : ", ", VerbClassName(static_cast<VerbClass>(c)), values.size(),
                Percentile(values, 0.50), Percentile(values, 0.99));
  }
  std::printf("}}\n");
  return mismatches == 0 ? 0 : 3;
}

}  // namespace perfbench
