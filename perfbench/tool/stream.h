#ifndef PERFBENCH_TOOL_STREAM_H_
#define PERFBENCH_TOOL_STREAM_H_

// The command streams that `prepare` writes and `drive` and `replay`
// read: the user's sessions as protocol lines, with the response the
// program gave for each line in-process once the oracle had accepted it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// What a command is to a canvas user; latencies are reported per class.
enum class VerbClass : uint8_t { kRun = 0, kComplete = 1, kEdit = 2, kExplain = 3 };
inline constexpr int kNumVerbClasses = 4;
const char* VerbClassName(VerbClass cls);
VerbClass ClassOfLine(std::string_view line);

struct Step {
  VerbClass cls = VerbClass::kEdit;
  std::string line;
  uint32_t response = 0;  // index into Stream::responses
};

struct Stream {
  std::string workload;
  uint64_t seed = 0;
  std::string corpus_path;
  // Expected payloads. EXPLAIN payloads are stored with MaskTimes applied.
  std::vector<std::string> responses;
  std::vector<std::vector<Step>> sessions;
  // The sessions the user plays, in order (indices into `sessions`).
  std::vector<uint32_t> order;
};

bool WriteStream(const Stream& stream, const std::string& path,
                 std::string* error);
bool ReadStream(const std::string& path, Stream* stream, std::string* error);

// Replaces the wall-clock figures EXPLAIN prints ("time=0.123ms",
// "elapsed 1.234 ms") with '#', leaving what must be deterministic.
std::string MaskTimes(std::string_view explain);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_STREAM_H_
