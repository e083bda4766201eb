// Command line and result line shared by the end-to-end and traced runs.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
};

// Parses --workload <name> --seed <n> --seconds <s>. Returns false with a
// message on anything else.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

// The result line: one JSON object with the keys correct, attempted,
// failed and metrics, each metric a value with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
