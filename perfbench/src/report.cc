#include "report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      *error = std::string("missing value for ") + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
      continue;
    }
    if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::strtod(value, &end);
    } else {
      *error = std::string("unknown flag ") + flag;
      return false;
    }
    if (end == value || *end != '\0') {
      *error = std::string("bad value for ") + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    *error = "need --workload <name> and --seconds > 0";
    return false;
  }
  return true;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  metrics_.emplace_back(name, "{\"value\": " + std::string(buf) + ", \"unit\": \"" + unit + "\"}");
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": " + metrics_[i].second;
  }
  return out + "}}";
}

}  // namespace perfbench
