// perfbench: one run of one workload, printed as one JSON object on the
// last line of stdout.
//
//   perfbench --workload browse|churn|serve --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE]
//             [--users N] [--ticks N] [--requests N]
//             [--inject-mismatch] [--no-twin]
//
// Exit status: 0 when every check passed, 2 when one failed (the object
// then has "correct": false), 1 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload browse|churn|serve "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE] "
               "[--users N] [--ticks N] [--requests N] "
               "[--inject-mismatch] [--no-twin]\n",
               problem);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      options.inject_mismatch = true;
      continue;
    }
    if (flag == "--no-twin") {
      options.twin = false;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        return usage("--seconds needs a positive number");
      }
    } else if (!parse_u64(value, &number)) {
      return usage((flag + " needs a whole number").c_str());
    } else if (flag == "--seed") {
      options.seed = number;
    } else if (flag == "--trace") {
      if (number > 1) return usage("--trace is 0 or 1");
      options.trace = number == 1;
    } else if (flag == "--users") {
      options.users = number;
    } else if (flag == "--ticks") {
      options.ticks = number;
    } else if (flag == "--requests") {
      options.requests = number;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report(options.workload);
  if (options.workload == "browse" || options.workload == "churn") {
    perfbench::run_sim(options, report);
  } else if (options.workload == "serve") {
    perfbench::run_serve(options, report);
  } else {
    return usage("--workload is browse, churn or serve");
  }
  perfbench::record_hardware(report);
  report.record("trace", options.trace ? 1 : 0);
  std::printf("%s\n", report.to_json().c_str());
  return report.correct() ? 0 : 2;
}
