// ufim_e2e: the repository's end-to-end benchmark program.
//
//   ufim_e2e --workload esup|prob|stream --seed <n> --seconds <s>
//            --trace 0|1 --work-dir <dir>
//
// Generates the workload's dataset from the seed, writes it to the work
// directory, sets up from that file, runs the closed loop, checks every
// output, and prints the result JSON as the last line of stdout. Exit
// code 0 only when every check passed; 2 on bad arguments or set-up
// failure (no result line then). See README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Options* o) {
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      seed = *end == '\0';
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      seconds = *end == '\0' && o->seconds > 0;
    } else if (flag == "--trace") {
      trace = value == "0" || value == "1";
      o->trace = value == "1";
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seed && seconds && trace && !o->work_dir.empty() &&
         (o->workload == "esup" || o->workload == "prob" ||
          o->workload == "stream");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: ufim_e2e --workload esup|prob|stream --seed <n> "
                 "--seconds <s> --trace 0|1 --work-dir <dir>\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.work_dir);
    e2e::Run run(options);
    if (options.workload == "esup") {
      e2e::RunEsup(run);
    } else if (options.workload == "prob") {
      e2e::RunProb(run);
    } else {
      e2e::RunStream(run);
    }
    return run.Finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
