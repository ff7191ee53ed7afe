// cpdbench: the repository benchmark program.
//
//   cpdbench prepare --workload W --seed N --config workloads.json
//                    [--size full|smoke] [--work_dir DIR]
//   cpdbench run     --workload W --seed N --seconds S --trace 0|1
//                    --config workloads.json [--size full|smoke]
//                    [--work_dir DIR]
//
// `prepare` builds the seed-derived fixtures (cached); `run` measures one
// workload and prints, as its last stdout line, one JSON object with the
// keys correct, attempted, failed and metrics. run.py builds this binary
// and calls both in turn.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cpdbench prepare|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --config workloads.json "
               "[--size full|smoke] [--work_dir DIR]\n");
  return 2;
}

std::string ExecutableDir() {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return ".";
  path[n] = '\0';
  return std::filesystem::path(path).parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode != "prepare" && mode != "run") return Usage();

  cpdbench::RunOptions options;
  std::string config_path;
  options.work_dir = ".bench_build/work";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--config") {
      config_path = value;
    } else if (key == "--size") {
      options.size = value;
    } else if (key == "--work_dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || config_path.empty() || options.seconds <= 0) {
    return Usage();
  }

  std::ifstream config_file(config_path);
  std::stringstream text;
  text << config_file.rdbuf();
  auto config = cpd::Json::Parse(text.str());
  if (!config_file || !config.ok()) {
    std::fprintf(stderr, "cannot read %s\n", config_path.c_str());
    return 2;
  }
  const cpd::Json* workloads = config->Find("workloads");
  const cpd::Json* workload =
      workloads == nullptr ? nullptr : workloads->Find(options.workload);
  const cpd::Json* params =
      workload == nullptr ? nullptr : workload->Find(options.size);
  if (params == nullptr || !params->is_object()) {
    std::fprintf(stderr, "no workload '%s' of size '%s' in %s\n",
                 options.workload.c_str(), options.size.c_str(),
                 config_path.c_str());
    return 2;
  }
  options.params = *params;
  options.bin_dir = ExecutableDir();
  std::filesystem::create_directories(options.work_dir);
  cpd::SetLogLevel(cpd::LogLevel::kWarning);

  if (mode == "prepare") {
    const cpd::Status status = cpdbench::PrepareWorkload(options);
    if (!status.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  cpdbench::Result result;
  if (options.workload == "train" || options.workload == "train_dist") {
    cpdbench::RunTrain(options, options.workload == "train_dist", &result);
  } else if (options.workload == "ingest") {
    cpdbench::RunIngest(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  result.Print();
  return 0;
}
