/// \file main.cpp
/// \brief ned_perfbench: one run of one benchmark workload.
///
///   ned_perfbench --workload paper19|scaled16|repeat_reload --seed N
///                 --seconds S --trace 0|1 [--root DIR] [--out DIR]
///
/// Progress goes to stderr; the last line of stdout is the JSON result.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "runner.h"

namespace {

void Usage() {
  std::cerr << "usage: ned_perfbench --workload paper19|scaled16|repeat_reload"
               " --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]\n";
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ned::perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    long long n = 0;
    if (arg == "--workload") {
      auto workload = ParseWorkload(value);
      if (!workload.ok()) {
        std::cerr << workload.status().ToString() << "\n";
        return 2;
      }
      config.workload = *workload;
      have_workload = true;
    } else if (arg == "--seed" && ParseInt(value, 0, INT64_MAX, &n)) {
      config.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds" && ParseInt(value, 1, 3600, &n)) {
      config.seconds = static_cast<int>(n);
    } else if (arg == "--trace" && ParseInt(value, 0, 1, &n)) {
      config.trace = n == 1;
    } else if (arg == "--root") {
      config.root = value;
    } else if (arg == "--out") {
      config.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload) {
    Usage();
    return 2;
  }
  if (config.out_dir.empty()) config.out_dir = config.root + "/.bench_build/results";
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::cerr << "ned_perfbench: cannot create " << config.out_dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  auto output = Run(config);
  if (!output.ok()) {
    std::cerr << "ned_perfbench: " << output.status().ToString() << "\n";
    return 1;
  }
  std::cout << RenderResult(*output) << std::endl;
  return 0;
}
