// wsbench: runs one benchmark workload and prints its result as one JSON
// line. wsbench/run.py builds this program, checks the result against the
// pins and prints the benchmark's report; see wsbench/README.md.
//
//   wsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--small] [--out-dir DIR]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using wsbench::Options;
using wsbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: wsbench --workload fleet-acyclic|search-proofs|"
               "saturation-fattree [--seed N] [--seconds S] "
               "[--trace 0|1] [--small] [--out-dir DIR]\n");
  return 2;
}

/// Effective parallelism of two busy threads: the work two spinning threads
/// get done in a fixed interval over what one gets done alone. 2.0 on two
/// idle cores; less when the host is shared. One and two threads alternate
/// three times and the median ratio is reported, so a burst of load from
/// elsewhere during one interval does not decide it.
double two_thread_parallelism() {
  const auto spin = [](unsigned threads) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(threads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&stop, &counts, t] {
        std::uint64_t n = 0, x = t + 1;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 1024; ++i) x = x * 6364136223846793005ull + 1;
          ++n;
        }
        counts[t] = n + (x == 0 ? 1 : 0);
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop = true;
    std::uint64_t total = 0;
    for (unsigned t = 0; t < threads; ++t) {
      pool[t].join();
      total += counts[t];
    }
    return static_cast<double>(total);
  };
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const double one = spin(1);
    ratios.push_back(one > 0 ? spin(2) / one : 0);
  }
  return wsbench::median(ratios);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value(), "0") != 0;
    } else if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else {
      return usage();
    }
  }
  std::filesystem::create_directories(opt.out_dir);

  Result result;
  if (opt.workload == "fleet-acyclic") {
    wsbench::run_fleet_acyclic(opt, result);
  } else if (opt.workload == "search-proofs") {
    wsbench::run_search_proofs(opt, result);
  } else if (opt.workload == "saturation-fattree") {
    wsbench::run_saturation_fattree(opt, result);
  } else {
    return usage();
  }

  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["two_thread_parallelism"] =
      std::to_string(two_thread_parallelism());
  result.info["build_type"] = WSBENCH_BUILD_TYPE;
  result.info["cxx_flags"] = WSBENCH_CXX_FLAGS;
  result.info["compiler"] = WSBENCH_COMPILER;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  result.info["sanitizer"] = "yes";
#else
  result.info["sanitizer"] = "no";
#endif
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
