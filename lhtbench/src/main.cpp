// lht_bench: one workload of the LHT benchmark, one JSON result line.
//
//   lht_bench --workload local-read --seed 1 --seconds 10 --trace 0
//             --noded <path to lht_noded>
//
// The last line on stdout is {"correct", "attempted", "failed", "metrics"}.
// A failed check prints the reason on stderr and exits 3 with no result;
// a set-up error (missing daemon, bad flag) exits 1 or 2.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lht_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --noded PATH [--out-dir DIR] [--corrupt CHECK]\n");
}

bool parseArgs(int argc, char** argv, lhtbench::Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0 && a.seconds <= 600)) return false;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--noded") {
        a.noded = v;
      } else if (flag == "--out-dir") {
        a.outDir = v;
      } else if (flag == "--corrupt") {
        a.corrupt = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const auto processStart = lhtbench::Clock::now();
  lhtbench::Args args;
  if (!parseArgs(argc, argv, args)) {
    usage();
    return 2;
  }
  lhtbench::installSignalHandlers();
  if (args.trace && ::mkdir(args.outDir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "lhtbench: cannot create %s: %s\n", args.outDir.c_str(),
                 std::strerror(errno));
    return 1;
  }

  lhtbench::Result res;
  try {
    res = lhtbench::runWorkload(args, processStart);
  } catch (const lhtbench::CheckFailure& e) {
    std::fprintf(stderr, "lhtbench: CHECK FAILED on %s: %s\n",
                 args.workload.c_str(), e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lhtbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
