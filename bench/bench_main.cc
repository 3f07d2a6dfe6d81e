// Custom google-benchmark main for the micro suites: peels a
// --threads=N flag off argv (sizing the shared par::ThreadPool) before
// handing the rest to the benchmark runner, so the same suite runs at
// --threads=1 and --threads=N. The repository's end-to-end and per-layer
// benchmark is perfbench/ (perfbench/README.md).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "par/thread_pool.h"

int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      skyex::par::ThreadPool::SetGlobalThreads(
          std::strtoull(argv[i] + 10, nullptr, 10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
