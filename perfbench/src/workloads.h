// The benchmark's workloads. Each fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and
// records every correctness or stationarity gate it fails.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "data/spatial_entity.h"
#include "geo/quadflex.h"

namespace perfbench {

void RunBatch(const Options& options, Report* report);
void RunServe(const Options& options, bool hotspot, Report* report);

/// Every registry similarity measure over a sample of the workload's own
/// normalized name pairs: nanoseconds per pair for the whole set.
double KernelNsPerPair(const skyex::data::Dataset& dataset,
                       const std::vector<skyex::geo::CandidatePair>& pairs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
