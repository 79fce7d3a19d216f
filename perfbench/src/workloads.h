// The workloads of the benchmark and the settings they share.
#ifndef KF_PERFBENCH_WORKLOADS_H_
#define KF_PERFBENCH_WORKLOADS_H_

#include <cstddef>

#include "harness.h"

namespace perfbench {

/// Skew of the lookup key popularity (Zipf exponent): YCSB's default
/// request distribution (Cooper et al., SoCC 2010).
constexpr double kZipfS = 0.99;

/// spill-fuse.
int RunSpillFuse(const Args& args);
/// serve-stream.
int RunServe(const Args& args);

/// ops.<op>.attempted / ops.<op>.failed for every operation type.
void SetOpMetrics(const Outcome& outcome, Report* report);
/// Writes the spans to .bench_run/trace-<workload>-seed<n>.jsonl.
void WriteTrace(const Tracer& tracer, const Args& args, Outcome* outcome);

}  // namespace perfbench

#endif  // KF_PERFBENCH_WORKLOADS_H_
