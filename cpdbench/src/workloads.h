#ifndef CPDBENCH_WORKLOADS_H_
#define CPDBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "core/model_config.h"
#include "fixtures.h"
#include "util/status.h"

namespace cpdbench {

/// Generates (or finds cached) every fixture the workload reads.
cpd::Status PrepareWorkload(const RunOptions& options);

/// The measured runs. Each fills `result` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced) and the output checks.
void RunTrain(const RunOptions& options, bool distributed, Result* result);
void RunIngest(const RunOptions& options, Result* result);

/// Shared by prepare and run: the graph fixture and the training config a
/// workload pins. Configs start from CpdConfig defaults and set only the
/// sizes, seed, threads, shards and workers.
GraphFixture WorkloadGraph(const RunOptions& options);
cpd::CpdConfig TrainConfig(const RunOptions& options);
cpd::CpdConfig ServeModelConfig(const RunOptions& options);

}  // namespace cpdbench

#endif  // CPDBENCH_WORKLOADS_H_
