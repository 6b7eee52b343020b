/**
 * @file
 * The benchmark's workloads (README.md, "Workloads").
 */
#pragma once

#include "common.h"

namespace perfbench {

/** Sums of the library's kernels.* counters (the tensor layer's own
 *  per-op timers); a traced run reports the difference across its
 *  replay. */
struct KernelCounters
{
    double gemm_s = 0, gemm_flops = 0, elementwise_s = 0,
           elementwise_calls = 0, gather_s = 0, agg_s = 0;

    static KernelCounters read();
    KernelCounters operator-(const KernelCounters &before) const;
};

/**
 * Every per-layer metric of a traced run (README.md, "Per-layer
 * metrics"). Each workload fills the layers on its path; a layer a
 * workload does not use (the scheduler when serving, the server when
 * training) reads 0.
 */
struct LayerMetrics
{
    double graph_load_s = 0, sample_s = 0, sampled_edges = 0,
           blockgen_s = 0, block_nodes = 0, schedule_s = 0,
           micro_batches = 0, est_signed_error_max = 0,
           load_features_s = 0, feature_bytes = 0, forward_s = 0,
           backward_s = 0, loss_s = 0, optimizer_s = 0, infer_s = 0;
    KernelCounters tensor;
    double peak_bytes = 0, oom_retries = 0, cache_hit_rate = 0,
           sample_busy_s = 0, build_busy_s = 0, feature_busy_s = 0;
    double queue_ms_p50 = 0, service_ms_p50 = 0, mean_batch = 0,
           generator_lag_ms = 0;
    double overhead_ratio = 0;

    /** Fills the span-timed layers from @p trace. */
    void readSpans(const TraceSummary &trace);
    void addTo(Result &result) const;
};

/** The end-to-end metrics of an untraced run. */
void addEndToEnd(Result &result, double setup_s, double seeds_per_s,
                 double latency_p50_ms, double latency_p99_ms,
                 double peak_rss_mib);

/** True for the workloads runTrainWorkload() handles. */
bool isTrainWorkload(const std::string &name);

/** train-lstm and train-mean-pipe. */
Result runTrainWorkload(const Args &args);

/** serve-lstm. */
Result runServeWorkload(const Args &args);

/** Where a traced run writes its spans (inside the checkout). */
std::string tracePath(const Args &args);

} // namespace perfbench
