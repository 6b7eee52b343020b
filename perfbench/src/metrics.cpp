#include "obs/metrics.h"
#include "obs/names.h"
#include "workloads.h"

namespace perfbench {

KernelCounters
KernelCounters::read()
{
    buffalo::obs::MetricsRegistry &m = buffalo::obs::metrics();
    namespace names = buffalo::obs::names;
    auto value = [&m](const char *name) {
        return static_cast<double>(m.counter(name).value());
    };
    KernelCounters k;
    k.gemm_s = value(names::kCtrKernelsGemmNanos) / 1e9;
    k.gemm_flops = value(names::kCtrKernelsGemmFlops);
    k.elementwise_s = value(names::kCtrKernelsElementwiseNanos) / 1e9;
    k.elementwise_calls = value(names::kCtrKernelsElementwiseCalls);
    k.gather_s = value(names::kCtrKernelsGatherNanos) / 1e9;
    k.agg_s = value(names::kCtrKernelsAggNanos) / 1e9;
    return k;
}

KernelCounters
KernelCounters::operator-(const KernelCounters &before) const
{
    KernelCounters d;
    d.gemm_s = gemm_s - before.gemm_s;
    d.gemm_flops = gemm_flops - before.gemm_flops;
    d.elementwise_s = elementwise_s - before.elementwise_s;
    d.elementwise_calls = elementwise_calls - before.elementwise_calls;
    d.gather_s = gather_s - before.gather_s;
    d.agg_s = agg_s - before.agg_s;
    return d;
}

void
LayerMetrics::readSpans(const TraceSummary &trace)
{
    sample_s = trace.seconds("sampling.sample");
    blockgen_s = trace.seconds("sampling.blockgen");
    schedule_s = trace.seconds("core.schedule");
    load_features_s = trace.seconds("train.load_features");
    forward_s = trace.seconds("nn.forward");
    backward_s = trace.seconds("nn.backward");
    loss_s = trace.seconds("nn.loss");
    optimizer_s = trace.seconds("nn.optimizer");
    infer_s = trace.seconds("nn.infer");
}

void
LayerMetrics::addTo(Result &result) const
{
    result.add("graph.load_s", graph_load_s, "s");
    result.add("sampling.sample_s", sample_s, "s");
    result.add("sampling.sampled_edges", sampled_edges, "count");
    result.add("sampling.blockgen_s", blockgen_s, "s");
    result.add("sampling.block_nodes", block_nodes, "count");
    result.add("core.schedule_s", schedule_s, "s");
    result.add("core.micro_batches", micro_batches, "count");
    result.add("core.est_signed_error_max", est_signed_error_max, "ratio");
    result.add("train.load_features_s", load_features_s, "s");
    result.add("train.feature_bytes", feature_bytes, "bytes");
    result.add("nn.forward_s", forward_s, "s");
    result.add("nn.backward_s", backward_s, "s");
    result.add("nn.loss_s", loss_s, "s");
    result.add("nn.optimizer_s", optimizer_s, "s");
    result.add("nn.infer_s", infer_s, "s");
    result.add("tensor.gemm_s", tensor.gemm_s, "s");
    result.add("tensor.gemm_flops", tensor.gemm_flops, "flop");
    result.add("tensor.elementwise_s", tensor.elementwise_s, "s");
    result.add("tensor.elementwise_calls", tensor.elementwise_calls,
               "count");
    result.add("tensor.gather_s", tensor.gather_s, "s");
    result.add("tensor.agg_s", tensor.agg_s, "s");
    result.add("device.peak_bytes", peak_bytes, "bytes");
    result.add("device.oom_retries", oom_retries, "count");
    result.add("pipeline.cache_hit_rate", cache_hit_rate, "ratio");
    result.add("pipeline.sample_busy_s", sample_busy_s, "s");
    result.add("pipeline.build_busy_s", build_busy_s, "s");
    result.add("pipeline.feature_busy_s", feature_busy_s, "s");
    result.add("serve.queue_ms_p50", queue_ms_p50, "ms");
    result.add("serve.service_ms_p50", service_ms_p50, "ms");
    result.add("serve.mean_batch", mean_batch, "count");
    result.add("serve.generator_lag_ms", generator_lag_ms, "ms");
    result.add("trace.overhead_ratio", overhead_ratio, "ratio");
}

void
addEndToEnd(Result &result, double setup_s, double seeds_per_s,
            double latency_p50_ms, double latency_p99_ms,
            double peak_rss_mib)
{
    result.add("setup_s", setup_s, "s");
    result.add("seeds_per_s", seeds_per_s, "1/s");
    result.add("latency_p50_ms", latency_p50_ms, "ms");
    result.add("latency_p99_ms", latency_p99_ms, "ms");
    result.add("peak_rss_mb", peak_rss_mib, "MiB");
}

} // namespace perfbench
