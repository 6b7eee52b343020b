#include "tensor/kernels.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/names.h"
#include "tensor/kernels_wide.h"
#include "tensor/lane_kernels.h"
#include "util/errors.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace buffalo::tensor::kernels {

namespace {

/**
 * The live configuration. Plain (unlocked) because the contract in
 * kernels.h restricts mutation to quiescent points; every dispatch
 * reads it without synchronization.
 */
KernelConfig g_config;

/**
 * Lazily (re)built dedicated pool for explicit thread counts. With
 * threads == 0 the global pool is used instead and this stays empty.
 */
class KernelPool
{
  public:
    util::ThreadPool &
    get(std::size_t threads)
    {
        util::MutexLock lock(mutex_);
        if (!pool_ || pool_threads_ != threads) {
            pool_.reset(); // join the old workers first
            pool_ = std::make_unique<util::ThreadPool>(threads);
            pool_threads_ = threads;
        }
        return *pool_;
    }

  private:
    util::Mutex mutex_;
    std::unique_ptr<util::ThreadPool> pool_ BUFFALO_GUARDED_BY(mutex_);
    std::size_t pool_threads_ BUFFALO_GUARDED_BY(mutex_) = 0;
};

KernelPool &
kernelPool()
{
    static KernelPool pool;
    return pool;
}

util::ThreadPool &
dispatchPool()
{
    if (g_config.threads == 0)
        return util::ThreadPool::global();
    return kernelPool().get(g_config.threads);
}

/** Counter handles for one op class, fetched once per process. */
struct OpCounters
{
    obs::Counter *calls;
    obs::Counter *nanos;
    obs::Counter *bytes;
};

const OpCounters &
countersFor(OpClass op_class)
{
    using namespace obs::names;
    static const OpCounters gemm{
        &obs::metrics().counter(kCtrKernelsGemmCalls),
        &obs::metrics().counter(kCtrKernelsGemmNanos),
        &obs::metrics().counter(kCtrKernelsGemmBytes)};
    static const OpCounters elementwise{
        &obs::metrics().counter(kCtrKernelsElementwiseCalls),
        &obs::metrics().counter(kCtrKernelsElementwiseNanos),
        &obs::metrics().counter(kCtrKernelsElementwiseBytes)};
    static const OpCounters gather{
        &obs::metrics().counter(kCtrKernelsGatherCalls),
        &obs::metrics().counter(kCtrKernelsGatherNanos),
        &obs::metrics().counter(kCtrKernelsGatherBytes)};
    static const OpCounters aggregate{
        &obs::metrics().counter(kCtrKernelsAggCalls),
        &obs::metrics().counter(kCtrKernelsAggNanos),
        &obs::metrics().counter(kCtrKernelsAggBytes)};
    switch (op_class) {
      case OpClass::Gemm: return gemm;
      case OpClass::Elementwise: return elementwise;
      case OpClass::Gather: return gather;
      case OpClass::Aggregate: return aggregate;
    }
    return elementwise;
}

obs::Counter &
flopsCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter(obs::names::kCtrKernelsGemmFlops);
    return counter;
}

obs::Counter &
dispatchCounter(bool parallel)
{
    static obs::Counter &parallel_ops =
        obs::metrics().counter(obs::names::kCtrKernelsParallelOps);
    static obs::Counter &serial_ops =
        obs::metrics().counter(obs::names::kCtrKernelsSerialOps);
    return parallel ? parallel_ops : serial_ops;
}

/** True when the current config dispatches to the wide kernels. */
bool
simdActive()
{
    return g_config.simd != SimdMode::Off && wide::available();
}

} // namespace

const KernelConfig &
config()
{
    return g_config;
}

void
setConfig(const KernelConfig &cfg)
{
    checkArgument(cfg.simd != SimdMode::On || wide::available(),
                  "KernelConfig: simd=on requires a BUFFALO_SIMD build "
                  "on a CPU with the target ISA");
    KernelConfig sanitized = cfg;
    sanitized.tile_n = std::max<std::size_t>(1, sanitized.tile_n);
    sanitized.tile_k = std::max<std::size_t>(1, sanitized.tile_k);
    sanitized.min_rows_per_task =
        std::max<std::size_t>(1, sanitized.min_rows_per_task);
    g_config = sanitized;
}

std::size_t
effectiveThreads()
{
    if (g_config.threads != 0)
        return g_config.threads;
    return util::ThreadPool::global().size();
}

bool
simdAvailable()
{
    return wide::available();
}

std::size_t
simdWidth()
{
    return simdActive() ? wide::width() : 1;
}

const char *
simdIsaName()
{
    return wide::isaName();
}

SimdMode
simdModeFromName(const std::string &name)
{
    if (name == "auto")
        return SimdMode::Auto;
    if (name == "off")
        return SimdMode::Off;
    if (name == "on")
        return SimdMode::On;
    throw InvalidArgument("simdModeFromName: unknown SIMD mode '" +
                          name + "' (want auto|off|on)");
}

const char *
simdModeName(SimdMode mode)
{
    switch (mode) {
      case SimdMode::Auto: return "auto";
      case SimdMode::Off: return "off";
      case SimdMode::On: return "on";
    }
    return "?";
}

bool
parallelRows(std::size_t rows, std::uint64_t work,
             const std::function<void(std::size_t, std::size_t)> &body)
{
    const KernelConfig &cfg = g_config;
    std::size_t tasks = std::min(effectiveThreads(), rows);
    if (tasks > 1)
        tasks = std::min(
            tasks, std::max<std::size_t>(
                       1, rows / cfg.min_rows_per_task));
    if (tasks <= 1 || work < cfg.min_parallel_work ||
        util::ThreadPool::inPoolTask()) {
        dispatchCounter(false).add();
        body(0, rows);
        return false;
    }
    dispatchCounter(true).add();
    // Balanced contiguous partition: task t owns rows
    // [t*q + min(t, r), ...) where q = rows / tasks, r = rows % tasks.
    // Each output row has exactly one owner, so the per-row (and thus
    // per-element) arithmetic is independent of the task count.
    const std::size_t q = rows / tasks;
    const std::size_t r = rows % tasks;
    util::ParallelForOptions options;
    options.grain = 1;
    options.max_chunks = tasks;
    dispatchPool().parallelFor(
        0, tasks, options, [&](std::size_t t) {
            const std::size_t r0 = t * q + std::min(t, r);
            const std::size_t r1 = r0 + q + (t < r ? 1 : 0);
            body(r0, r1);
        });
    return true;
}

namespace {

/** One B tile as the scalar loop reads it: row kk - kp of the tile
 *  starts at base + (kk - kp) * stride, at column jp. */
struct BTile
{
    const float *base;
    std::size_t stride;
};

/**
 * The scalar lane's one tiled GEMM, shared by all three forms:
 * zero-fill the owned C rows, then k-panel outer, j-tile, and all
 * owned rows, so the B tile (tile_k x tile_n) stays cache-resident
 * across the row sweep. A 4-row block lets one B load feed four C
 * rows; GCC vectorises the j loop. @p arow_at maps (row, kk) to the
 * A element and @p tile(kp, kend, jp, jend) yields the B tile. Every
 * C element accumulates k-ascending from +0 (panels ascend, kk
 * ascends within a panel) — the serial order, for any tiling.
 */
template <typename TileOf, typename ARowAt>
void
scalarTiledGemm(TileOf tile, ARowAt arow_at, float *c, std::size_t r0,
                std::size_t r1, std::size_t k, std::size_t n)
{
    std::fill(c + r0 * n, c + r1 * n, 0.0f);
    const std::size_t tile_k = g_config.tile_k;
    const std::size_t tile_n = g_config.tile_n;
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            const std::size_t tw = jend - jp;
            const BTile bt = tile(kp, kend, jp, jend);
            std::size_t i = r0;
            for (; i + 4 <= r1; i += 4) {
                float *c0 = c + (i + 0) * n + jp;
                float *c1 = c + (i + 1) * n + jp;
                float *c2 = c + (i + 2) * n + jp;
                float *c3 = c + (i + 3) * n + jp;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float v0 = arow_at(i + 0, kk);
                    const float v1 = arow_at(i + 1, kk);
                    const float v2 = arow_at(i + 2, kk);
                    const float v3 = arow_at(i + 3, kk);
                    const float *brow = bt.base + (kk - kp) * bt.stride;
                    for (std::size_t j = 0; j < tw; ++j) {
                        const float bv = brow[j];
                        c0[j] += v0 * bv;
                        c1[j] += v1 * bv;
                        c2[j] += v2 * bv;
                        c3[j] += v3 * bv;
                    }
                }
            }
            for (; i < r1; ++i) {
                float *crow = c + i * n + jp;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float av = arow_at(i, kk);
                    const float *brow = bt.base + (kk - kp) * bt.stride;
                    for (std::size_t j = 0; j < tw; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

} // namespace

void
gemmRows(const float *a, const float *b, float *c, std::size_t r0,
         std::size_t r1, std::size_t k, std::size_t n)
{
    if (simdActive()) {
        wide::gemmRows(a, b, c, r0, r1, k, n, g_config.tile_k,
                       g_config.tile_n);
        return;
    }
    scalarTiledGemm(
        [b, n](std::size_t kp, std::size_t, std::size_t jp,
               std::size_t) {
            return BTile{b + kp * n + jp, n};
        },
        [a, k](std::size_t row, std::size_t kk) {
            return a[row * k + kk];
        },
        c, r0, r1, k, n);
}

void
gemmTransposeARows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t m, std::size_t n)
{
    if (simdActive()) {
        wide::gemmTransposeARows(a, b, c, r0, r1, k, m, n,
                                 g_config.tile_k, g_config.tile_n);
        return;
    }
    scalarTiledGemm(
        [b, n](std::size_t kp, std::size_t, std::size_t jp,
               std::size_t) {
            return BTile{b + kp * n + jp, n};
        },
        // C row i is A column i: a[kk*m + i].
        [a, m](std::size_t row, std::size_t kk) {
            return a[kk * m + row];
        },
        c, r0, r1, k, n);
}

void
gemmTransposeBRows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t n)
{
    if (simdActive()) {
        wide::gemmTransposeBRows(a, b, c, r0, r1, k, n,
                                 g_config.tile_k, g_config.tile_n);
        return;
    }
    // Pack each tile of B^T (B is n x k) into a per-thread panel,
    // panel[kk - kp][j - jp] = b[j][kk], and run the A*B loop on it.
    thread_local std::vector<float> panel;
    scalarTiledGemm(
        [b, k](std::size_t kp, std::size_t kend, std::size_t jp,
               std::size_t jend) {
            const std::size_t tw = jend - jp;
            panel.resize((kend - kp) * tw);
            for (std::size_t j = jp; j < jend; ++j)
                for (std::size_t kk = kp; kk < kend; ++kk)
                    panel[(kk - kp) * tw + (j - jp)] = b[j * k + kk];
            return BTile{panel.data(), tw};
        },
        [a, k](std::size_t row, std::size_t kk) {
            return a[row * k + kk];
        },
        c, r0, r1, k, n);
}

void
ewAdd(const float *a, const float *b, float *c, std::size_t lo,
      std::size_t hi)
{
    if (simdActive()) {
        wide::ewAdd(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] + b[i];
}

void
ewSubtract(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    if (simdActive()) {
        wide::ewSubtract(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] - b[i];
}

void
ewMultiply(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    if (simdActive()) {
        wide::ewMultiply(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] * b[i];
}

void
ewScale(const float *a, float s, float *c, std::size_t lo,
        std::size_t hi)
{
    if (simdActive()) {
        wide::ewScale(a, s, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] * s;
}

void
ewAddInPlace(float *a, const float *b, std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewAddInPlace(a, b, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        a[i] += b[i];
}

void
ewScaleInPlace(float *a, float s, std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewScaleInPlace(a, s, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        a[i] *= s;
}

void
ewRelu(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewRelu(a, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = std::max(0.0f, a[i]);
}

void
ewReluBackward(const float *grad, const float *pre, float *c,
               std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewReluBackward(grad, pre, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = pre[i] > 0.0f ? grad[i] : 0.0f;
}

void
ewAddRowBroadcast(const float *a, const float *bias, float *c,
                  std::size_t r0, std::size_t r1, std::size_t n)
{
    if (simdActive()) {
        wide::ewAddRowBroadcast(a, bias, c, r0, r1, n);
        return;
    }
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * n;
        float *crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = arow[j] + bias[j];
    }
}

void
ewColumnSum(const float *a, float *c, std::size_t rows, std::size_t n,
            std::size_t c0, std::size_t c1)
{
    if (simdActive()) {
        wide::ewColumnSum(a, c, rows, n, c0, c1);
        return;
    }
    std::fill(c + c0, c + c1, 0.0f);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *arow = a + i * n;
        for (std::size_t j = c0; j < c1; ++j)
            c[j] += arow[j];
    }
}

void
ewSigmoid(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewSigmoid(a, c, lo, hi);
        return;
    }
    simd::sigmoidRange(a, c, lo, hi);
}

void
ewTanh(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    if (simdActive()) {
        wide::ewTanh(a, c, lo, hi);
        return;
    }
    simd::tanhRange(a, c, lo, hi);
}

void
lstmStep(const LstmStepArgs &args)
{
    const std::size_t elems = args.rows * args.hidden;
    OpTimer timer(OpClass::Elementwise,
                  (2 * 4 * elems + 4 * args.hidden + 8 * elems) *
                      sizeof(float));
    const bool use_simd = simdActive();
    // Five transcendentals per element, ~20 flops each.
    parallelRows(args.rows, 100 * elems,
                 [&](std::size_t r0, std::size_t r1) {
                     if (use_simd)
                         wide::lstmStepRows(args, r0, r1);
                     else
                         simd::lstmStepRows(args, r0, r1);
                 });
}

void
lstmStepBackward(const LstmBackwardArgs &args)
{
    const std::size_t elems = args.rows * args.hidden;
    const std::size_t written = args.dc_prev != nullptr ? 5 : 4;
    OpTimer timer(OpClass::Elementwise,
                  (8 * elems + written * elems) * sizeof(float));
    const bool use_simd = simdActive();
    parallelRows(args.rows, 20 * elems,
                 [&](std::size_t r0, std::size_t r1) {
                     if (use_simd)
                         wide::lstmBackwardRows(args, r0, r1);
                     else
                         simd::lstmBackwardRows(args, r0, r1);
                 });
}

namespace {

/** Scalar bodies for the fused aggregator chains (see kernels.h for
 *  the contracts; the wide TU mirrors these element for element). */
void
scalarGatherSumScaleRows(const float *x, const std::uint32_t *gather,
                         const std::uint32_t *out_rows, std::size_t v0,
                         std::size_t v1, std::size_t d, std::size_t dim,
                         float norm, float *out)
{
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        std::fill(dst, dst + dim, 0.0f);
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            for (std::size_t j = 0; j < dim; ++j)
                dst[j] += src[j];
        }
        for (std::size_t j = 0; j < dim; ++j)
            dst[j] *= norm;
    }
}

void
scalarGatherScaledAddRows(const float *x, const std::uint32_t *gather,
                          const std::uint32_t *out_rows, std::size_t v0,
                          std::size_t v1, std::size_t d,
                          std::size_t dim, float norm, float *out)
{
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            for (std::size_t j = 0; j < dim; ++j)
                dst[j] += src[j] * norm;
        }
    }
}

void
scalarScatterScaledAddRows(const float *grad,
                           const std::uint32_t *out_rows,
                           const std::uint32_t *gather, std::size_t n,
                           std::size_t d, std::size_t dim, float norm,
                           float *grad_x, std::size_t r0,
                           std::size_t r1)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float *src =
            grad + static_cast<std::size_t>(out_rows[i]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const std::size_t row = gather[i * d + t];
            if (row < r0 || row >= r1)
                continue;
            float *dst = grad_x + row * dim;
            for (std::size_t j = 0; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

} // namespace

void
fusedGatherSumScale(const float *x, const std::uint32_t *gather,
                    const std::uint32_t *out_rows, std::size_t n,
                    std::size_t d, std::size_t dim, float norm,
                    float *out)
{
    OpTimer timer(OpClass::Aggregate,
                  (n * d * dim + 2 * n * dim) * sizeof(float));
    const bool use_simd = simdActive();
    parallelRows(n, n * d * dim,
                 [&](std::size_t v0, std::size_t v1) {
                     if (use_simd)
                         wide::fusedGatherSumScaleRows(
                             x, gather, out_rows, v0, v1, d, dim, norm,
                             out);
                     else
                         scalarGatherSumScaleRows(x, gather, out_rows,
                                                  v0, v1, d, dim, norm,
                                                  out);
                 });
}

void
fusedGatherScaledAdd(const float *x, const std::uint32_t *gather,
                     const std::uint32_t *out_rows, std::size_t n,
                     std::size_t d, std::size_t dim, float norm,
                     float *out)
{
    OpTimer timer(OpClass::Aggregate,
                  (n * d * dim + 2 * n * dim) * sizeof(float));
    const bool use_simd = simdActive();
    parallelRows(n, n * d * dim,
                 [&](std::size_t v0, std::size_t v1) {
                     if (use_simd)
                         wide::fusedGatherScaledAddRows(
                             x, gather, out_rows, v0, v1, d, dim, norm,
                             out);
                     else
                         scalarGatherScaledAddRows(x, gather, out_rows,
                                                   v0, v1, d, dim,
                                                   norm, out);
                 });
}

void
fusedScatterScaledAdd(const float *grad, const std::uint32_t *out_rows,
                      const std::uint32_t *gather, std::size_t n,
                      std::size_t d, std::size_t dim, float norm,
                      float *grad_x, std::size_t grad_x_rows)
{
    OpTimer timer(OpClass::Aggregate,
                  3 * n * d * dim * sizeof(float));
    const bool use_simd = simdActive();
    // Owner-partitioned over grad_x rows; every task scans the whole
    // gather list (like ops::scatterAddRows), so the work estimate
    // includes the scan itself.
    parallelRows(grad_x_rows, n * d * (dim + 1),
                 [&](std::size_t r0, std::size_t r1) {
                     if (use_simd)
                         wide::fusedScatterScaledAddRows(
                             grad, out_rows, gather, n, d, dim, norm,
                             grad_x, r0, r1);
                     else
                         scalarScatterScaledAddRows(grad, out_rows,
                                                    gather, n, d, dim,
                                                    norm, grad_x, r0,
                                                    r1);
                 });
}

OpTimer::OpTimer(OpClass op_class, std::uint64_t bytes,
                 std::uint64_t flops)
    : op_class_(op_class), start_(std::chrono::steady_clock::now())
{
    const OpCounters &counters = countersFor(op_class_);
    counters.calls->add();
    counters.bytes->add(bytes);
    if (flops != 0)
        flopsCounter().add(flops);
}

OpTimer::~OpTimer()
{
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    countersFor(op_class_).nanos->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
}

} // namespace buffalo::tensor::kernels
