/**
 * @file
 * The determinism contract of the tensor::kernels layer (DESIGN.md,
 * "Compute kernels"): parallel execution must be *bitwise identical*
 * to serial execution — for every op, shape class (empty, single,
 * odd, tile-multiple, tile+1), tile configuration, and thread count —
 * and kernels invoked from inside a pool task must stay serial.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "lstm_composition.h"
#include "nn/aggregators.h"
#include "nn/lstm.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace buffalo::tensor {
namespace {

namespace ops = buffalo::tensor;

kernels::KernelConfig
serialConfig()
{
    kernels::KernelConfig cfg;
    cfg.threads = 1;
    return cfg;
}

/** Forces parallel dispatch for even the tiniest shapes. */
kernels::KernelConfig
parallelConfig(std::size_t threads = 4)
{
    kernels::KernelConfig cfg;
    cfg.threads = threads;
    cfg.min_parallel_work = 1;
    cfg.min_rows_per_task = 1;
    return cfg;
}

/**
 * SIMD modes the sweeps cover: the scalar path always, plus the wide
 * path (Auto and a forced On) whenever this build/CPU has it. On a
 * scalar-only host the sweep degenerates to Off/Auto, both scalar —
 * the widths that do exist are still pinned bit-for-bit.
 */
std::vector<kernels::SimdMode>
sweepSimdModes()
{
    std::vector<kernels::SimdMode> modes = {kernels::SimdMode::Off,
                                            kernels::SimdMode::Auto};
    if (kernels::simdAvailable())
        modes.push_back(kernels::SimdMode::On);
    return modes;
}

Tensor
randomTensor(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    Tensor t = Tensor::zeros(rows, cols);
    ops::fillUniform(t, 2.0f, rng);
    return t;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    if (a.size() == 0)
        return true;
    return std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/**
 * Naive references, written with the exact accumulation expression
 * forms the tiled kernels use (`acc += a * b`), so FP contraction
 * produces identical per-element operations.
 */
Tensor
refMatmul(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c.data() + i * n;
        const float *arow = a.data() + i * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            const float *brow = b.data() + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Tensor
refMatmulTransposeA(const Tensor &a, const Tensor &b)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c.data() + i * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a.data()[kk * m + i];
            const float *brow = b.data() + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Tensor
refMatmulTransposeB(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float dot = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                dot += arow[kk] * brow[kk];
            crow[j] = dot;
        }
    }
    return c;
}

class KernelsTest : public ::testing::Test
{
  protected:
    void TearDown() override { kernels::setConfig({}); }
};

/** Shape classes: empty, single, odd, tile-multiple, tile+1. */
const std::size_t kDims[] = {0, 1, 3, 64, 65, 128};

TEST_F(KernelsTest, GemmBitwiseAcrossShapesTilesAndThreads)
{
    util::Rng rng(7);
    for (std::size_t m : kDims) {
        for (std::size_t k : kDims) {
            for (std::size_t n : kDims) {
                const Tensor a = randomTensor(m, k, rng);
                const Tensor b = randomTensor(k, n, rng);
                const Tensor at = randomTensor(k, m, rng);
                const Tensor bt = randomTensor(n, k, rng);

                // The baseline every width and thread count must
                // reproduce: serial scalar lanes.
                kernels::KernelConfig base = serialConfig();
                base.simd = kernels::SimdMode::Off;
                kernels::setConfig(base);
                const Tensor c1 = ops::matmul(a, b);
                const Tensor ta1 = ops::matmulTransposeA(at, b);
                const Tensor tb1 = ops::matmulTransposeB(a, bt);

                for (kernels::SimdMode mode : sweepSimdModes()) {
                    // Oddball tiles change nothing but iteration
                    // shape.
                    kernels::KernelConfig tiny = parallelConfig(3);
                    tiny.tile_n = 16;
                    tiny.tile_k = 8;
                    for (kernels::KernelConfig cfg :
                         {serialConfig(), parallelConfig(), tiny}) {
                        cfg.simd = mode;
                        kernels::setConfig(cfg);
                        EXPECT_TRUE(
                            bitwiseEqual(c1, ops::matmul(a, b)))
                            << m << "x" << k << "x" << n << " simd="
                            << kernels::simdModeName(mode)
                            << " threads=" << cfg.threads;
                        EXPECT_TRUE(bitwiseEqual(
                            ta1, ops::matmulTransposeA(at, b)))
                            << m << "x" << k << "x" << n << " simd="
                            << kernels::simdModeName(mode)
                            << " threads=" << cfg.threads;
                        EXPECT_TRUE(bitwiseEqual(
                            tb1, ops::matmulTransposeB(a, bt)))
                            << m << "x" << k << "x" << n << " simd="
                            << kernels::simdModeName(mode)
                            << " threads=" << cfg.threads;
                    }
                }

                // And serial matches the naive i-k-j reference.
                EXPECT_TRUE(bitwiseEqual(c1, refMatmul(a, b)));
                EXPECT_TRUE(
                    bitwiseEqual(ta1, refMatmulTransposeA(at, b)));
                EXPECT_TRUE(
                    bitwiseEqual(tb1, refMatmulTransposeB(a, bt)));
            }
        }
    }
}

TEST_F(KernelsTest, GemmMicroKernelEdgesBitwise)
{
    // The wide micro-kernel runs 4-row x 2W blocks, then one 4 x W
    // block, then a scalar column tail, and leftover rows one at a
    // time. n in {8, 24, 40} with tile_n in {24, 40} leaves exactly
    // one W-vector after the 2W blocks at AVX2 width; m in {4, 5, 7}
    // hits the 1- and 3-row tails; k > tile_k makes every form
    // (A*B^T's transposed pack included) span several k-panels.
    util::Rng rng(29);
    for (std::size_t m : {4u, 5u, 7u}) {
        for (std::size_t n : {8u, 24u, 40u}) {
            for (std::size_t k : {1u, 9u, 33u}) {
                const Tensor a = randomTensor(m, k, rng);
                const Tensor b = randomTensor(k, n, rng);
                const Tensor at = randomTensor(k, m, rng);
                const Tensor bt = randomTensor(n, k, rng);

                kernels::KernelConfig base = serialConfig();
                base.simd = kernels::SimdMode::Off;
                kernels::setConfig(base);
                const Tensor c1 = ops::matmul(a, b);
                const Tensor ta1 = ops::matmulTransposeA(at, b);
                const Tensor tb1 = ops::matmulTransposeB(a, bt);
                ASSERT_TRUE(bitwiseEqual(c1, refMatmul(a, b)));
                ASSERT_TRUE(
                    bitwiseEqual(ta1, refMatmulTransposeA(at, b)));
                ASSERT_TRUE(
                    bitwiseEqual(tb1, refMatmulTransposeB(a, bt)));

                for (kernels::SimdMode mode :
                     {kernels::SimdMode::Off, kernels::SimdMode::Auto}) {
                    for (std::size_t threads : {1u, 4u}) {
                        for (std::size_t tile_n : {24u, 40u}) {
                            kernels::KernelConfig cfg =
                                threads == 1 ? serialConfig()
                                             : parallelConfig(threads);
                            cfg.simd = mode;
                            cfg.tile_n = tile_n;
                            cfg.tile_k = 8;
                            kernels::setConfig(cfg);
                            std::ostringstream where;
                            where << m << "x" << k << "x" << n
                                  << " simd="
                                  << kernels::simdModeName(mode)
                                  << " threads=" << threads
                                  << " tile_n=" << tile_n;
                            EXPECT_TRUE(
                                bitwiseEqual(c1, ops::matmul(a, b)))
                                << where.str();
                            EXPECT_TRUE(bitwiseEqual(
                                ta1, ops::matmulTransposeA(at, b)))
                                << where.str();
                            EXPECT_TRUE(bitwiseEqual(
                                tb1, ops::matmulTransposeB(a, bt)))
                                << where.str();
                        }
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, NegativeZeroRowsGivePositiveZeroInEveryMode)
{
    // Every C element sums from +0, so rows of -0 times a positive B
    // (products -0) must come out +0, never -0: the first k-panel
    // starts its accumulators at +0 rather than at the first product.
    const std::size_t m = 7, n = 40;
    for (std::size_t k : {1u, 9u}) {
        Tensor a = Tensor::zeros(m, k);
        Tensor at = Tensor::zeros(k, m);
        Tensor b = Tensor::zeros(k, n);
        Tensor bt = Tensor::zeros(n, k);
        std::fill(a.data(), a.data() + a.size(), -0.0f);
        std::fill(at.data(), at.data() + at.size(), -0.0f);
        std::fill(b.data(), b.data() + b.size(), 1.5f);
        std::fill(bt.data(), bt.data() + bt.size(), 1.5f);
        for (kernels::SimdMode mode : sweepSimdModes()) {
            for (std::size_t threads : {1u, 4u}) {
                kernels::KernelConfig cfg = threads == 1
                                                ? serialConfig()
                                                : parallelConfig(threads);
                cfg.simd = mode;
                cfg.tile_k = 8;
                kernels::setConfig(cfg);
                for (const Tensor &c :
                     {ops::matmul(a, b), ops::matmulTransposeA(at, b),
                      ops::matmulTransposeB(a, bt)}) {
                    for (std::size_t i = 0; i < c.size(); ++i) {
                        std::uint32_t bits = 1;
                        std::memcpy(&bits, c.data() + i, sizeof bits);
                        ASSERT_EQ(bits, 0u)
                            << "k=" << k << " simd="
                            << kernels::simdModeName(mode)
                            << " threads=" << threads << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, ElementwiseAndGatherBitwiseParallelVsSerial)
{
    util::Rng rng(11);
    for (std::size_t rows : {1u, 7u, 64u, 129u}) {
        const std::size_t cols = 33;
        const Tensor a = randomTensor(rows, cols, rng);
        const Tensor b = randomTensor(rows, cols, rng);
        const Tensor bias = randomTensor(1, cols, rng);
        std::vector<std::uint32_t> idx;
        for (std::size_t i = 0; i < 2 * rows; ++i)
            idx.push_back(
                static_cast<std::uint32_t>((i * 13) % rows));

        kernels::KernelConfig base = serialConfig();
        base.simd = kernels::SimdMode::Off;
        kernels::setConfig(base);
        const Tensor sums = ops::add(a, b);
        const Tensor relus = ops::relu(a);
        const Tensor sig = ops::sigmoid(a);
        const Tensor th = ops::tanh(a);
        const Tensor bc = ops::addRowBroadcast(a, bias);
        const Tensor csum = ops::columnSum(a);
        const Tensor cat = ops::concatColumns(a, b);
        const Tensor slice = ops::sliceColumns(a, 1, cols - 1);
        const Tensor gathered = ops::gatherRows(a, idx);
        Tensor scatter_serial = Tensor::zeros(rows, cols);
        ops::scatterAddRows(scatter_serial, gathered, idx);

        for (kernels::SimdMode mode : sweepSimdModes()) {
            for (kernels::KernelConfig cfg :
                 {serialConfig(), parallelConfig()}) {
                cfg.simd = mode;
                kernels::setConfig(cfg);
                const char *tag = kernels::simdModeName(mode);
                EXPECT_TRUE(bitwiseEqual(sums, ops::add(a, b)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(relus, ops::relu(a)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(sig, ops::sigmoid(a)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(th, ops::tanh(a))) << tag;
                EXPECT_TRUE(
                    bitwiseEqual(bc, ops::addRowBroadcast(a, bias)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(csum, ops::columnSum(a)))
                    << tag;
                EXPECT_TRUE(
                    bitwiseEqual(cat, ops::concatColumns(a, b)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(
                    slice, ops::sliceColumns(a, 1, cols - 1)))
                    << tag;
                const Tensor gathered_par = ops::gatherRows(a, idx);
                EXPECT_TRUE(bitwiseEqual(gathered, gathered_par))
                    << tag;
                // Duplicate indices: owner-partitioned scatter must
                // keep the serial input-ascending accumulation order
                // per output row.
                Tensor scatter_par = Tensor::zeros(rows, cols);
                ops::scatterAddRows(scatter_par, gathered_par, idx);
                EXPECT_TRUE(
                    bitwiseEqual(scatter_serial, scatter_par))
                    << tag;
            }
        }
    }
}

TEST_F(KernelsTest, AggregatorsBitwiseParallelVsSerial)
{
    const std::size_t dim = 24;
    for (const auto kind :
         {nn::AggregatorKind::Mean, nn::AggregatorKind::Gcn,
          nn::AggregatorKind::Pool, nn::AggregatorKind::Lstm}) {
        const std::vector<std::pair<std::size_t, std::size_t>>
            shapes = {{0, 1}, {1, 1}, {33, 3}, {130, 5}};
        for (const auto &[n, d] : shapes) {
            util::Rng data_rng(17);
            const Tensor feats =
                randomTensor(n * d, dim, data_rng);
            const Tensor grad = randomTensor(n, dim, data_rng);

            // Identical parameter init on both sides via a fixed
            // seed; ops inside fwd/bwd follow the active config.
            kernels::KernelConfig base = serialConfig();
            base.simd = kernels::SimdMode::Off;
            kernels::setConfig(base);
            util::Rng rng_a(23);
            auto agg_a =
                nn::makeAggregator(kind, "t", dim, rng_a);
            std::unique_ptr<nn::AggregatorCache> cache_a;
            const Tensor out_a =
                agg_a->forward(feats, n, d, cache_a);
            const Tensor gin_a = agg_a->backward(*cache_a, grad);
            EXPECT_EQ(out_a.rows(), n);
            EXPECT_EQ(gin_a.rows(), n * d);

            for (kernels::SimdMode mode : sweepSimdModes()) {
                for (kernels::KernelConfig cfg :
                     {serialConfig(), parallelConfig()}) {
                    cfg.simd = mode;
                    kernels::setConfig(cfg);
                    util::Rng rng_b(23);
                    auto agg_b =
                        nn::makeAggregator(kind, "t", dim, rng_b);
                    std::unique_ptr<nn::AggregatorCache> cache_b;
                    const Tensor out_b =
                        agg_b->forward(feats, n, d, cache_b);
                    const Tensor gin_b =
                        agg_b->backward(*cache_b, grad);

                    EXPECT_TRUE(bitwiseEqual(out_a, out_b))
                        << nn::aggregatorName(kind) << " fwd n=" << n
                        << " simd=" << kernels::simdModeName(mode)
                        << " threads=" << cfg.threads;
                    EXPECT_TRUE(bitwiseEqual(gin_a, gin_b))
                        << nn::aggregatorName(kind) << " bwd n=" << n
                        << " simd=" << kernels::simdModeName(mode)
                        << " threads=" << cfg.threads;
                }
            }
        }
    }
}

TEST_F(KernelsTest, ZeroTimesInfinityPropagatesNaN)
{
    // The old serial GEMM skipped a_ik == 0 inner loops, silently
    // turning 0 * inf into 0. The dense kernel must propagate NaN.
    const Tensor a = Tensor::zeros(1, 1);
    Tensor b = Tensor::zeros(1, 1);
    b.data()[0] = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(std::isnan(ops::matmul(a, b).data()[0]));
    EXPECT_TRUE(std::isnan(ops::matmulTransposeA(a, b).data()[0]));
    EXPECT_TRUE(std::isnan(ops::matmulTransposeB(a, b).data()[0]));
    Tensor nan_b = Tensor::zeros(1, 1);
    nan_b.data()[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(ops::matmul(a, nan_b).data()[0]));
}

TEST_F(KernelsTest, UninitializedOutputsAreFullyOverwritten)
{
    // All-zero inputs must give exactly-zero outputs even though the
    // result buffers start uninitialized.
    const Tensor a = Tensor::zeros(65, 33);
    const Tensor b = Tensor::zeros(33, 17);
    kernels::setConfig(parallelConfig());
    const Tensor c = ops::matmul(a, b);
    for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c.data()[i], 0.0f);
    const Tensor s = ops::scale(a, 3.0f);
    for (std::size_t i = 0; i < s.size(); ++i)
        ASSERT_EQ(s.data()[i], 0.0f);

    // The raw row kernels write C without a zero-fill pass when
    // k > 0 (the first k-panel starts at +0), so every owned element
    // must be written for k = 0, one panel, and a partial second
    // panel, in every form. C starts NaN-poisoned.
    const std::size_t m = 7, n = 40, tile_k = 8;
    for (kernels::SimdMode mode : sweepSimdModes()) {
        kernels::KernelConfig cfg = serialConfig();
        cfg.simd = mode;
        cfg.tile_k = tile_k;
        kernels::setConfig(cfg);
        for (std::size_t k : {std::size_t{0}, std::size_t{1},
                              tile_k + 1}) {
            const std::vector<float> za(m * k, 0.0f);
            const std::vector<float> zb(k * n, 0.0f);
            for (int form = 0; form < 3; ++form) {
                std::vector<float> out(
                    m * n, std::numeric_limits<float>::quiet_NaN());
                if (form == 0)
                    kernels::gemmRows(za.data(), zb.data(), out.data(),
                                      0, m, k, n);
                else if (form == 1)
                    kernels::gemmTransposeARows(za.data(), zb.data(),
                                                out.data(), 0, m, k, m,
                                                n);
                else
                    kernels::gemmTransposeBRows(za.data(), zb.data(),
                                                out.data(), 0, m, k, n);
                for (std::size_t i = 0; i < out.size(); ++i)
                    ASSERT_EQ(out[i], 0.0f)
                        << "form=" << form << " k=" << k << " simd="
                        << kernels::simdModeName(mode) << " i=" << i;
            }
        }
    }
}

TEST_F(KernelsTest, NestedInvocationStaysSerial)
{
    kernels::setConfig(parallelConfig());
    util::Rng rng(3);
    const Tensor a = randomTensor(64, 64, rng);
    const Tensor b = randomTensor(64, 64, rng);
    auto &parallel_ops = obs::metrics().counter(
        obs::names::kCtrKernelsParallelOps);
    auto &serial_ops =
        obs::metrics().counter(obs::names::kCtrKernelsSerialOps);

    // From the main thread this shape dispatches in parallel...
    const std::uint64_t par0 = parallel_ops.value();
    ops::matmul(a, b);
    EXPECT_GT(parallel_ops.value(), par0);

    // ...but from inside any pool task it must stay serial (the
    // compute layer composes with the prefetch pipeline instead of
    // oversubscribing it).
    util::ThreadPool pool(2);
    const std::uint64_t par1 = parallel_ops.value();
    const std::uint64_t ser1 = serial_ops.value();
    util::ParallelForOptions opts;
    opts.grain = 1;
    Tensor results[2];
    pool.parallelFor(0, 2, opts, [&](std::size_t i) {
        results[i] = ops::matmul(a, b);
    });
    EXPECT_EQ(parallel_ops.value(), par1);
    EXPECT_GE(serial_ops.value(), ser1 + 2);
    EXPECT_TRUE(bitwiseEqual(results[0], results[1]));
}

TEST_F(KernelsTest, OpTimerRecordsExactCallAndByteCounts)
{
    auto &calls =
        obs::metrics().counter(obs::names::kCtrKernelsGemmCalls);
    auto &bytes =
        obs::metrics().counter(obs::names::kCtrKernelsGemmBytes);
    auto &flops =
        obs::metrics().counter(obs::names::kCtrKernelsGemmFlops);
    const std::uint64_t c0 = calls.value();
    const std::uint64_t b0 = bytes.value();
    const std::uint64_t f0 = flops.value();
    util::Rng rng(5);
    const Tensor a = randomTensor(8, 16, rng);
    const Tensor b = randomTensor(16, 4, rng);
    ops::matmul(a, b);
    EXPECT_EQ(calls.value(), c0 + 1);
    EXPECT_EQ(bytes.value(),
              b0 + (8 * 16 + 16 * 4 + 8 * 4) * sizeof(float));
    EXPECT_EQ(flops.value(), f0 + 2ull * 8 * 16 * 4);
}

TEST_F(KernelsTest, ConfigSanitizesDegenerateTiles)
{
    kernels::KernelConfig cfg;
    cfg.tile_n = 0;
    cfg.tile_k = 0;
    cfg.min_rows_per_task = 0;
    cfg.threads = 4;
    kernels::setConfig(cfg);
    EXPECT_EQ(kernels::config().tile_n, 1u);
    EXPECT_EQ(kernels::config().tile_k, 1u);
    EXPECT_EQ(kernels::config().min_rows_per_task, 1u);
    EXPECT_EQ(kernels::effectiveThreads(), 4u);
}

TEST_F(KernelsTest, GrainPolicyKeepsMicroBucketsSerial)
{
    // Default min_parallel_work (32k scalar ops) must leave a
    // micro-bucket-sized GEMM on the calling thread.
    kernels::KernelConfig cfg;
    cfg.threads = 4;
    kernels::setConfig(cfg);
    auto &parallel_ops = obs::metrics().counter(
        obs::names::kCtrKernelsParallelOps);
    util::Rng rng(9);
    const Tensor a = randomTensor(4, 8, rng);
    const Tensor b = randomTensor(8, 4, rng);
    const std::uint64_t par0 = parallel_ops.value();
    ops::matmul(a, b); // 128 scalar ops — far below the grain
    EXPECT_EQ(parallel_ops.value(), par0);
}

TEST_F(KernelsTest, SimdQueriesReflectActiveMode)
{
    kernels::KernelConfig off;
    off.simd = kernels::SimdMode::Off;
    kernels::setConfig(off);
    EXPECT_EQ(kernels::simdWidth(), 1u);

    kernels::setConfig({}); // Auto
    if (kernels::simdAvailable()) {
        EXPECT_GT(kernels::simdWidth(), 1u);
        EXPECT_STRNE(kernels::simdIsaName(), "scalar");
    } else {
        EXPECT_EQ(kernels::simdWidth(), 1u);
    }

    EXPECT_EQ(kernels::simdModeFromName("auto"),
              kernels::SimdMode::Auto);
    EXPECT_EQ(kernels::simdModeFromName("off"),
              kernels::SimdMode::Off);
    EXPECT_EQ(kernels::simdModeFromName("on"),
              kernels::SimdMode::On);
    EXPECT_THROW(kernels::simdModeFromName("wide"),
                 InvalidArgument);
    EXPECT_STREQ(kernels::simdModeName(kernels::SimdMode::Off),
                 "off");
    EXPECT_STREQ(kernels::simdModeName(kernels::SimdMode::Auto),
                 "auto");
}

TEST_F(KernelsTest, FusedAggregateKernelsMatchScalarComposition)
{
    // The fused gather->reduce->scatter entry points against plain
    // scalar references written with the exact same expression
    // forms, across every SIMD mode x thread count.
    const std::size_t n = 67, d = 3, dim = 21;
    util::Rng rng(29);
    const Tensor x = randomTensor(n * d, dim, rng);
    const Tensor grad = randomTensor(n, dim, rng);
    std::vector<std::uint32_t> gather(n * d);
    std::vector<std::uint32_t> out_rows(n);
    for (std::size_t i = 0; i < n * d; ++i)
        gather[i] = static_cast<std::uint32_t>((i * 29) % (n * d));
    for (std::size_t i = 0; i < n; ++i)
        out_rows[i] = static_cast<std::uint32_t>((i * 31) % n);
    const float norm = 1.0f / static_cast<float>(d);

    // References: t-ascending accumulate, then scale (sum-scale);
    // two-rounding multiply-accumulate (scaled-add / scatter).
    Tensor ref_sum = Tensor::zeros(n, dim);
    Tensor ref_add = Tensor::zeros(n, dim);
    Tensor ref_scatter = Tensor::zeros(n * d, dim);
    for (std::size_t i = 0; i < n; ++i) {
        float *sum_row = ref_sum.data() + out_rows[i] * dim;
        float *add_row = ref_add.data() + out_rows[i] * dim;
        std::memset(sum_row, 0, dim * sizeof(float));
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j)
                sum_row[j] += src[j];
        }
        for (std::size_t j = 0; j < dim; ++j)
            sum_row[j] *= norm;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j)
                add_row[j] += src[j] * norm;
        }
        const float *grow = grad.data() + out_rows[i] * dim;
        for (std::size_t t = 0; t < d; ++t) {
            float *dst =
                ref_scatter.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j) {
                const float g = grow[j] * norm;
                dst[j] += g;
            }
        }
    }
    // The scaled-add reference accumulated in out_rows order per i;
    // fusedGatherScaledAdd also walks i ascending with dst[out_rows]
    // — out_rows here is a permutation, so each output row is built
    // by exactly one i on both sides.

    for (kernels::SimdMode mode : sweepSimdModes()) {
        for (kernels::KernelConfig cfg :
             {serialConfig(), parallelConfig()}) {
            cfg.simd = mode;
            kernels::setConfig(cfg);
            const char *tag = kernels::simdModeName(mode);

            Tensor out_sum = Tensor::zeros(n, dim);
            kernels::fusedGatherSumScale(x.data(), gather.data(),
                                         out_rows.data(), n, d, dim,
                                         norm, out_sum.data());
            EXPECT_TRUE(bitwiseEqual(ref_sum, out_sum)) << tag;

            Tensor out_add = Tensor::zeros(n, dim);
            kernels::fusedGatherScaledAdd(x.data(), gather.data(),
                                          out_rows.data(), n, d,
                                          dim, norm,
                                          out_add.data());
            EXPECT_TRUE(bitwiseEqual(ref_add, out_add)) << tag;

            Tensor out_scatter = Tensor::zeros(n * d, dim);
            kernels::fusedScatterScaledAdd(
                grad.data(), out_rows.data(), gather.data(), n, d,
                dim, norm, out_scatter.data(), n * d);
            EXPECT_TRUE(bitwiseEqual(ref_scatter, out_scatter))
                << tag;
        }
    }
}

/** Every float of a step's cache, gates first. */
std::vector<const Tensor *>
cacheTensors(const nn::LstmCell::StepCache &cache)
{
    return {&cache.i, &cache.f, &cache.g, &cache.o, &cache.c,
            &cache.tanh_c};
}

TEST_F(KernelsTest, LstmFusedCellMatchesComposition)
{
    // The fused step and backward against the ops::* composition
    // (computed once, scalar and serial), at every SIMD mode x thread
    // count; odd h values leave a partial last lane group.
    for (std::size_t h : {1u, 4u, 13u, 32u, 64u}) {
        for (std::size_t n : {0u, 1u, 33u, 130u}) {
            util::Rng rng(31 + h * 7 + n);
            util::Rng weight_rng(5);
            nn::LstmCell cell("c", h, h, weight_rng);
            const auto params = cell.parameters();
            const testing::LstmWeights w{params[0]->value(),
                                         params[1]->value(),
                                         params[2]->value()};
            const Tensor x = randomTensor(n, h, rng);
            const Tensor h_prev = randomTensor(n, h, rng);
            const Tensor c_prev = randomTensor(n, h, rng);
            const Tensor dh = randomTensor(n, h, rng);
            const Tensor dc = randomTensor(n, h, rng);

            kernels::KernelConfig base = serialConfig();
            base.simd = kernels::SimdMode::Off;
            kernels::setConfig(base);
            nn::LstmCell::StepCache ref_cache;
            const auto [ref_h, ref_c] = testing::lstmCompositionStep(
                w, x, h_prev, c_prev, ref_cache);
            const testing::LstmCompositionGrads ref =
                testing::lstmCompositionBackward(w, ref_cache, dh, dc);

            for (kernels::SimdMode mode :
                 {kernels::SimdMode::Off, kernels::SimdMode::Auto}) {
                for (kernels::KernelConfig cfg :
                     {serialConfig(), parallelConfig()}) {
                    cfg.simd = mode;
                    kernels::setConfig(cfg);
                    std::ostringstream tag;
                    tag << "h=" << h << " n=" << n << " simd="
                        << kernels::simdModeName(mode)
                        << " threads=" << cfg.threads;
                    nn::LstmCell::StepCache cache;
                    const auto [out_h, out_c] =
                        cell.step(x, h_prev, c_prev, cache);
                    EXPECT_TRUE(bitwiseEqual(ref_h, out_h)) << tag.str();
                    EXPECT_TRUE(bitwiseEqual(ref_c, out_c)) << tag.str();
                    const auto ref_parts = cacheTensors(ref_cache);
                    const auto parts = cacheTensors(cache);
                    for (std::size_t k = 0; k < parts.size(); ++k)
                        EXPECT_TRUE(
                            bitwiseEqual(*ref_parts[k], *parts[k]))
                            << tag.str() << " cache field " << k;

                    for (bool need_prev : {true, false}) {
                        cell.zeroGrad();
                        const auto grads =
                            cell.stepBackward(cache, dh, dc, need_prev);
                        EXPECT_TRUE(bitwiseEqual(ref.dx, grads.dx))
                            << tag.str();
                        EXPECT_TRUE(
                            bitwiseEqual(ref.dwx, params[0]->grad()))
                            << tag.str();
                        EXPECT_TRUE(
                            bitwiseEqual(ref.dwh, params[1]->grad()))
                            << tag.str();
                        EXPECT_TRUE(
                            bitwiseEqual(ref.db, params[2]->grad()))
                            << tag.str();
                        if (need_prev) {
                            EXPECT_TRUE(bitwiseEqual(ref.dh_prev,
                                                     grads.dh_prev))
                                << tag.str();
                            EXPECT_TRUE(bitwiseEqual(ref.dc_prev,
                                                     grads.dc_prev))
                                << tag.str();
                        } else {
                            EXPECT_TRUE(grads.dh_prev.empty());
                            EXPECT_TRUE(grads.dc_prev.empty());
                        }
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, LstmStepElementwiseAndGemmCallCounts)
{
    // One fused elementwise op per forward step; per backward step the
    // fused op, the bias column sum and three gradient accumulations.
    // The first step (need_prev false) skips the dh_prev GEMM.
    auto &ew_calls =
        obs::metrics().counter(obs::names::kCtrKernelsElementwiseCalls);
    auto &gemm_calls =
        obs::metrics().counter(obs::names::kCtrKernelsGemmCalls);
    util::Rng rng(3);
    nn::LstmCell cell("c", 8, 6, rng);
    const Tensor x = randomTensor(5, 8, rng);
    const Tensor h0 = Tensor::zeros(5, 6);
    const Tensor c0 = Tensor::zeros(5, 6);
    nn::LstmCell::StepCache cache;

    std::uint64_t ew0 = ew_calls.value(), gemm0 = gemm_calls.value();
    cell.step(x, h0, c0, cache);
    EXPECT_EQ(ew_calls.value() - ew0, 1u);
    EXPECT_EQ(gemm_calls.value() - gemm0, 2u);

    const Tensor dh = randomTensor(5, 6, rng);
    for (bool need_prev : {true, false}) {
        ew0 = ew_calls.value();
        gemm0 = gemm_calls.value();
        cell.stepBackward(cache, dh, c0, need_prev);
        EXPECT_EQ(ew_calls.value() - ew0, 5u);
        EXPECT_EQ(gemm_calls.value() - gemm0, need_prev ? 4u : 3u);
    }
}

/** Distance from @p got to @p want in units of float spacing at want. */
double
ulpError(float got, double want)
{
    if (want == 0.0)
        return got == 0.0f ? 0.0 : std::numeric_limits<double>::max();
    int exponent = 0;
    std::frexp(want, &exponent);
    return std::abs(static_cast<double>(got) - want) /
           std::ldexp(1.0, exponent - 24);
}

TEST_F(KernelsTest, ActivationsWithinThreeUlpOfDoubleReference)
{
    // A uniform grid over [-30, 30] plus a geometric sweep through the
    // small-|x| range of tanh's polynomial branch.
    std::vector<float> xs;
    for (int k = -600000; k <= 600000; ++k)
        xs.push_back(static_cast<float>(k) * 5e-5f);
    for (double mag = 1e-8; mag < 1.0; mag *= 1.0001) {
        xs.push_back(static_cast<float>(mag));
        xs.push_back(static_cast<float>(-mag));
    }
    const Tensor x = Tensor::fromValues(1, xs.size(), xs);
    for (kernels::SimdMode mode :
         {kernels::SimdMode::Off, kernels::SimdMode::Auto}) {
        kernels::KernelConfig cfg;
        cfg.simd = mode;
        kernels::setConfig(cfg);
        const Tensor sig = ops::sigmoid(x);
        const Tensor th = ops::tanh(x);
        double worst_sig = 0.0, worst_tanh = 0.0;
        float at_sig = 0.0f, at_tanh = 0.0f;
        for (std::size_t k = 0; k < xs.size(); ++k) {
            const double v = xs[k];
            const double e_sig =
                ulpError(sig.data()[k], 1.0 / (1.0 + std::exp(-v)));
            const double e_tanh = ulpError(th.data()[k], std::tanh(v));
            if (e_sig > worst_sig) {
                worst_sig = e_sig;
                at_sig = xs[k];
            }
            if (e_tanh > worst_tanh) {
                worst_tanh = e_tanh;
                at_tanh = xs[k];
            }
        }
        EXPECT_LE(worst_sig, 3.0)
            << "sigmoid at x=" << at_sig << " simd="
            << kernels::simdModeName(mode);
        EXPECT_LE(worst_tanh, 3.0)
            << "tanh at x=" << at_tanh << " simd="
            << kernels::simdModeName(mode);
    }
}

float
fromBits(std::uint32_t bits)
{
    float out = 0.0f;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

std::uint32_t
toBits(float value)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST_F(KernelsTest, ActivationSpecialValuesBitwiseAcrossLanes)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float max = std::numeric_limits<float>::max();
    const float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> xs = {
        0.0f, -0.0f, inf, -inf,
        std::numeric_limits<float>::quiet_NaN(),
        fromBits(0xffc00001u),      // negative NaN with a payload
        fromBits(0x7fa00000u),      // signaling NaN
        denorm, -denorm, fromBits(0x007fffffu), -fromBits(0x007fffffu),
        std::numeric_limits<float>::min(), max, -max,
        // exp's clamp edges reach sigmoid at -x and tanh at 2|x|.
        104.0f, -104.0f, 89.0f, -89.0f, 88.72f, -88.72f, 87.0f,
        -87.0f, 44.5f, -44.5f, 52.0f, -52.0f, 9.01f, -9.01f,
        // tanh's branch point.
        0.625f, -0.625f, std::nextafter(0.625f, 0.0f),
        std::nextafter(0.625f, 1.0f), std::nextafter(-0.625f, 0.0f),
        1e-30f, -1e-30f, 1e-4f, -1e-4f, 0.5f, 17.0f, -17.0f};
    // Repeat at every offset so each value lands in a full lane group
    // and in the partial last group.
    std::vector<float> all;
    for (std::size_t shift = 0; shift < 9; ++shift) {
        all.insert(all.end(), xs.begin() + shift % xs.size(), xs.end());
        all.insert(all.end(), xs.begin(),
                   xs.begin() + shift % xs.size());
    }
    all.resize(all.size() - 3);
    const Tensor x = Tensor::fromValues(1, all.size(), all);

    kernels::KernelConfig off = serialConfig();
    off.simd = kernels::SimdMode::Off;
    kernels::setConfig(off);
    const Tensor sig = ops::sigmoid(x);
    const Tensor th = ops::tanh(x);
    kernels::setConfig(serialConfig()); // Auto: wide when available
    EXPECT_TRUE(bitwiseEqual(sig, ops::sigmoid(x)));
    EXPECT_TRUE(bitwiseEqual(th, ops::tanh(x)));

    // Limits and signs, not just agreement.
    const Tensor s = ops::sigmoid(
        Tensor::fromValues(1, 4, {inf, -inf, 0.0f, -0.0f}));
    EXPECT_EQ(s.data()[0], 1.0f);
    EXPECT_EQ(toBits(s.data()[1]), toBits(0.0f));
    EXPECT_EQ(s.data()[2], 0.5f);
    EXPECT_EQ(s.data()[3], 0.5f);
    const Tensor t = ops::tanh(
        Tensor::fromValues(1, 4, {inf, -inf, 0.0f, -0.0f}));
    EXPECT_EQ(t.data()[0], 1.0f);
    EXPECT_EQ(t.data()[1], -1.0f);
    EXPECT_EQ(toBits(t.data()[2]), toBits(0.0f));
    EXPECT_EQ(toBits(t.data()[3]), toBits(-0.0f));
    const Tensor nan = Tensor::fromValues(
        1, 1, {std::numeric_limits<float>::quiet_NaN()});
    EXPECT_TRUE(std::isnan(ops::sigmoid(nan).data()[0]));
    EXPECT_TRUE(std::isnan(ops::tanh(nan).data()[0]));
}

} // namespace
} // namespace buffalo::tensor
