/**
 * @file
 * Wide-ISA implementations of the kernel layer (declared in
 * tensor/kernels_wide.h). This is the only translation unit that
 * sees the wide VecF of tensor/simd.h: CMake compiles it with the
 * target ISA flags (-mavx2 -ffp-contract=off on x86-64 when
 * BUFFALO_SIMD=ON), and without BUFFALO_SIMD_ENABLED it degrades to
 * the scalar VecF lane so the symbols always exist.
 *
 * Bitwise contract with the scalar kernels in kernels.cpp: lanes map
 * only to independent output elements (GEMM j-columns, elementwise
 * indices, aggregator feature columns); each element's contributions
 * accumulate in the serial order (k-ascending, t-ascending); every
 * multiply-accumulate rounds the multiply and the add separately
 * (simd.h mulAdd — never an FMA). The kernels_test.cpp memcmp sweeps
 * compare this path against the scalar path at every width × thread
 * count.
 *
 * All three GEMM forms pack the current B tile into a contiguous
 * panel (tile_k x tile_n floats, thread_local storage; A*B^T packs
 * the tile of B^T) and run one register-blocked micro-kernel over it,
 * so it streams unit-stride vector loads regardless of n; packing
 * copies bits untouched, so it cannot perturb results.
 */
#include "tensor/kernels_wide.h"

#include <algorithm>
#include <vector>

#include "tensor/lane_kernels.h"
#include "tensor/simd.h"

namespace buffalo::tensor::kernels::wide {

namespace {

namespace s = buffalo::tensor::simd;

constexpr std::size_t W = s::kWidth;

/** Per-thread panel storage: parallelRows tasks never share threads'
 *  packing buffers, and serial callers reuse one allocation. */
std::vector<float> &
packBuffer()
{
    thread_local std::vector<float> buffer;
    return buffer;
}

/**
 * Packs B rows [kp, kend) x columns [jp, jend) into a contiguous
 * (kend-kp) x (jend-jp) panel.
 */
float *
packPanel(const float *b, std::size_t n, std::size_t kp,
          std::size_t kend, std::size_t jp, std::size_t jend)
{
    std::vector<float> &store = packBuffer();
    const std::size_t tw = jend - jp;
    store.resize((kend - kp) * tw);
    float *panel = store.data();
    for (std::size_t kk = kp; kk < kend; ++kk)
        std::copy(b + kk * n + jp, b + kk * n + jend,
                  panel + (kk - kp) * tw);
    return panel;
}

/**
 * The same tile of B^T for B stored n x k (A*B^T): writes
 * panel[kk - kp][j - jp] = b[j][kk], so the micro-kernel reads it
 * exactly like a packPanel of the materialised transpose.
 */
float *
packPanelTransposed(const float *b, std::size_t k, std::size_t kp,
                    std::size_t kend, std::size_t jp, std::size_t jend)
{
    std::vector<float> &store = packBuffer();
    const std::size_t tw = jend - jp;
    store.resize((kend - kp) * tw);
    float *panel = store.data();
    for (std::size_t j = jp; j < jend; ++j) {
        const float *brow = b + j * k;
        for (std::size_t kk = kp; kk < kend; ++kk)
            panel[(kk - kp) * tw + (j - jp)] = brow[kk];
    }
    return panel;
}

/** A as the micro-kernel reads it: element (row, kk) sits at
 *  data[row * row_stride + kk * k_stride] — row-major A (A*B,
 *  A*B^T) has strides (k, 1), column-major A (A^T*B) has (1, m). */
struct AView
{
    const float *data;
    std::size_t row_stride;
    std::size_t k_stride;
};

/**
 * The one GEMM micro-kernel: rows [r0, r1) of C against the packed
 * panel that holds B rows [kp, kend) x columns [jp, jend). Blocks of
 * 4 rows x 2W columns keep 8 accumulators live, so each A broadcast
 * feeds two panel vectors; 4 x W and a scalar column tail finish the
 * tile, and leftover rows run one at a time. Each C element is
 * accumulated in a register over the panel's kk (k-ascending) and
 * stored once per tile. On the first k-panel the accumulators start
 * at +0 rather than loading C, so C needs no zero-fill; later panels
 * load the partial sum. Either way every element sums k-ascending
 * from +0, the serial per-element order for any tiling.
 *
 * Kept out of line: one body with runtime A strides serves all three
 * forms. Inlined into a caller, GCC spilled the kk counter of the
 * column-major instance to the stack (A^T*B at ~40 instead of ~52
 * GFLOP/s on AVX2).
 */
[[gnu::noinline]] void
tileMicroKernel(AView a, const float *panel, float *c, std::size_t r0,
                std::size_t r1, std::size_t n, std::size_t kp,
                std::size_t kend, std::size_t jp, std::size_t jend)
{
    const std::size_t tw = jend - jp;
    const std::size_t kd = kend - kp;
    const std::size_t rs = a.row_stride;
    const std::size_t ks = a.k_stride;
    const bool first = kp == 0;
    const auto start = [first](const float *p) {
        return first ? s::zero() : s::load(p);
    };
    const auto startScalar = [first](const float *p) {
        return first ? 0.0f : *p;
    };
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
        const float *a0 = a.data + i * rs + kp * ks;
        float *c0 = c + (i + 0) * n + jp;
        float *c1 = c + (i + 1) * n + jp;
        float *c2 = c + (i + 2) * n + jp;
        float *c3 = c + (i + 3) * n + jp;
        std::size_t j = 0;
        for (; j + 2 * W <= tw; j += 2 * W) {
            s::VecF acc00 = start(c0 + j), acc01 = start(c0 + j + W);
            s::VecF acc10 = start(c1 + j), acc11 = start(c1 + j + W);
            s::VecF acc20 = start(c2 + j), acc21 = start(c2 + j + W);
            s::VecF acc30 = start(c3 + j), acc31 = start(c3 + j + W);
            const float *ak = a0;
            const float *prow = panel + j;
            for (std::size_t kk = 0; kk < kd;
                 ++kk, ak += ks, prow += tw) {
                const s::VecF b0 = s::load(prow);
                const s::VecF b1 = s::load(prow + W);
                s::VecF av = s::broadcast(ak[0]);
                acc00 = s::mulAdd(av, b0, acc00);
                acc01 = s::mulAdd(av, b1, acc01);
                av = s::broadcast(ak[rs]);
                acc10 = s::mulAdd(av, b0, acc10);
                acc11 = s::mulAdd(av, b1, acc11);
                av = s::broadcast(ak[2 * rs]);
                acc20 = s::mulAdd(av, b0, acc20);
                acc21 = s::mulAdd(av, b1, acc21);
                av = s::broadcast(ak[3 * rs]);
                acc30 = s::mulAdd(av, b0, acc30);
                acc31 = s::mulAdd(av, b1, acc31);
            }
            s::store(c0 + j, acc00);
            s::store(c0 + j + W, acc01);
            s::store(c1 + j, acc10);
            s::store(c1 + j + W, acc11);
            s::store(c2 + j, acc20);
            s::store(c2 + j + W, acc21);
            s::store(c3 + j, acc30);
            s::store(c3 + j + W, acc31);
        }
        for (; j + W <= tw; j += W) {
            s::VecF acc0 = start(c0 + j);
            s::VecF acc1 = start(c1 + j);
            s::VecF acc2 = start(c2 + j);
            s::VecF acc3 = start(c3 + j);
            const float *ak = a0;
            const float *prow = panel + j;
            for (std::size_t kk = 0; kk < kd;
                 ++kk, ak += ks, prow += tw) {
                const s::VecF bv = s::load(prow);
                acc0 = s::mulAdd(s::broadcast(ak[0]), bv, acc0);
                acc1 = s::mulAdd(s::broadcast(ak[rs]), bv, acc1);
                acc2 = s::mulAdd(s::broadcast(ak[2 * rs]), bv, acc2);
                acc3 = s::mulAdd(s::broadcast(ak[3 * rs]), bv, acc3);
            }
            s::store(c0 + j, acc0);
            s::store(c1 + j, acc1);
            s::store(c2 + j, acc2);
            s::store(c3 + j, acc3);
        }
        for (; j < tw; ++j) {
            float s0 = startScalar(c0 + j), s1 = startScalar(c1 + j);
            float s2 = startScalar(c2 + j), s3 = startScalar(c3 + j);
            const float *ak = a0;
            for (std::size_t kk = 0; kk < kd; ++kk, ak += ks) {
                const float bv = panel[kk * tw + j];
                s0 += ak[0] * bv;
                s1 += ak[rs] * bv;
                s2 += ak[2 * rs] * bv;
                s3 += ak[3 * rs] * bv;
            }
            c0[j] = s0;
            c1[j] = s1;
            c2[j] = s2;
            c3[j] = s3;
        }
    }
    for (; i < r1; ++i) {
        const float *a0 = a.data + i * rs + kp * ks;
        float *crow = c + i * n + jp;
        std::size_t j = 0;
        for (; j + W <= tw; j += W) {
            s::VecF acc = start(crow + j);
            const float *ak = a0;
            for (std::size_t kk = 0; kk < kd; ++kk, ak += ks)
                acc = s::mulAdd(s::broadcast(*ak),
                                s::load(panel + kk * tw + j), acc);
            s::store(crow + j, acc);
        }
        for (; j < tw; ++j) {
            float sum = startScalar(crow + j);
            const float *ak = a0;
            for (std::size_t kk = 0; kk < kd; ++kk, ak += ks)
                sum += *ak * panel[kk * tw + j];
            crow[j] = sum;
        }
    }
}

/**
 * The one tiled GEMM loop: k-panel outer, j-tile inner, pack the
 * (tile_k x tile_n) B tile with @p pack(kp, kend, jp, jend), then
 * run the micro-kernel over all owned rows. Only k == 0 needs an
 * explicit zero-fill; otherwise the first panel writes every owned
 * C element.
 */
template <typename Pack>
void
tiledGemm(Pack pack, AView a, float *c, std::size_t r0, std::size_t r1,
          std::size_t k, std::size_t n, std::size_t tile_k,
          std::size_t tile_n)
{
    if (k == 0) {
        std::fill(c + r0 * n, c + r1 * n, 0.0f);
        return;
    }
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            tileMicroKernel(a, pack(kp, kend, jp, jend), c, r0, r1, n,
                            kp, kend, jp, jend);
        }
    }
}

} // namespace

bool
available()
{
#if defined(BUFFALO_SIMD_AVX2)
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    return supported;
#elif defined(BUFFALO_SIMD_NEON)
    return true;
#else
    return false;
#endif
}

std::size_t
width()
{
    return W;
}

const char *
isaName()
{
    return s::isaName();
}

float
hsumTree(const float *lanes, std::size_t n)
{
    float scratch[64];
    std::copy(lanes, lanes + n, scratch);
    while (n > 1) {
        n /= 2;
        for (std::size_t i = 0; i < n; ++i)
            scratch[i] = scratch[i] + scratch[i + n];
    }
    return scratch[0];
}

void
gemmRows(const float *a, const float *b, float *c, std::size_t r0,
         std::size_t r1, std::size_t k, std::size_t n,
         std::size_t tile_k, std::size_t tile_n)
{
    tiledGemm(
        [b, n](std::size_t kp, std::size_t kend, std::size_t jp,
               std::size_t jend) {
            return packPanel(b, n, kp, kend, jp, jend);
        },
        AView{a, k, 1}, c, r0, r1, k, n, tile_k, tile_n);
}

void
gemmTransposeARows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t m, std::size_t n, std::size_t tile_k,
                   std::size_t tile_n)
{
    tiledGemm(
        [b, n](std::size_t kp, std::size_t kend, std::size_t jp,
               std::size_t jend) {
            return packPanel(b, n, kp, kend, jp, jend);
        },
        // C row i is A column i: a[kk*m + i].
        AView{a, 1, m}, c, r0, r1, k, n, tile_k, tile_n);
}

void
gemmTransposeBRows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t n, std::size_t tile_k,
                   std::size_t tile_n)
{
    tiledGemm(
        [b, k](std::size_t kp, std::size_t kend, std::size_t jp,
               std::size_t jend) {
            return packPanelTransposed(b, k, kp, kend, jp, jend);
        },
        AView{a, k, 1}, c, r0, r1, k, n, tile_k, tile_n);
}

void
ewAdd(const float *a, const float *b, float *c, std::size_t lo,
      std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::add(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] + b[i];
}

void
ewSubtract(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::sub(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] - b[i];
}

void
ewMultiply(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::mul(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] * b[i];
}

void
ewScale(const float *a, float sc, float *c, std::size_t lo,
        std::size_t hi)
{
    const s::VecF sv = s::broadcast(sc);
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::mul(s::load(a + i), sv));
    for (; i < hi; ++i)
        c[i] = a[i] * sc;
}

void
ewAddInPlace(float *a, const float *b, std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(a + i, s::add(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        a[i] += b[i];
}

void
ewScaleInPlace(float *a, float sc, std::size_t lo, std::size_t hi)
{
    const s::VecF sv = s::broadcast(sc);
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(a + i, s::mul(s::load(a + i), sv));
    for (; i < hi; ++i)
        a[i] *= sc;
}

void
ewRelu(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W) {
        const s::VecF x = s::load(a + i);
        s::store(c + i, s::selectGtZero(x, x));
    }
    for (; i < hi; ++i)
        c[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void
ewReluBackward(const float *grad, const float *pre, float *c,
               std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i,
                 s::selectGtZero(s::load(pre + i), s::load(grad + i)));
    for (; i < hi; ++i)
        c[i] = pre[i] > 0.0f ? grad[i] : 0.0f;
}

void
ewAddRowBroadcast(const float *a, const float *bias, float *c,
                  std::size_t r0, std::size_t r1, std::size_t n)
{
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * n;
        float *crow = c + i * n;
        std::size_t j = 0;
        for (; j + W <= n; j += W)
            s::store(crow + j,
                     s::add(s::load(arow + j), s::load(bias + j)));
        for (; j < n; ++j)
            crow[j] = arow[j] + bias[j];
    }
}

void
ewColumnSum(const float *a, float *c, std::size_t rows, std::size_t n,
            std::size_t c0, std::size_t c1)
{
    // Columns are independent; each accumulates row-ascending in its
    // own lane, like the serial i-j loop.
    std::size_t j = c0;
    for (; j + W <= c1; j += W) {
        s::VecF acc = s::zero();
        for (std::size_t i = 0; i < rows; ++i)
            acc = s::add(acc, s::load(a + i * n + j));
        s::store(c + j, acc);
    }
    for (; j < c1; ++j) {
        float sum = 0.0f;
        for (std::size_t i = 0; i < rows; ++i)
            sum += a[i * n + j];
        c[j] = sum;
    }
}

void
ewSigmoid(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    s::sigmoidRange(a, c, lo, hi);
}

void
ewTanh(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    s::tanhRange(a, c, lo, hi);
}

void
lstmStepRows(const LstmStepArgs &args, std::size_t r0, std::size_t r1)
{
    s::lstmStepRows(args, r0, r1);
}

void
lstmBackwardRows(const LstmBackwardArgs &args, std::size_t r0,
                 std::size_t r1)
{
    s::lstmBackwardRows(args, r0, r1);
}

void
fusedGatherSumScaleRows(const float *x, const std::uint32_t *gather,
                        const std::uint32_t *out_rows, std::size_t v0,
                        std::size_t v1, std::size_t d, std::size_t dim,
                        float norm, float *out)
{
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        std::fill(dst, dst + dim, 0.0f);
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j,
                         s::add(s::load(dst + j), s::load(src + j)));
            for (; j < dim; ++j)
                dst[j] += src[j];
        }
        std::size_t j = 0;
        for (; j + W <= dim; j += W)
            s::store(dst + j, s::mul(s::load(dst + j), nv));
        for (; j < dim; ++j)
            dst[j] *= norm;
    }
}

void
fusedGatherScaledAddRows(const float *x, const std::uint32_t *gather,
                         const std::uint32_t *out_rows, std::size_t v0,
                         std::size_t v1, std::size_t d, std::size_t dim,
                         float norm, float *out)
{
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j, s::mulAdd(s::load(src + j), nv,
                                            s::load(dst + j)));
            for (; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

void
fusedScatterScaledAddRows(const float *grad,
                          const std::uint32_t *out_rows,
                          const std::uint32_t *gather, std::size_t n,
                          std::size_t d, std::size_t dim, float norm,
                          float *grad_x, std::size_t r0, std::size_t r1)
{
    // Owner-partitioned over grad_x rows: scan every (i, t) ascending
    // and touch only owned rows, so duplicate destinations accumulate
    // input-ascending — the serial scatterAddRows order — at any
    // thread count.
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t i = 0; i < n; ++i) {
        const float *src =
            grad + static_cast<std::size_t>(out_rows[i]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const std::size_t row = gather[i * d + t];
            if (row < r0 || row >= r1)
                continue;
            float *dst = grad_x + row * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j, s::mulAdd(s::load(src + j), nv,
                                            s::load(dst + j)));
            for (; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

} // namespace buffalo::tensor::kernels::wide
