/**
 * @file
 * Portable SIMD lane-group wrappers for the kernel layer (DESIGN.md,
 * "Compute kernels"). One vector type, `VecF`, backed by AVX2
 * (8 lanes), NEON (4 lanes), or a plain scalar lane (width 1) when
 * the translation unit is built without a wide ISA.
 *
 * Determinism contract (the reason this wrapper exists instead of
 * compiler auto-vectorization): every lane performs exactly the
 * serial scalar operation sequence — an IEEE-754 single-precision
 * multiply followed by a separate add, never a fused multiply-add —
 * and lanes are only ever mapped to *independent* output elements.
 * Because no operation mixes lanes, results are bitwise identical at
 * any lane width, including width 1. The hot kernels (GEMM, the
 * elementwise ops, the fused aggregator chains) therefore need no
 * lane-reduction rules at all: each output element's contributions
 * accumulate k-ascending (t-ascending for aggregators) within its
 * own lane, exactly like the scalar reference.
 *
 * The one horizontal primitive, hsum(), reduces a lane group with a
 * *fixed pairwise tree* — (l0+l1)+(l2+l3)... halved repeatedly in
 * lane order — so any future kernel that does need a cross-lane
 * reduction has a single, width-documented order to standardize on.
 * No shipped kernel currently calls it on a hot path; it exists so
 * the reduction order is pinned by code (and tested) rather than
 * re-invented per call site.
 *
 * Every definition lives in an inline namespace named after the ISA
 * the including translation unit selected (`avx2`, `neon`, `scalar`),
 * so two TUs built with different ISA flags never share an inline
 * definition: the wide TU (tensor/kernels_simd.cpp, which CMake
 * builds with -mavx2 on x86-64 when BUFFALO_SIMD is ON) gets the
 * wide VecF, and the baseline-flagged tensor/kernels.cpp gets the
 * scalar lane. That is what lets the kernel bodies in
 * tensor/lane_kernels.h be written once against VecF and compiled
 * into both lanes. Include it only from the kernel layer's own TUs;
 * every other caller goes through tensor/kernels.h.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(BUFFALO_SIMD_ENABLED) && defined(__AVX2__)
#define BUFFALO_SIMD_AVX2 1
#define BUFFALO_SIMD_ISA avx2
#include <immintrin.h>
#elif defined(BUFFALO_SIMD_ENABLED) && defined(__ARM_NEON) && \
    defined(__aarch64__)
#define BUFFALO_SIMD_NEON 1
#define BUFFALO_SIMD_ISA neon
#include <arm_neon.h>
#else
#define BUFFALO_SIMD_ISA scalar
#endif

namespace buffalo::tensor::simd {
inline namespace BUFFALO_SIMD_ISA {

#if defined(BUFFALO_SIMD_AVX2)

/** One 8-lane single-precision group (AVX2). */
struct VecF
{
    __m256 v;
    static constexpr std::size_t kWidth = 8;
};

inline const char *
isaName()
{
    return "avx2";
}

inline VecF
load(const float *p)
{
    return {_mm256_loadu_ps(p)};
}

inline void
store(float *p, VecF x)
{
    _mm256_storeu_ps(p, x.v);
}

inline VecF
broadcast(float x)
{
    return {_mm256_set1_ps(x)};
}

inline VecF
zero()
{
    return {_mm256_setzero_ps()};
}

inline VecF
add(VecF a, VecF b)
{
    return {_mm256_add_ps(a.v, b.v)};
}

inline VecF
sub(VecF a, VecF b)
{
    return {_mm256_sub_ps(a.v, b.v)};
}

inline VecF
mul(VecF a, VecF b)
{
    return {_mm256_mul_ps(a.v, b.v)};
}

inline VecF
max(VecF a, VecF b)
{
    return {_mm256_max_ps(a.v, b.v)};
}

/**
 * acc + a*b as two separately-rounded IEEE operations (mul, then
 * add) — deliberately NOT _mm256_fmadd_ps, which rounds once and
 * would diverge from the scalar lane.
 */
inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    return {_mm256_add_ps(acc.v, _mm256_mul_ps(a.v, b.v))};
}

/**
 * Lane-wise `c > 0 ? x : +0.0f` with exact scalar-ternary semantics:
 * an ordered compare, so NaN and -0.0 in c both select +0, matching
 * `std::max(0.0f, x)` / `pre > 0 ? g : 0` bit for bit.
 */
inline VecF
selectGtZero(VecF c, VecF x)
{
    const __m256 mask =
        _mm256_cmp_ps(c.v, _mm256_setzero_ps(), _CMP_GT_OQ);
    return {_mm256_and_ps(x.v, mask)};
}

inline VecF
min(VecF a, VecF b)
{
    return {_mm256_min_ps(a.v, b.v)};
}

inline VecF
div(VecF a, VecF b)
{
    return {_mm256_div_ps(a.v, b.v)};
}

/** Lane-wise truth value of a compare: all-ones or all-zeros bits. */
struct MaskF
{
    __m256 m;
};

/** Ordered `a < b` (false when either lane is NaN). */
inline MaskF
lessThan(VecF a, VecF b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
}

inline MaskF
isNan(VecF a)
{
    return {_mm256_cmp_ps(a.v, a.v, _CMP_UNORD_Q)};
}

/** Lane-wise `m ? a : b`. */
inline VecF
select(MaskF m, VecF a, VecF b)
{
    return {_mm256_blendv_ps(b.v, a.v, m.m)};
}

/** |mag| with the sign bit of @p sign. */
inline VecF
copySign(VecF mag, VecF sign)
{
    const __m256 bit = _mm256_set1_ps(-0.0f);
    return {_mm256_or_ps(_mm256_andnot_ps(bit, mag.v),
                         _mm256_and_ps(bit, sign.v))};
}

/** 2^k for lanes holding integral values k in [-126, 127]. */
inline VecF
pow2i(VecF k)
{
    const __m256i biased = _mm256_add_epi32(_mm256_cvttps_epi32(k.v),
                                            _mm256_set1_epi32(127));
    return {_mm256_castsi256_ps(_mm256_slli_epi32(biased, 23))};
}

#elif defined(BUFFALO_SIMD_NEON)

/** One 4-lane single-precision group (NEON). */
struct VecF
{
    float32x4_t v;
    static constexpr std::size_t kWidth = 4;
};

inline const char *
isaName()
{
    return "neon";
}

inline VecF
load(const float *p)
{
    return {vld1q_f32(p)};
}

inline void
store(float *p, VecF x)
{
    vst1q_f32(p, x.v);
}

inline VecF
broadcast(float x)
{
    return {vdupq_n_f32(x)};
}

inline VecF
zero()
{
    return {vdupq_n_f32(0.0f)};
}

inline VecF
add(VecF a, VecF b)
{
    return {vaddq_f32(a.v, b.v)};
}

inline VecF
sub(VecF a, VecF b)
{
    return {vsubq_f32(a.v, b.v)};
}

inline VecF
mul(VecF a, VecF b)
{
    return {vmulq_f32(a.v, b.v)};
}

inline VecF
max(VecF a, VecF b)
{
    return {vmaxq_f32(a.v, b.v)};
}

/** Separate mul + add (not vfmaq): matches the scalar lane exactly. */
inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    return {vaddq_f32(acc.v, vmulq_f32(a.v, b.v))};
}

/** Lane-wise `c > 0 ? x : +0.0f` (vcgtq is false for NaN, like the
 *  scalar ordered compare). */
inline VecF
selectGtZero(VecF c, VecF x)
{
    const uint32x4_t mask = vcgtq_f32(c.v, vdupq_n_f32(0.0f));
    return {vbslq_f32(mask, x.v, vdupq_n_f32(0.0f))};
}

/** `a < b ? a : b` exactly (vminq_f32 differs on NaN and signed 0). */
inline VecF
min(VecF a, VecF b)
{
    return {vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v)};
}

inline VecF
div(VecF a, VecF b)
{
    return {vdivq_f32(a.v, b.v)};
}

/** Lane-wise truth value of a compare: all-ones or all-zeros bits. */
struct MaskF
{
    uint32x4_t m;
};

/** Ordered `a < b` (false when either lane is NaN). */
inline MaskF
lessThan(VecF a, VecF b)
{
    return {vcltq_f32(a.v, b.v)};
}

inline MaskF
isNan(VecF a)
{
    return {vmvnq_u32(vceqq_f32(a.v, a.v))};
}

/** Lane-wise `m ? a : b`. */
inline VecF
select(MaskF m, VecF a, VecF b)
{
    return {vbslq_f32(m.m, a.v, b.v)};
}

/** |mag| with the sign bit of @p sign. */
inline VecF
copySign(VecF mag, VecF sign)
{
    return {vbslq_f32(vdupq_n_u32(0x80000000u), sign.v, mag.v)};
}

/** 2^k for lanes holding integral values k in [-126, 127]. */
inline VecF
pow2i(VecF k)
{
    const int32x4_t biased =
        vaddq_s32(vcvtq_s32_f32(k.v), vdupq_n_s32(127));
    return {vreinterpretq_f32_s32(vshlq_n_s32(biased, 23))};
}

#else

/** Scalar fallback lane: the wide kernels compile everywhere. */
struct VecF
{
    float v;
    static constexpr std::size_t kWidth = 1;
};

inline const char *
isaName()
{
    return "scalar";
}

inline VecF
load(const float *p)
{
    return {*p};
}

inline void
store(float *p, VecF x)
{
    *p = x.v;
}

inline VecF
broadcast(float x)
{
    return {x};
}

inline VecF
zero()
{
    return {0.0f};
}

inline VecF
add(VecF a, VecF b)
{
    return {a.v + b.v};
}

inline VecF
sub(VecF a, VecF b)
{
    return {a.v - b.v};
}

inline VecF
mul(VecF a, VecF b)
{
    return {a.v * b.v};
}

inline VecF
max(VecF a, VecF b)
{
    return {a.v > b.v ? a.v : b.v};
}

inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    // Two expressions so -ffp-contract cannot fuse them into an FMA.
    const float product = a.v * b.v;
    return {acc.v + product};
}

/** `c > 0 ? x : +0.0f` — the scalar ternary itself. */
inline VecF
selectGtZero(VecF c, VecF x)
{
    return {c.v > 0.0f ? x.v : 0.0f};
}

inline VecF
min(VecF a, VecF b)
{
    return {a.v < b.v ? a.v : b.v};
}

inline VecF
div(VecF a, VecF b)
{
    return {a.v / b.v};
}

/** Truth value of a compare. */
struct MaskF
{
    bool m;
};

inline MaskF
lessThan(VecF a, VecF b)
{
    return {a.v < b.v};
}

inline MaskF
isNan(VecF a)
{
    return {a.v != a.v};
}

inline VecF
select(MaskF m, VecF a, VecF b)
{
    return {m.m ? a.v : b.v};
}

/** |mag| with the sign bit of @p sign (bit copy, no libm). */
inline VecF
copySign(VecF mag, VecF sign)
{
    std::uint32_t m = 0, s = 0;
    std::memcpy(&m, &mag.v, sizeof(m));
    std::memcpy(&s, &sign.v, sizeof(s));
    const std::uint32_t bits = (m & 0x7fffffffu) | (s & 0x80000000u);
    float out = 0.0f;
    std::memcpy(&out, &bits, sizeof(out));
    return {out};
}

/** 2^k for an integral k in [-126, 127]. */
inline VecF
pow2i(VecF k)
{
    const std::uint32_t bits =
        static_cast<std::uint32_t>(static_cast<std::int32_t>(k.v) + 127)
        << 23;
    float out = 0.0f;
    std::memcpy(&out, &bits, sizeof(out));
    return {out};
}

#endif

/** Active lane-group width for this translation unit. */
inline constexpr std::size_t kWidth = VecF::kWidth;

/**
 * Horizontal sum with the pinned pairwise lane-reduction tree:
 * lanes are halved in order — (l0+l1)+(l2+l3) ... — so the result
 * is a pure function of the lane values, never of the ISA's own
 * shuffle idioms. Width 1 returns the lane unchanged.
 */
inline float
hsum(VecF x)
{
    float lanes[VecF::kWidth];
    store(lanes, x);
    std::size_t n = VecF::kWidth;
    while (n > 1) {
        n /= 2;
        for (std::size_t i = 0; i < n; ++i)
            lanes[i] = lanes[i] + lanes[i + n];
    }
    return lanes[0];
}

/** The first @p count (< kWidth) floats at @p p, zeros above them. */
inline VecF
loadPartial(const float *p, std::size_t count)
{
    float lanes[VecF::kWidth] = {};
    for (std::size_t l = 0; l < count; ++l)
        lanes[l] = p[l];
    return load(lanes);
}

/** Stores the first @p count (< kWidth) lanes of @p x to @p p. */
inline void
storePartial(float *p, VecF x, std::size_t count)
{
    float lanes[VecF::kWidth];
    store(lanes, x);
    for (std::size_t l = 0; l < count; ++l)
        p[l] = lanes[l];
}

} // namespace BUFFALO_SIMD_ISA
} // namespace buffalo::tensor::simd
