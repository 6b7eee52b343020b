/**
 * @file
 * Kernel bodies written once against simd.h's VecF and compiled into
 * both lanes of the kernel layer: tensor/kernels.cpp instantiates
 * them on the scalar lane (width 1), tensor/kernels_simd.cpp on the
 * wide lane. simd.h's per-ISA inline namespace keeps the two copies
 * apart at link time. Lanes only ever map to independent elements,
 * and a row's last partial lane group runs through the same code on a
 * zero-padded group (loadPartial/storePartial), so both lanes give
 * identical bits at any width.
 *
 * The activations are in-repo rather than libm's for two reasons
 * (DESIGN.md, "Activations and the fused LSTM cell"): libm is scalar
 * (glibc's tanhf costs ~10x this file's wide tanh), and libm's bits
 * differ between glibc versions, so a bitwise contract built on them
 * would depend on the host. exp is a range-reduced polynomial in plain
 * multiply-then-add steps (no FMA, no libm call); sigmoid and tanh
 * are built on it. Against double-precision references both stay
 * within 3 ulp over [-30, 30] (tests/kernels_test.cpp).
 */
#pragma once

#include <cstddef>

#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace buffalo::tensor::simd {
inline namespace BUFFALO_SIMD_ISA {

/**
 * e^x, within ~1.5 ulp for every finite result; overflows to +inf
 * above ~88.72, underflows through the denormals to 0 below ~-103.9,
 * and passes NaN through unchanged. Cody-Waite reduction
 * x = n ln2 + r, |r| <= ln2/2, then Cephes' degree-6 expf polynomial;
 * 2^n is applied in two exact power-of-two halves so the result
 * rounds once even when it is denormal.
 */
inline VecF
exp(VecF x)
{
    // Rounds to the nearest integer for |v| < 2^22 (one add, one sub).
    const VecF round_magic = broadcast(12582912.0f); // 1.5 * 2^23
    const auto round = [&](VecF v) {
        return sub(add(v, round_magic), round_magic);
    };
    // max(x, lo) maps NaN to lo, so the bit tricks below never see it.
    const VecF xc =
        min(max(x, broadcast(-104.0f)), broadcast(89.0f));
    const VecF n = round(mul(xc, broadcast(1.44269504088896341f)));
    const VecF r = sub(sub(xc, mul(n, broadcast(0.693359375f))),
                       mul(n, broadcast(-2.12194440e-4f)));
    VecF p = broadcast(1.9875691500e-4f);
    p = add(mul(p, r), broadcast(1.3981999507e-3f));
    p = add(mul(p, r), broadcast(8.3334519073e-3f));
    p = add(mul(p, r), broadcast(4.1665795894e-2f));
    p = add(mul(p, r), broadcast(1.6666665459e-1f));
    p = add(mul(p, r), broadcast(5.0000001201e-1f));
    const VecF y =
        add(add(mul(p, mul(r, r)), r), broadcast(1.0f));
    // n is in [-150, 128]; both halves are in pow2i's [-126, 127].
    const VecF n_half = round(mul(n, broadcast(0.5f)));
    const VecF e = mul(mul(y, pow2i(n_half)), pow2i(sub(n, n_half)));
    return select(isNan(x), x, e);
}

/** 1 / (1 + e^-x): exactly 0 and 1 at the far ends. */
inline VecF
sigmoid(VecF x)
{
    const VecF one = broadcast(1.0f);
    return div(one, add(one, exp(sub(zero(), x))));
}

/**
 * tanh(x) on a = |x| with the sign copied back (so tanh(-0) = -0):
 * Cephes' odd polynomial a + a^3 P(a^2) below 0.625, where
 * 1 - 2/(e^2a + 1) would cancel, and that formula above it.
 */
inline VecF
tanh(VecF x)
{
    const VecF one = broadcast(1.0f);
    const VecF a = copySign(x, zero());
    const VecF s = mul(a, a);
    VecF p = broadcast(-5.70498872745e-3f);
    p = add(mul(p, s), broadcast(2.06390887954e-2f));
    p = add(mul(p, s), broadcast(-5.37397155531e-2f));
    p = add(mul(p, s), broadcast(1.33314422036e-1f));
    p = add(mul(p, s), broadcast(-3.33332819422e-1f));
    const VecF small = add(mul(mul(p, s), a), a);
    const VecF large =
        sub(one, div(broadcast(2.0f), add(exp(add(a, a)), one)));
    return copySign(
        select(lessThan(a, broadcast(0.625f)), small, large), x);
}

/**
 * Runs @p body(offset, lanes) over [lo, hi) in lane groups: full
 * groups first (lanes == kWidth, a constant once inlined), then the
 * partial last group if any. Loads and stores inside the body go
 * through loadLanes/storeLanes with the same lane count.
 */
template <typename Body>
void
forLaneGroups(std::size_t lo, std::size_t hi, Body body)
{
    std::size_t at = lo;
    for (; at + kWidth <= hi; at += kWidth)
        body(at, kWidth);
    if (at < hi)
        body(at, hi - at);
}

inline VecF
loadLanes(const float *p, std::size_t lanes)
{
    return lanes == kWidth ? load(p) : loadPartial(p, lanes);
}

inline void
storeLanes(float *p, VecF x, std::size_t lanes)
{
    if (lanes == kWidth)
        store(p, x);
    else
        storePartial(p, x, lanes);
}

inline void
sigmoidRange(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    forLaneGroups(lo, hi, [&](std::size_t at, std::size_t lanes) {
        storeLanes(c + at, sigmoid(loadLanes(a + at, lanes)), lanes);
    });
}

inline void
tanhRange(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    forLaneGroups(lo, hi, [&](std::size_t at, std::size_t lanes) {
        storeLanes(c + at, tanh(loadLanes(a + at, lanes)), lanes);
    });
}

/** kernels::lstmStep over rows [r0, r1). */
inline void
lstmStepRows(const kernels::LstmStepArgs &args, std::size_t r0,
             std::size_t r1)
{
    const std::size_t hd = args.hidden;
    for (std::size_t r = r0; r < r1; ++r) {
        const float *xw = args.xw + r * 4 * hd;
        const float *hw = args.hw + r * 4 * hd;
        const std::size_t row = r * hd;
        forLaneGroups(0, hd, [&](std::size_t j, std::size_t lanes) {
            const auto pre = [&](std::size_t gate) {
                const std::size_t at = gate * hd + j;
                return add(add(loadLanes(xw + at, lanes),
                               loadLanes(hw + at, lanes)),
                           loadLanes(args.bias + at, lanes));
            };
            const VecF i = sigmoid(pre(0));
            const VecF f = sigmoid(pre(1));
            const VecF g = tanh(pre(2));
            const VecF o = sigmoid(pre(3));
            const VecF c =
                add(mul(f, loadLanes(args.c_prev + row + j, lanes)),
                    mul(i, g));
            const VecF tanh_c = tanh(c);
            storeLanes(args.i + row + j, i, lanes);
            storeLanes(args.f + row + j, f, lanes);
            storeLanes(args.g + row + j, g, lanes);
            storeLanes(args.o + row + j, o, lanes);
            storeLanes(args.c + row + j, c, lanes);
            storeLanes(args.tanh_c + row + j, tanh_c, lanes);
            storeLanes(args.h + row + j, mul(o, tanh_c), lanes);
        });
    }
}

/** kernels::lstmStepBackward over rows [r0, r1). */
inline void
lstmBackwardRows(const kernels::LstmBackwardArgs &args, std::size_t r0,
                 std::size_t r1)
{
    const std::size_t hd = args.hidden;
    const VecF one = broadcast(1.0f);
    for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t row = r * hd;
        float *dz = args.dz + r * 4 * hd;
        forLaneGroups(0, hd, [&](std::size_t j, std::size_t lanes) {
            const auto in = [&](const float *p) {
                return loadLanes(p + row + j, lanes);
            };
            const VecF dh = in(args.dh);
            const VecF i = in(args.i);
            const VecF f = in(args.f);
            const VecF g = in(args.g);
            const VecF o = in(args.o);
            const VecF tanh_c = in(args.tanh_c);
            const VecF dc = add(in(args.dc),
                                mul(mul(dh, o),
                                    sub(one, mul(tanh_c, tanh_c))));
            if (args.dc_prev != nullptr)
                storeLanes(args.dc_prev + row + j, mul(dc, f), lanes);
            const auto sigmoid_back = [&](VecF grad, VecF s) {
                return mul(mul(grad, s), sub(one, s));
            };
            storeLanes(dz + j, sigmoid_back(mul(dc, g), i), lanes);
            storeLanes(dz + hd + j,
                       sigmoid_back(mul(dc, in(args.c_prev)), f),
                       lanes);
            storeLanes(dz + 2 * hd + j,
                       mul(mul(dc, i), sub(one, mul(g, g))), lanes);
            storeLanes(dz + 3 * hd + j,
                       sigmoid_back(mul(dh, tanh_c), o), lanes);
        });
    }
}

} // namespace BUFFALO_SIMD_ISA
} // namespace buffalo::tensor::simd
