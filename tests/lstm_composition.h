/**
 * @file
 * The LSTM cell as a composition of ops::* calls — the reference the
 * fused kernels::lstmStep / lstmStepBackward path must match bit for
 * bit (tests/kernels_test.cpp) and the baseline bench_kernels times
 * the fused cell against. Not used by the library.
 */
#pragma once

#include <utility>

#include "nn/lstm.h"
#include "tensor/ops.h"

namespace buffalo::testing {

/** Weights of one cell: Wx (in x 4h), Wh (h x 4h), b (1 x 4h). */
struct LstmWeights
{
    const tensor::Tensor &wx;
    const tensor::Tensor &wh;
    const tensor::Tensor &b;
};

/** Forward step: fills @p cache; returns (h, c). */
inline std::pair<tensor::Tensor, tensor::Tensor>
lstmCompositionStep(const LstmWeights &w, const tensor::Tensor &x,
                    const tensor::Tensor &h_prev,
                    const tensor::Tensor &c_prev,
                    nn::LstmCell::StepCache &cache)
{
    namespace ops = buffalo::tensor;
    const std::size_t h = w.wh.rows();
    tensor::Tensor z = ops::matmul(x, w.wx);
    ops::addInPlace(z, ops::matmul(h_prev, w.wh));
    z = ops::addRowBroadcast(z, w.b);

    cache.x = x;
    cache.h_prev = h_prev;
    cache.c_prev = c_prev;
    cache.i = ops::sigmoid(ops::sliceColumns(z, 0, h));
    cache.f = ops::sigmoid(ops::sliceColumns(z, h, 2 * h));
    cache.g = ops::tanh(ops::sliceColumns(z, 2 * h, 3 * h));
    cache.o = ops::sigmoid(ops::sliceColumns(z, 3 * h, 4 * h));
    cache.c = ops::add(ops::multiply(cache.f, c_prev),
                       ops::multiply(cache.i, cache.g));
    cache.tanh_c = ops::tanh(cache.c);
    return {ops::multiply(cache.o, cache.tanh_c), cache.c};
}

/** Gradients of one backward step (weight gradients included). */
struct LstmCompositionGrads
{
    tensor::Tensor dx, dh_prev, dc_prev;
    tensor::Tensor dwx, dwh, db;
};

/** Backward step, with every elementwise stage its own op. */
inline LstmCompositionGrads
lstmCompositionBackward(const LstmWeights &w,
                        const nn::LstmCell::StepCache &cache,
                        const tensor::Tensor &dh,
                        const tensor::Tensor &dc_in)
{
    namespace ops = buffalo::tensor;
    using tensor::Tensor;
    const std::size_t n = dh.rows();
    const std::size_t h = w.wh.rows();

    const Tensor d_o = ops::multiply(dh, cache.tanh_c);
    const Tensor d_tanh_c = ops::multiply(dh, cache.o);
    const Tensor one = Tensor::full(n, h, 1.0f);
    const Tensor one_minus_t2 = ops::subtract(
        one, ops::multiply(cache.tanh_c, cache.tanh_c));
    const Tensor dc =
        ops::add(dc_in, ops::multiply(d_tanh_c, one_minus_t2));

    const auto sigmoid_back = [&](const Tensor &gate,
                                  const Tensor &grad) {
        return ops::multiply(ops::multiply(grad, gate),
                             ops::subtract(one, gate));
    };
    const Tensor dz_i = sigmoid_back(cache.i, ops::multiply(dc, cache.g));
    const Tensor dz_f =
        sigmoid_back(cache.f, ops::multiply(dc, cache.c_prev));
    const Tensor dz_o = sigmoid_back(cache.o, d_o);
    const Tensor dz_g = ops::multiply(
        ops::multiply(dc, cache.i),
        ops::subtract(one, ops::multiply(cache.g, cache.g)));
    const Tensor dz =
        ops::concatColumns(ops::concatColumns(dz_i, dz_f),
                           ops::concatColumns(dz_g, dz_o));

    LstmCompositionGrads grads;
    grads.dc_prev = ops::multiply(dc, cache.f);
    // Accumulated into zeroed gradients, as Parameter::accumulateGrad
    // does on a freshly zeroed parameter.
    grads.dwx = Tensor::zeros(w.wx.rows(), w.wx.cols());
    grads.dwh = Tensor::zeros(w.wh.rows(), w.wh.cols());
    grads.db = Tensor::zeros(1, w.b.cols());
    ops::addInPlace(grads.dwx, ops::matmulTransposeA(cache.x, dz));
    ops::addInPlace(grads.dwh, ops::matmulTransposeA(cache.h_prev, dz));
    ops::addInPlace(grads.db, ops::columnSum(dz));
    grads.dx = ops::matmulTransposeB(dz, w.wx);
    grads.dh_prev = ops::matmulTransposeB(dz, w.wh);
    return grads;
}

} // namespace buffalo::testing
