#include "nn/lstm.h"

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace ops = buffalo::tensor;
namespace kernels = buffalo::tensor::kernels;

LstmCell::LstmCell(std::string name, std::size_t input_dim,
                   std::size_t hidden_dim, util::Rng &rng,
                   AllocationObserver *observer)
    : wx_(name + ".wx", input_dim, 4 * hidden_dim, observer),
      wh_(name + ".wh", hidden_dim, 4 * hidden_dim, observer),
      b_(name + ".b", 1, 4 * hidden_dim, observer)
{
    ops::fillXavier(wx_.value(), rng);
    ops::fillXavier(wh_.value(), rng);
    // Forget-gate bias of 1.0 (standard trick for gradient flow).
    for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j)
        b_.value().at(0, j) = 1.0f;
}

std::uint64_t
LstmCell::StepCache::bytes() const
{
    return x.bytes() + h_prev.bytes() + c_prev.bytes() + i.bytes() +
           f.bytes() + g.bytes() + o.bytes() + c.bytes() +
           tanh_c.bytes();
}

std::pair<Tensor, Tensor>
LstmCell::step(const Tensor &x, const Tensor &h_prev,
               const Tensor &c_prev, StepCache &cache,
               AllocationObserver *observer) const
{
    checkArgument(x.cols() == inputDim(),
                  "LstmCell::step: input width mismatch");
    const std::size_t n = x.rows();
    const std::size_t h = hiddenDim();

    const Tensor xw = ops::matmul(x, wx_.value(), observer);
    const Tensor hw = ops::matmul(h_prev, wh_.value(), observer);
    cache.x = x;
    cache.h_prev = h_prev;
    cache.c_prev = c_prev;
    for (Tensor *out : {&cache.i, &cache.f, &cache.g, &cache.o, &cache.c,
                        &cache.tanh_c})
        *out = Tensor::uninitialized(n, h, observer);
    Tensor h_out = Tensor::uninitialized(n, h, observer);

    kernels::LstmStepArgs args;
    args.rows = n;
    args.hidden = h;
    args.xw = xw.data();
    args.hw = hw.data();
    args.bias = b_.value().data();
    args.c_prev = c_prev.data();
    args.i = cache.i.data();
    args.f = cache.f.data();
    args.g = cache.g.data();
    args.o = cache.o.data();
    args.c = cache.c.data();
    args.tanh_c = cache.tanh_c.data();
    args.h = h_out.data();
    kernels::lstmStep(args);
    return {std::move(h_out), cache.c};
}

LstmCell::StepGrads
LstmCell::stepBackward(const StepCache &cache, const Tensor &dh,
                       const Tensor &dc, bool need_prev,
                       AllocationObserver *observer)
{
    const std::size_t n = dh.rows();
    const std::size_t h = hiddenDim();

    Tensor dz = Tensor::uninitialized(n, 4 * h, observer);
    StepGrads grads;
    if (need_prev)
        grads.dc_prev = Tensor::uninitialized(n, h, observer);

    kernels::LstmBackwardArgs args;
    args.rows = n;
    args.hidden = h;
    args.dh = dh.data();
    args.dc = dc.data();
    args.c_prev = cache.c_prev.data();
    args.i = cache.i.data();
    args.f = cache.f.data();
    args.g = cache.g.data();
    args.o = cache.o.data();
    args.tanh_c = cache.tanh_c.data();
    args.dz = dz.data();
    args.dc_prev = need_prev ? grads.dc_prev.data() : nullptr;
    kernels::lstmStepBackward(args);

    wx_.accumulateGrad(ops::matmulTransposeA(cache.x, dz, observer));
    wh_.accumulateGrad(
        ops::matmulTransposeA(cache.h_prev, dz, observer));
    b_.accumulateGrad(ops::columnSum(dz, observer));

    grads.dx = ops::matmulTransposeB(dz, wx_.value(), observer);
    if (need_prev)
        grads.dh_prev = ops::matmulTransposeB(dz, wh_.value(), observer);
    return grads;
}

std::vector<Parameter *>
LstmCell::parameters()
{
    return {&wx_, &wh_, &b_};
}

} // namespace buffalo::nn
