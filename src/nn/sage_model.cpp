#include "nn/sage_model.h"

#include <cstring>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace ops = buffalo::tensor;
namespace kernels = buffalo::tensor::kernels;

SageModel::SageModel(const ModelConfig &config, std::uint64_t seed,
                     AllocationObserver *param_observer)
    : config_([&] {
          ModelConfig fixed = config;
          fixed.arch = ModelArch::Sage;
          return fixed;
      }()),
      memory_model_(config_)
{
    config_.validate();
    util::Rng rng(seed);
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        const std::size_t in = config_.layerInDim(layer);
        const std::size_t out = config_.layerOutDim(layer);
        const std::string tag = "sage." + std::to_string(layer);
        aggregators_.push_back(makeAggregator(
            config_.aggregator, tag, in, rng, param_observer));
        // Update weight consumes concat(self, aggregated): 2*in wide.
        updates_.push_back(std::make_unique<Linear>(
            tag + ".update", 2 * in, out, rng, param_observer));
    }
}

std::uint64_t
SageModel::ForwardCache::bytes() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers) {
        total += layer.input.bytes() + layer.pre_activation.bytes();
        for (const auto &bucket : layer.buckets) {
            total += bucket.gather_indices.size() * sizeof(std::uint32_t);
            if (bucket.agg_cache)
                total += bucket.agg_cache->bytes();
        }
    }
    return total;
}

Tensor
SageModel::forward(const sampling::MicroBatch &mb,
                   const Tensor &input_features, ForwardCache &cache,
                   AllocationObserver *observer)
{
    return forwardImpl(mb, input_features, &cache, observer);
}

Tensor
SageModel::forwardInference(const sampling::MicroBatch &mb,
                            const Tensor &input_features,
                            AllocationObserver *observer)
{
    return forwardImpl(mb, input_features, nullptr, observer);
}

Tensor
SageModel::forwardImpl(const sampling::MicroBatch &mb,
                       const Tensor &input_features, ForwardCache *cache,
                       AllocationObserver *observer)
{
    checkArgument(mb.numLayers() == config_.num_layers,
                  "SageModel::forward: block count != num_layers");
    checkArgument(input_features.rows() == mb.inputNodes().size() &&
                      input_features.cols() ==
                          static_cast<std::size_t>(config_.feature_dim),
                  "SageModel::forward: bad input feature shape");

    if (cache != nullptr) {
        cache->layers.clear();
        cache->layers.resize(config_.num_layers);
    }

    Tensor x = input_features;
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        const sampling::Block &block = mb.blocks[layer];
        checkArgument(x.rows() == block.numSrc(),
                      "SageModel::forward: feature/block row mismatch");
        ForwardCache::LayerState *state =
            cache != nullptr ? &cache->layers[layer] : nullptr;
        if (state != nullptr)
            state->input = x;

        const std::size_t in = config_.layerInDim(layer);
        Tensor aggregated =
            Tensor::zeros(block.numDst(), in, observer);

        for (auto &bucket : sampling::bucketizeBlock(block)) {
            // Built locally either way; without a cache it (and the
            // aggregator's activation stash) dies with this iteration.
            ForwardCache::BucketState bucket_state;
            bucket_state.bucket = bucket;
            const std::size_t n = bucket.members.size();
            const std::size_t d = bucket.degree;
            if (d > 0) {
                auto &indices = bucket_state.gather_indices;
                indices.reserve(n * d);
                for (sampling::NodeId dst : bucket.members)
                    for (sampling::NodeId src : block.neighborList(dst))
                        indices.push_back(src);
                // Fused path: aggregate straight from x into the
                // destination rows, skipping the gathered round-trip.
                const bool fused = aggregators_[layer]->forwardFused(
                    x, indices.data(), bucket.members.data(), n, d,
                    bucket_state.agg_cache, aggregated.data(),
                    observer);
                if (!fused) {
                    Tensor gathered =
                        ops::gatherRows(x, indices, observer);
                    Tensor agg_out =
                        state != nullptr
                            ? aggregators_[layer]->forward(
                                  gathered, n, d,
                                  bucket_state.agg_cache, observer)
                            : aggregators_[layer]->forwardInference(
                                  gathered, n, d, observer);
                    // Scatter bucket rows to their destinations.
                    for (std::size_t i = 0; i < n; ++i) {
                        std::memcpy(
                            aggregated.data() + bucket.members[i] * in,
                            agg_out.data() + i * in,
                            in * sizeof(float));
                    }
                }
            }
            if (state != nullptr)
                state->buckets.push_back(std::move(bucket_state));
        }

        // Self features: destinations are the src prefix of x.
        Tensor self_prefix = Tensor::zeros(block.numDst(), in, observer);
        std::memcpy(self_prefix.data(), x.data(),
                    static_cast<std::size_t>(block.numDst()) * in *
                        sizeof(float));

        Tensor concat =
            ops::concatColumns(self_prefix, aggregated, observer);
        Linear::Cache scratch_linear;
        Tensor out = updates_[layer]->forward(
            concat,
            state != nullptr ? state->linear_cache : scratch_linear,
            observer);
        if (layer + 1 < config_.num_layers) {
            if (state != nullptr)
                state->pre_activation = out;
            x = ops::relu(out, observer);
        } else {
            x = out;
        }
    }
    return x;
}

void
SageModel::backward(const ForwardCache &cache, const Tensor &grad_logits,
                    AllocationObserver *observer)
{
    checkArgument(cache.layers.size() ==
                      static_cast<std::size_t>(config_.num_layers),
                  "SageModel::backward: stale cache");
    Tensor grad = grad_logits;
    for (int layer = config_.num_layers - 1; layer >= 0; --layer) {
        const auto &state = cache.layers[layer];
        const std::size_t in = config_.layerInDim(layer);

        if (layer + 1 < config_.num_layers)
            grad = ops::reluBackward(grad, state.pre_activation,
                                     observer);

        Tensor grad_concat = updates_[layer]->backward(
            state.linear_cache, grad, observer);
        Tensor grad_self =
            ops::sliceColumns(grad_concat, 0, in, observer);
        Tensor grad_agg =
            ops::sliceColumns(grad_concat, in, 2 * in, observer);

        Tensor grad_x =
            Tensor::zeros(state.input.rows(), in, observer);
        // Self path: destinations are the src prefix (a flat
        // element-range add over the owned slab).
        {
            kernels::OpTimer timer(kernels::OpClass::Elementwise,
                                   3 * grad_self.bytes());
            float *px = grad_x.data();
            const float *ps = grad_self.data();
            const std::size_t elems = grad_self.size();
            kernels::parallelRows(
                elems, elems, [&](std::size_t lo, std::size_t hi) {
                    kernels::ewAddInPlace(px, ps, lo, hi);
                });
        }
        // Aggregation path, bucket by bucket.
        for (const auto &bucket_state : state.buckets) {
            const auto &bucket = bucket_state.bucket;
            const std::size_t n = bucket.members.size();
            if (bucket.degree == 0)
                continue;
            const bool fused = aggregators_[layer]->backwardFused(
                *bucket_state.agg_cache, grad_agg,
                bucket.members.data(),
                bucket_state.gather_indices.data(), grad_x.data(),
                grad_x.rows(), observer);
            if (fused)
                continue;
            std::vector<std::uint32_t> member_rows(
                bucket.members.begin(), bucket.members.end());
            Tensor grad_bucket =
                ops::gatherRows(grad_agg, member_rows, observer);
            Tensor grad_gathered = aggregators_[layer]->backward(
                *bucket_state.agg_cache, grad_bucket, observer);
            ops::scatterAddRows(grad_x, grad_gathered,
                                bucket_state.gather_indices);
            (void)n;
        }
        grad = std::move(grad_x);
    }
}

std::vector<Parameter *>
SageModel::parameters()
{
    std::vector<Parameter *> params;
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        for (Parameter *p : aggregators_[layer]->parameters())
            params.push_back(p);
        for (Parameter *p : updates_[layer]->parameters())
            params.push_back(p);
    }
    return params;
}

} // namespace buffalo::nn
