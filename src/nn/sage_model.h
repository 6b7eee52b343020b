/**
 * @file
 * GraphSAGE with degree-bucketed execution (paper Algorithm 1 lines
 * 4-8: BlockGenerate -> Bucketing -> per-bucket Aggregate + Update).
 *
 * Layer update: h_dst = act( [x_dst || AGG(x_neighbors)] W + b ), with
 * ReLU between layers and raw logits at the output. Aggregators are the
 * bucketed strategies of nn/aggregators.h.
 */
#pragma once

#include <memory>
#include <vector>

#include "nn/aggregators.h"
#include "nn/config.h"
#include "nn/linear.h"
#include "nn/memory_model.h"
#include "sampling/block.h"
#include "sampling/bucketing.h"

namespace buffalo::nn {

/** Multi-layer GraphSAGE over micro-batch blocks. */
class SageModel : public Module
{
  public:
    /**
     * Builds the model. Weights are initialized deterministically from
     * @p seed and allocated under @p param_observer.
     */
    SageModel(const ModelConfig &config, std::uint64_t seed,
              AllocationObserver *param_observer = nullptr);

    /** Per-forward activation state kept until backward. */
    struct ForwardCache
    {
        struct BucketState
        {
            sampling::DegreeBucket bucket;
            std::vector<std::uint32_t> gather_indices;
            std::unique_ptr<AggregatorCache> agg_cache;
        };
        struct LayerState
        {
            Tensor input;          ///< numSrc x in_dim
            std::vector<BucketState> buckets;
            Linear::Cache linear_cache;
            Tensor pre_activation; ///< numDst x out_dim (hidden layers)
        };
        std::vector<LayerState> layers;

        /** Activation bytes pinned by this cache. */
        std::uint64_t bytes() const;
    };

    /**
     * Forward pass over @p mb with raw input features
     * @p input_features (mb.inputNodes().size() x feature_dim).
     * @return logits, numOutput x num_classes.
     */
    Tensor forward(const sampling::MicroBatch &mb,
                   const Tensor &input_features, ForwardCache &cache,
                   AllocationObserver *observer = nullptr);

    /**
     * Inference-mode forward: identical arithmetic (and therefore
     * bitwise-identical logits) to forward(), but no activation state
     * is stashed for a backward pass — buckets run through
     * Aggregator::forwardInference (the LSTM keeps only its running h
     * and c plus one step's scratch) and layer inputs are dropped as
     * soon as the layer is done, so peak memory is bounded by one
     * layer's working set. No backward() may follow.
     */
    Tensor forwardInference(const sampling::MicroBatch &mb,
                            const Tensor &input_features,
                            AllocationObserver *observer = nullptr);

    /**
     * Backward pass; accumulates parameter gradients. The gradient
     * w.r.t. the raw inputs is discarded (features are not trained).
     */
    void backward(const ForwardCache &cache, const Tensor &grad_logits,
                  AllocationObserver *observer = nullptr);

    const ModelConfig &config() const { return config_; }

    /** Shared analytic cost model for this configuration. */
    const MemoryModel &memoryModel() const { return memory_model_; }

    std::vector<Parameter *> parameters() override;

  private:
    /** Shared body of forward()/forwardInference(); @p cache may be
     *  null, in which case no state survives the call. */
    Tensor forwardImpl(const sampling::MicroBatch &mb,
                       const Tensor &input_features, ForwardCache *cache,
                       AllocationObserver *observer);

    ModelConfig config_;
    MemoryModel memory_model_;
    std::vector<std::unique_ptr<Aggregator>> aggregators_;
    std::vector<std::unique_ptr<Linear>> updates_;
};

} // namespace buffalo::nn
