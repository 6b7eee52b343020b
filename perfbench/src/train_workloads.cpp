/**
 * @file
 * The training workloads (README.md, "Workloads"):
 *
 *  - train-lstm: serial BuffaloTrainer, SAGE-LSTM on products-sim
 *    under a budget that splits every batch into several micro-batches.
 *    Micro-batch compute (nn, tensor) carries the load.
 *  - train-mean-pipe: PipelineTrainer, SAGE-mean on papers-sim with a
 *    feature cache smaller than the feature table. Sampling, scheduling,
 *    block generation, feature loading and the prefetcher carry it.
 *
 * Every consumer of a workload (the timed trainer, the reference
 * trainers of the output checks, the traced replay) follows one batch
 * protocol (EpochSource) from the same seed, so they see identical
 * batches and RNG states.
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/micro_batch_generator.h"
#include "core/scheduler.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "pipeline/pipeline_trainer.h"
#include "sampling/sampled_subgraph.h"
#include "train/feature_loader.h"
#include "train/trainer.h"
#include "util/format.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace buffalo;
using graph::NodeList;

/** Which trainer runs the timed epochs. */
enum class TrainerKind
{
    Buffalo,   ///< serial BuffaloTrainer
    Pipelined, ///< pipeline::PipelineTrainer
    Betty,     ///< BettyTrainer at the micro-batch count Buffalo picks
};

struct TrainSpec
{
    const char *name;
    graph::DatasetId dataset;
    double scale;
    nn::AggregatorKind aggregator;
    std::size_t batch_size;
    double budget_mib;
    std::size_t kernel_threads;
    TrainerKind trainer;
    double cache_mib;
    /** Timed epochs of a traced run: fixed, so its counts repeat. */
    int traced_epochs;
    /** CPUs the whole run may use (limitToCores); 0 = all. */
    int cores;
};

// One kernel thread, not two: on the 4-vCPU measurement host the
// 2-thread epoch walls spread about twice as far between runs
// (README.md, "Spread").
const TrainSpec kTrainLstm{"train-lstm", graph::DatasetId::Products, 0.5,
                           nn::AggregatorKind::Lstm, 256, 32.0, 1,
                           TrainerKind::Buffalo, 0.0, 3, 0};
// 2 MiB holds about a quarter of papers-sim's 60,000 x 32 float
// feature table (7.3 MiB), so the cache both hits and misses. Batches
// of 1024 hand work between the stage threads four times less often
// than 256, which halved the epochs that ran in the pipeline's slow
// mode. Its 4 threads share 2 CPUs: on all 4 vCPUs of the measurement
// host the per-run median epoch ranged 136-167 ms, on 2 it ranged
// 177-183 ms, still faster than a serial epoch (README.md, "Spread").
const TrainSpec kTrainMeanPipe{"train-mean-pipe", graph::DatasetId::Papers,
                               1.0, nn::AggregatorKind::Mean, 1024, 12.0,
                               1, TrainerKind::Pipelined, 2.0, 12, 2};
// Reference configurations (README.md, "Reference figures"); not
// workloads of BENCHMARK.json.
const TrainSpec kTrainMeanSerial{"train-mean-serial",
                                 graph::DatasetId::Papers, 1.0,
                                 nn::AggregatorKind::Mean, 1024, 12.0, 1,
                                 TrainerKind::Buffalo, 0.0, 12, 2};
const TrainSpec kTrainLstmBetty{"train-lstm-betty",
                                graph::DatasetId::Products, 0.5,
                                nn::AggregatorKind::Lstm, 256, 32.0, 1,
                                TrainerKind::Betty, 0.0, 3, 0};

constexpr double kLearningRate = 5e-3;
constexpr int kMinTimedEpochs = 3;
/** The epoch-wall p99 is a median over windows of this many timed
 *  epochs, so the few epochs of train-mean-pipe's ~105 that run in the
 *  pipeline's slow mode do not decide it. Over five runs its p99
 *  spread 3.2% with windows of 20, 6.5% with windows of 10 and 6.8%
 *  over all epochs (README.md, "Spread"). */
constexpr std::size_t kLatencyWindowEpochs = 20;
/** Batches checked against WholeBatchTrainer (micro-batch == whole). */
constexpr int kEquivalenceBatches = 2;
/** Timed epochs the serial reference repeats in an untraced run. */
constexpr int kSerialParityEpochs = 3;
/** Parameter tolerance of the micro == whole check: Adam's first
 *  steps move a weight by about the learning rate whatever the
 *  gradient's size, so a gradient that differs in rounding only moves
 *  it by far less than this. */
constexpr double kParamTolerance = 0.1 * kLearningRate;
constexpr double kLossRelTolerance = 1e-6;

const TrainSpec *
findSpec(const std::string &name)
{
    for (const TrainSpec *spec :
         {&kTrainLstm, &kTrainMeanPipe, &kTrainMeanSerial, &kTrainLstmBetty})
        if (name == spec->name)
            return spec;
    return nullptr;
}

train::TrainerOptions
trainerOptions(const TrainSpec &spec, const graph::Dataset &dataset,
               std::uint64_t seed)
{
    train::TrainerOptions options;
    options.model.aggregator = spec.aggregator;
    options.model.num_layers = 2;
    options.model.feature_dim = dataset.featureDim();
    options.model.hidden_dim = 32;
    options.model.num_classes = dataset.numClasses();
    options.fanouts = {10, 25};
    options.learning_rate = kLearningRate;
    options.seed = seed;
    options.kernels.threads = spec.kernel_threads;
    options.pipeline.enabled = spec.trainer == TrainerKind::Pipelined;
    options.pipeline.prefetch_depth = 2;
    options.pipeline.feature_cache_bytes = util::mib(spec.cache_mib);
    options.pipeline.cache_policy =
        train::CachePolicyKind::PresampleFrequency;
    return options;
}

/**
 * The batch protocol: epoch 0 is a one-batch warm-up, every later
 * epoch shuffles all train nodes into batches of the spec's size.
 */
class EpochSource
{
  public:
    EpochSource(const TrainSpec &spec, const graph::Dataset &dataset,
                std::uint64_t seed)
        : train_(dataset.trainNodes()), batch_size_(spec.batch_size),
          rng_(seed ^ 0x7EA)
    {
    }

    std::vector<NodeList>
    next()
    {
        std::vector<NodeList> batches =
            train::makeBatches(train_, batch_size_, rng_);
        if (epoch_++ == 0)
            batches.resize(1);
        return batches;
    }

    util::Rng &rng() { return rng_; }

  private:
    const NodeList &train_;
    std::size_t batch_size_;
    util::Rng rng_;
    int epoch_ = 0;
};

/** Each seed of the batch is an output of exactly one micro-batch. */
bool
coversSeedsOnce(const core::ScheduleResult &schedule,
                std::size_t num_seeds)
{
    std::vector<int> seen(num_seeds, 0);
    for (const core::BucketGroup &group : schedule.groups)
        for (graph::NodeId local : group.outputSeeds())
            if (local >= num_seeds || seen[local]++ != 0)
                return false;
    return std::all_of(seen.begin(), seen.end(),
                       [](int n) { return n == 1; });
}

/** What one epoch of any consumer produced. */
struct EpochRecord
{
    double wall_seconds = 0.0;
    std::size_t seeds = 0;
    int batches = 0;
    double loss_sum = 0.0;
    std::vector<double> step_losses; ///< serial consumers only
    std::uint64_t peak_device_bytes = 0;
    bool seeds_once = true;
    train::EpochReport report; ///< pipelined trainer only

    double meanLoss() const { return batches ? loss_sum / batches : 0.0; }
};

/** One epoch of a serial trainer, step by step, each step timed on its
 *  own so the seed check (Buffalo only) stays outside the timing. */
EpochRecord
serialEpoch(train::TrainerBase &trainer, const graph::Dataset &dataset,
            const std::vector<NodeList> &batches, util::Rng &rng)
{
    const auto *buffalo = dynamic_cast<const train::BuffaloTrainer *>(&trainer);
    EpochRecord record;
    for (const NodeList &batch : batches) {
        const Clock::time_point start = Clock::now();
        const train::IterationStats stats =
            trainer.trainIteration(dataset, batch, rng);
        record.wall_seconds += secondsSince(start);
        record.seeds += batch.size();
        ++record.batches;
        record.loss_sum += stats.loss;
        record.step_losses.push_back(stats.loss);
        record.peak_device_bytes =
            std::max(record.peak_device_bytes, stats.peak_device_bytes);
        if (buffalo != nullptr)
            record.seeds_once =
                record.seeds_once &&
                coversSeedsOnce(buffalo->lastSchedule(), batch.size());
    }
    return record;
}

EpochRecord
pipelinedEpoch(pipeline::PipelineTrainer &trainer,
               const graph::Dataset &dataset,
               const std::vector<NodeList> &batches, util::Rng &rng)
{
    EpochRecord record;
    const Clock::time_point start = Clock::now();
    record.report = trainer.trainEpoch(dataset, batches, rng);
    record.wall_seconds = secondsSince(start);
    for (const NodeList &batch : batches)
        record.seeds += batch.size();
    record.batches = record.report.num_batches;
    record.loss_sum = record.report.loss_sum;
    record.peak_device_bytes = record.report.peak_device_bytes;
    return record;
}

/**
 * Replays BuffaloTrainer::trainIteration call by call through the
 * public functions of each layer, with a span around every call. The
 * model, optimizer and simulated device are built as the trainer
 * builds its own, and tensors live as long as in the trainer, so the
 * device peaks, OOM retries and losses are the trainer's.
 */
class TracedReplay
{
  public:
    TracedReplay(const train::TrainerOptions &options,
                 std::uint64_t capacity_bytes)
        : options_(options),
          device_("gpu:replay", capacity_bytes),
          model_(train::makeModel(options.model_kind, options.model,
                                  options.seed, &device_.allocator())),
          optimizer_(model_->module().parameters(), options.learning_rate,
                     0.9, 0.999, 1e-8, &device_.allocator()),
          sampler_(options.fanouts)
    {
        const nn::MemoryModel &mm = model_->memoryModel();
        static_bytes_ = mm.weightBytes() + mm.optimizerBytes();
    }

    EpochRecord
    epoch(const graph::Dataset &dataset,
          const std::vector<NodeList> &batches, util::Rng &rng,
          obs::Tracer &tracer, LayerMetrics &counts)
    {
        EpochRecord record;
        for (const NodeList &batch : batches) {
            const Clock::time_point start = Clock::now();
            const double loss = step(dataset, batch, rng, tracer, counts);
            record.wall_seconds += secondsSince(start);
            record.seeds += batch.size();
            ++record.batches;
            record.loss_sum += loss;
            record.step_losses.push_back(loss);
        }
        return record;
    }

  private:
    double
    step(const graph::Dataset &dataset, const NodeList &seeds,
         util::Rng &rng, obs::Tracer &tracer, LayerMetrics &counts)
    {
        const std::uint64_t item = ++steps_;
        obs::Span iteration(tracer, "train.iteration", item);
        sampling::SampledSubgraph sg;
        {
            obs::Span span(tracer, "sampling.sample", item);
            sg = sampler_.sample(dataset.graph(), seeds, rng);
        }
        for (int layer = 0; layer < sg.numLayers(); ++layer)
            counts.sampled_edges += static_cast<double>(
                sg.layerAdjacency(layer).numEdges());

        device::DeviceAllocator &allocator = device_.allocator();
        core::SchedulerOptions sched = options_.scheduler;
        sched.mem_constraint = allocator.capacity();
        sched.reserved_bytes = static_bytes_;
        constexpr int kMaxAttempts = 4; // as BuffaloTrainer
        for (int attempt = 0;; ++attempt) {
            allocator.resetPeak();
            try {
                core::ScheduleResult schedule;
                {
                    obs::Span span(tracer, "core.schedule", item);
                    core::BuffaloScheduler scheduler(
                        model_->memoryModel(),
                        dataset.spec().paper_avg_coefficient, sched);
                    schedule = scheduler.schedule(sg);
                }
                double loss = 0.0;
                double block_nodes = 0.0, feature_bytes = 0.0;
                double worst = -INFINITY;
                for (const core::BucketGroup &group : schedule.groups) {
                    sampling::MicroBatch mb;
                    {
                        obs::Span span(tracer, "sampling.blockgen", item);
                        mb = generator_.generateOne(sg, group);
                    }
                    allocator.resetPeak();
                    // Declared here, as in processMicroBatch, so every
                    // tensor lives until the backward pass is done.
                    nn::Tensor feats, logits;
                    std::vector<std::int32_t> labels;
                    nn::LossResult result;
                    {
                        obs::Span span(tracer, "train.load_features", item);
                        feats = train::loadFeatures(
                            dataset, mb.inputNodes(), &allocator);
                        labels =
                            train::gatherLabels(dataset, mb.outputNodes());
                    }
                    {
                        obs::Span span(tracer, "nn.forward", item);
                        logits = model_->forward(mb, feats, &allocator);
                    }
                    {
                        obs::Span span(tracer, "nn.loss", item);
                        result = nn::softmaxCrossEntropy(
                            logits, labels, seeds.size(), &allocator);
                    }
                    {
                        obs::Span span(tracer, "nn.backward", item);
                        model_->backward(result.grad_logits, &allocator);
                    }
                    loss += result.loss;
                    block_nodes +=
                        static_cast<double>(mb.totalNodeCount());
                    feature_bytes += static_cast<double>(feats.bytes());
                    const double predicted = static_cast<double>(
                        group.est_bytes + static_bytes_);
                    const double actual =
                        static_cast<double>(allocator.peakBytes());
                    worst = std::max(worst, (predicted - actual) / actual);
                }
                {
                    obs::Span span(tracer, "nn.optimizer", item);
                    optimizer_.step();
                }
                counts.micro_batches += schedule.num_groups;
                counts.block_nodes += block_nodes;
                counts.feature_bytes += feature_bytes;
                counts.est_signed_error_max =
                    std::max(counts.est_signed_error_max, worst);
                return loss;
            } catch (const device::DeviceOom &) {
                if (attempt + 1 >= kMaxAttempts)
                    throw;
                model_->clearCache();
                model_->module().zeroGrad();
                sched.safety_factor *= 0.7;
            }
        }
    }

    train::TrainerOptions options_;
    device::Device device_;
    std::unique_ptr<train::GnnModel> model_;
    nn::Adam optimizer_;
    sampling::NeighborSampler sampler_;
    core::MicroBatchGenerator generator_;
    std::uint64_t static_bytes_ = 0;
    std::uint64_t steps_ = 0;
};

/** Largest |a - b| over all parameters of two same-shaped models. */
double
maxParamDifference(train::GnnModel &a, train::GnnModel &b)
{
    const std::vector<nn::Parameter *> pa = a.module().parameters();
    const std::vector<nn::Parameter *> pb = b.module().parameters();
    if (pa.size() != pb.size())
        return INFINITY;
    double worst = 0.0;
    for (std::size_t p = 0; p < pa.size(); ++p) {
        const nn::Tensor &va = pa[p]->value();
        const nn::Tensor &vb = pb[p]->value();
        if (va.size() != vb.size())
            return INFINITY;
        for (std::size_t k = 0; k < va.size(); ++k)
            worst = std::max(
                worst, std::fabs(static_cast<double>(va.data()[k]) -
                                 static_cast<double>(vb.data()[k])));
    }
    return worst;
}

/**
 * Algorithm 2's equivalence, reached by a second path: the first
 * batches trained as Buffalo micro-batches under the budget give the
 * loss and weights of WholeBatchTrainer, one block chain on an
 * unbounded device, from the same weights and RNG state.
 */
void
checkMicroEqualsWhole(const TrainSpec &spec, const graph::Dataset &dataset,
                      const train::TrainerOptions &options,
                      std::uint64_t seed, Result &result)
{
    device::Device budget("gpu:budget", util::mib(spec.budget_mib));
    device::Device unbounded("gpu:unbounded", util::mib(1 << 20));
    train::BuffaloTrainer buffalo(options, budget);
    train::WholeBatchTrainer whole(options, unbounded);
    EpochSource buffalo_source(spec, dataset, seed),
        whole_source(spec, dataset, seed);
    int checked = 0, multi_group = 0;
    while (checked < kEquivalenceBatches) {
        const std::vector<NodeList> batches = buffalo_source.next();
        whole_source.next();
        for (std::size_t b = 0;
             b < batches.size() && checked < kEquivalenceBatches; ++b) {
            const train::IterationStats micro = buffalo.trainIteration(
                dataset, batches[b], buffalo_source.rng());
            const train::IterationStats single = whole.trainIteration(
                dataset, batches[b], whole_source.rng());
            multi_group += micro.num_micro_batches > 1;
            const double rel = std::fabs(micro.loss - single.loss) /
                               std::max(1.0, std::fabs(single.loss));
            const double params =
                maxParamDifference(buffalo.model(), whole.model());
            std::cerr << "perfbench: micro==whole batch " << checked
                      << ": " << micro.num_micro_batches
                      << " micro-batches, loss " << micro.loss << " vs "
                      << single.loss << " (rel " << rel
                      << "), max |dparam| " << params << "\n";
            result.check(rel <= kLossRelTolerance,
                         "micro-batch loss == whole-batch loss");
            result.check(params <= kParamTolerance,
                         "micro-batch weights == whole-batch weights");
            ++checked;
        }
    }
    // The check means something only if the budget really split a batch.
    result.check(multi_group > 0, "the budget splits the checked batches");
}

/** The mean micro-batch count Buffalo's scheduler picks for the first
 *  timed epoch's batches, rounded: the Betty reference's k. */
int
buffaloGroupCount(const TrainSpec &spec, const graph::Dataset &dataset,
                  const train::TrainerOptions &options, std::uint64_t seed)
{
    device::Device gpu("gpu:probe", util::mib(spec.budget_mib));
    train::BuffaloTrainer buffalo(options, gpu);
    core::SchedulerOptions sched = options.scheduler;
    sched.mem_constraint = gpu.allocator().capacity();
    sched.reserved_bytes = buffalo.staticBytes();
    const core::BuffaloScheduler scheduler(
        buffalo.model().memoryModel(), dataset.spec().paper_avg_coefficient,
        sched);
    const sampling::NeighborSampler sampler(options.fanouts);
    EpochSource source(spec, dataset, seed);
    for (const NodeList &batch : source.next()) // the warm-up batch
        sampler.sample(dataset.graph(), batch, source.rng());
    const std::vector<NodeList> batches = source.next();
    double groups = 0.0;
    for (const NodeList &batch : batches)
        groups += scheduler
                      .schedule(sampler.sample(dataset.graph(), batch,
                                               source.rng()))
                      .num_groups;
    return std::max(1, static_cast<int>(std::lround(
                           groups / static_cast<double>(batches.size()))));
}

} // namespace

bool
isTrainWorkload(const std::string &name)
{
    return findSpec(name) != nullptr;
}

std::string
tracePath(const Args &args)
{
    return ".bench_build/perfbench/traces/" + args.workload + "-seed" +
           std::to_string(args.seed) + ".json";
}

Result
runTrainWorkload(const Args &args)
{
    const TrainSpec &spec = *findSpec(args.workload);
    Result result;
    // Before any thread starts, so every thread of the run inherits it.
    std::cerr << "perfbench: running on " << limitToCores(spec.cores)
              << " CPUs\n";

    const Clock::time_point load_start = Clock::now();
    const graph::Dataset dataset =
        graph::loadDataset(spec.dataset, args.seed, spec.scale);
    const double graph_load_s = secondsSince(load_start);

    const train::TrainerOptions options =
        trainerOptions(spec, dataset, args.seed);
    device::Device gpu("gpu:0", util::mib(spec.budget_mib));
    std::unique_ptr<train::TrainerBase> trainer;
    pipeline::PipelineTrainer *pipelined = nullptr;
    if (spec.trainer == TrainerKind::Pipelined) {
        auto owned = std::make_unique<pipeline::PipelineTrainer>(options, gpu);
        pipelined = owned.get();
        trainer = std::move(owned);
    } else if (spec.trainer == TrainerKind::Betty) {
        if (args.trace)
            throw std::invalid_argument(
                "the traced replay follows Buffalo, not Betty");
        const int k = buffaloGroupCount(spec, dataset, options, args.seed);
        std::cerr << "perfbench: Betty with " << k << " micro-batches\n";
        trainer = std::make_unique<train::BettyTrainer>(options, gpu, k);
    } else {
        trainer = std::make_unique<train::BuffaloTrainer>(options, gpu);
    }
    auto runEpoch = [&](EpochSource &source) {
        const std::vector<NodeList> batches = source.next();
        return pipelined ? pipelinedEpoch(*pipelined, dataset, batches,
                                          source.rng())
                         : serialEpoch(*trainer, dataset, batches,
                                       source.rng());
    };

    // Set-up ends with the one-batch warm-up epoch, which also runs
    // the pipeline's lazy presample pass and first cache fill.
    EpochSource source(spec, dataset, args.seed);
    const std::uint64_t oom0 =
        obs::metrics().counter(obs::names::kCtrTrainOomRetries).value();
    std::vector<EpochRecord> epochs{runEpoch(source)};
    const double setup_s = secondsSince(processStart());

    std::vector<EpochRecord> timed;
    const Clock::time_point timed_start = Clock::now();
    while (args.trace ? static_cast<int>(timed.size()) < spec.traced_epochs
                      : static_cast<int>(timed.size()) < kMinTimedEpochs ||
                            secondsSince(timed_start) < args.seconds) {
        try {
            timed.push_back(runEpoch(source));
        } catch (const std::exception &e) {
            std::cerr << "perfbench: training step failed: " << e.what()
                      << "\n";
            result.failed += 1;
            result.attempted += 1;
            result.correct = false;
            return result;
        }
        epochs.push_back(timed.back());
        std::cerr << "perfbench: epoch " << timed.size() << ": "
                  << timed.back().wall_seconds << " s\n";
        result.attempted += static_cast<std::uint64_t>(timed.back().batches);
    }
    const double rss_mib = peakRssMiB();
    const double oom_retries = static_cast<double>(
        obs::metrics().counter(obs::names::kCtrTrainOomRetries).value() -
        oom0);

    // --- Output checks (untimed).
    checkMicroEqualsWhole(spec, dataset, options, args.seed, result);
    result.check(timed.back().meanLoss() < timed.front().meanLoss(),
                 "the last timed epoch's loss is below the first's");

    // The serial reference: pipelined == serial bitwise, and (for the
    // pipelined workload) the seed check on the schedules it makes.
    std::vector<EpochRecord> serial;
    if (pipelined) {
        device::Device serial_gpu("gpu:serial", util::mib(spec.budget_mib));
        train::BuffaloTrainer reference(options, serial_gpu);
        EpochSource serial_source(spec, dataset, args.seed);
        const std::size_t count =
            1 + static_cast<std::size_t>(args.trace ? spec.traced_epochs
                                                    : kSerialParityEpochs);
        for (std::size_t e = 0; e < count; ++e) {
            serial.push_back(serialEpoch(reference, dataset,
                                         serial_source.next(),
                                         serial_source.rng()));
            result.check(serial.back().loss_sum == epochs[e].loss_sum,
                         "pipelined epoch loss == serial epoch loss, "
                         "epoch " + std::to_string(e));
        }
    }
    const std::vector<EpochRecord> &stepwise = pipelined ? serial : epochs;
    for (const EpochRecord &e : stepwise)
        result.check(e.seeds_once,
                     "each seed is in exactly one micro-batch");

    if (!args.trace) {
        std::vector<double> rates, walls_ms;
        for (const EpochRecord &e : timed) {
            rates.push_back(static_cast<double>(e.seeds) / e.wall_seconds);
            walls_ms.push_back(e.wall_seconds * 1e3);
        }
        addEndToEnd(result, setup_s, median(rates),
                    percentile(walls_ms, 50.0),
                    windowedPercentile(walls_ms, kLatencyWindowEpochs, 99.0),
                    rss_mib);
        return result;
    }

    // --- Traced replay of the same epochs, step by step.
    TracedReplay replay(options, util::mib(spec.budget_mib));
    EpochSource replay_source(spec, dataset, args.seed);
    // A private tracer: the library's own spans go to the global one,
    // which stays off. Disabled through the warm-up epoch.
    obs::Tracer tracer;
    LayerMetrics warmup, layers;
    layers.est_signed_error_max = -INFINITY;
    std::vector<EpochRecord> replayed{replay.epoch(
        dataset, replay_source.next(), replay_source.rng(), tracer,
        warmup)};
    tracer.enable();
    const KernelCounters k0 = KernelCounters::read();
    for (std::size_t e = 1; e < epochs.size(); ++e)
        replayed.push_back(replay.epoch(dataset, replay_source.next(),
                                        replay_source.rng(), tracer,
                                        layers));
    layers.tensor = KernelCounters::read() - k0;
    tracer.disable();
    result.check(tracer.droppedSpans() == 0,
                 "the tracer kept every span of the replay");
    const TraceSummary trace = writeTrace(tracer, tracePath(args));

    for (std::size_t e = 0; e < replayed.size(); ++e) {
        result.check(replayed[e].loss_sum == epochs[e].loss_sum,
                     "replayed epoch loss == trainer epoch loss, epoch " +
                         std::to_string(e));
        if (e < stepwise.size())
            result.check(replayed[e].step_losses == stepwise[e].step_losses,
                         "replayed step losses == trainer step losses, "
                         "epoch " + std::to_string(e));
    }

    // The untraced wall the replay is compared with: the serial path
    // that trained the same epochs (the pipelined trainer overlaps
    // stages, which a step-by-step replay does not).
    double traced_wall = 0.0, untraced_wall = 0.0, batches = 0.0;
    for (std::size_t e = 1; e < replayed.size(); ++e) {
        traced_wall += replayed[e].wall_seconds;
        untraced_wall += stepwise[e].wall_seconds;
        batches += replayed[e].batches;
    }
    layers.graph_load_s = graph_load_s;
    layers.readSpans(trace);
    layers.micro_batches /= batches;
    layers.oom_retries = oom_retries;
    layers.overhead_ratio = traced_wall / untraced_wall;
    for (const EpochRecord &e : timed) {
        layers.peak_bytes = std::max(
            layers.peak_bytes, static_cast<double>(e.peak_device_bytes));
        layers.sample_busy_s += e.report.stages.sample_busy_seconds;
        layers.build_busy_s += e.report.stages.build_busy_seconds;
        layers.feature_busy_s += e.report.stages.feature_busy_seconds;
    }
    if (pipelined) {
        // The cache's counters run across epochs: take the timed span.
        const train::CacheReport &first = epochs.front().report.cache;
        const train::CacheReport &last = epochs.back().report.cache;
        const double hits = static_cast<double>(last.hits - first.hits);
        const double misses =
            static_cast<double>(last.misses - first.misses);
        layers.cache_hit_rate = hits / (hits + misses);
    }
    layers.addTo(result);
    return result;
}

} // namespace perfbench
