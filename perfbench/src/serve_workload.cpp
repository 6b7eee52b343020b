/**
 * @file
 * serve-lstm (README.md, "Workloads"): serve::Server answering
 * forward-only SAGE-LSTM requests on arxiv-sim. One load-generator
 * thread drives a closed loop (a fixed window of outstanding
 * requests, no larger than the max batch) and then an open loop at
 * one fixed offered rate. The traced run replays the server's
 * prepare-and-infer path (sample, block generation, features,
 * forwardInference) per batch of the observed mean size.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>

#include "graph/datasets.h"
#include "sampling/block_generator.h"
#include "sampling/sampled_subgraph.h"
#include "serve/serve_loop.h"
#include "tensor/kernels.h"
#include "train/feature_loader.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace buffalo;
using graph::NodeId;
using graph::NodeList;

constexpr double kScale = 1.0;
constexpr std::size_t kMaxBatch = 32;
/** Closed-loop window: requests outstanding at any time. */
constexpr std::size_t kWindow = 32;
/**
 * Open-loop offered rate, requests/s. Fixed, never derived at run
 * time. About 30% of the closed-loop rate (1,300/s) and half the
 * unbatched service rate (~830/s) measured on a 4-core x86 AVX2 host:
 * at 600/s a host stall of a few milliseconds built a queue that took
 * tens of requests to drain, and one seed's p99 read 2.7 to 11.5 ms
 * across repeats (README.md, "Spread").
 */
constexpr double kOpenLoopRate = 400.0;
constexpr std::size_t kWarmupRequests = 64;
/** Share of the run spent in the closed loop; the open loop gets the
 *  rest, so its latency percentiles have several windows. */
constexpr double kClosedShare = 1.0 / 3.0;
/** Closed-loop throughput is a median over windows of this length. */
constexpr double kRateWindowSeconds = 0.25;
/** Open-loop latency percentiles are medians over consecutive windows
 *  of this many requests (about 0.6 s each, some 21 per 20 s run). Over
 *  six seeds the p99 spread 9.8% with windows of 250 requests, 18.5%
 *  with windows of 1,000 (README.md, "Spread"). */
constexpr std::size_t kLatencyWindow = 250;
/** Requests the traced run replays (untraced, then traced). */
constexpr std::size_t kReplayRequests = 4096;
/** Served seeds checked against a standalone run of the same seed. */
constexpr std::size_t kSecondPathSeeds = 64;
constexpr double kScoreRelTolerance = 1e-5;

serve::ServeOptions
serveOptions(const graph::Dataset &dataset, std::uint64_t seed)
{
    serve::ServeOptions options;
    options.model.aggregator = nn::AggregatorKind::Lstm;
    options.model.num_layers = 2;
    options.model.feature_dim = dataset.featureDim();
    options.model.hidden_dim = 32;
    options.model.num_classes = dataset.numClasses();
    // Fanout 20 at the input layer leaves about one arxiv-sim node in
    // nine with a two-hop cone the sampler takes whole (no random
    // draw), which the second-path check needs; at 10 there are none.
    options.fanouts = {20, 25};
    options.queue_capacity = 8192;
    options.max_batch = kMaxBatch;
    // Nothing expires: a late answer is still timed in full.
    options.deadline_ms = 600'000.0;
    options.prep_threads = 1;
    options.workers = 1;
    options.seed = seed;
    options.kernels.threads = 1;
    return options;
}

/** The request stream: node ids drawn uniformly from the seed. */
class RequestStream
{
  public:
    RequestStream(const graph::Dataset &dataset, std::uint64_t seed)
        : nodes_(dataset.graph().numNodes()), rng_(seed ^ 0x5E4E)
    {
    }
    NodeId next()
    {
        return static_cast<NodeId>(rng_.nextBounded(nodes_));
    }

  private:
    std::uint64_t nodes_;
    util::Rng rng_;
};

struct Served
{
    NodeId seed;
    serve::InferenceResponse response;
    double lag_ms = 0.0; ///< open loop: submit time minus due time
    /** Open loop: due time to the answer reaching the client. */
    double latency_ms = 0.0;
};

/** Bookkeeping shared by both loops: the exactly-once and range checks. */
struct Ledger
{
    std::vector<Served> served;
    std::uint64_t failed = 0;

    void
    record(NodeId seed, const serve::InferenceResponse &response,
           double lag_ms = 0.0, double latency_ms = 0.0)
    {
        served.push_back({seed, response, lag_ms, latency_ms});
        failed += response.status != serve::ResponseStatus::Ok;
    }
};

/** Closed loop for @p seconds; returns per-window Ok rates. */
std::vector<double>
closedLoop(serve::Server &server, RequestStream &stream, double seconds,
           Ledger &ledger)
{
    std::deque<std::pair<NodeId, std::future<serve::InferenceResponse>>>
        window;
    auto submit = [&] {
        const NodeId seed = stream.next();
        window.emplace_back(seed, server.submit(seed));
    };
    std::vector<double> rates;
    const Clock::time_point start = Clock::now();
    Clock::time_point window_start = start;
    std::uint64_t window_ok = 0;
    for (std::size_t i = 0; i < kWindow; ++i)
        submit();
    while (!window.empty()) {
        auto [seed, future] = std::move(window.front());
        window.pop_front();
        const serve::InferenceResponse response = future.get();
        ledger.record(seed, response);
        window_ok += response.status == serve::ResponseStatus::Ok;
        const double in_window = secondsSince(window_start);
        if (in_window >= kRateWindowSeconds) {
            rates.push_back(static_cast<double>(window_ok) / in_window);
            window_start = Clock::now();
            window_ok = 0;
        }
        if (secondsSince(start) < seconds)
            submit();
    }
    return rates;
}

/**
 * Open loop at kOpenLoopRate for @p seconds; whole requests only. A
 * collector thread waits on the answers in submission order (one
 * worker answers in that order) and stamps each when it is ready, so
 * a request's latency is taken on the client side, from its due time.
 */
void
openLoop(serve::Server &server, RequestStream &stream, double seconds,
         Ledger &ledger)
{
    const std::size_t count =
        static_cast<std::size_t>(std::llround(kOpenLoopRate * seconds));
    struct Pending
    {
        NodeId seed;
        Clock::time_point due;
        double lag_ms;
        std::future<serve::InferenceResponse> future;
    };
    std::vector<Pending> pending(count);
    std::mutex mutex;
    std::condition_variable submitted_cv;
    std::size_t submitted = 0; // guarded by mutex
    std::vector<double> latency_ms(count);

    std::thread collector([&] {
        for (std::size_t i = 0; i < count; ++i) {
            {
                std::unique_lock lock(mutex);
                submitted_cv.wait(lock, [&] { return submitted > i; });
            }
            pending[i].future.wait();
            latency_ms[i] = std::chrono::duration<double, std::milli>(
                                Clock::now() - pending[i].due)
                                .count();
        }
    });
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        Pending &p = pending[i];
        p.due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / kOpenLoopRate));
        std::this_thread::sleep_until(p.due);
        p.seed = stream.next();
        p.lag_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                             p.due)
                       .count();
        p.future = server.submit(p.seed);
        {
            const std::lock_guard lock(mutex);
            submitted = i + 1;
        }
        submitted_cv.notify_one();
    }
    collector.join();
    for (std::size_t i = 0; i < count; ++i)
        ledger.record(pending[i].seed, pending[i].future.get(),
                      pending[i].lag_ms, latency_ms[i]);
}

/**
 * True when no random draw enters @p seed's sampled cone: every node
 * the sampler expands has an in-degree within that layer's fanout, so
 * the sampler takes each neighbor list whole, in CSR order.
 */
bool
deterministicCone(const graph::CsrGraph &graph, NodeId seed,
                  const std::vector<int> &fanouts)
{
    NodeList frontier{seed};
    std::set<NodeId> seen{seed};
    for (int layer = static_cast<int>(fanouts.size()) - 1; layer >= 0;
         --layer) {
        NodeList grown = frontier;
        for (NodeId node : frontier) {
            const auto nbrs = graph.neighbors(node);
            if (nbrs.size() > static_cast<std::size_t>(fanouts[layer]))
                return false;
            for (NodeId nbr : nbrs)
                if (seen.insert(nbr).second)
                    grown.push_back(nbr);
        }
        frontier = std::move(grown);
    }
    return true;
}

/** One seed run alone through the public sampler, block generator,
 *  feature loader and forwardInference, outside the server. */
std::pair<std::int32_t, float>
standalone(const graph::Dataset &dataset, train::GnnModel &model,
           const std::vector<int> &fanouts, NodeId seed)
{
    sampling::NeighborSampler sampler(fanouts);
    util::Rng rng(seed);
    const sampling::SampledSubgraph sg =
        sampler.sample(dataset.graph(), {seed}, rng);
    sampling::FastBlockGenerator generator;
    const sampling::MicroBatch mb = generator.generate(sg, {0});
    const nn::Tensor feats = train::loadFeatures(dataset, mb.inputNodes());
    const nn::Tensor logits = model.forwardInference(mb, feats, nullptr);
    const float *row = logits.data();
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c)
        if (row[c] > row[best])
            best = c;
    return {static_cast<std::int32_t>(best), row[best]};
}

void
checkServed(const graph::Dataset &dataset,
            const serve::ServeOptions &options, const Ledger &ledger,
            std::uint64_t submitted, Result &result)
{
    std::set<std::uint64_t> ids;
    bool in_range = true;
    for (const Served &s : ledger.served) {
        ids.insert(s.response.id);
        if (s.response.status == serve::ResponseStatus::Ok)
            in_range = in_range && s.response.predicted_class >= 0 &&
                       s.response.predicted_class < dataset.numClasses();
    }
    result.check(ledger.served.size() == submitted &&
                     ids.size() == submitted,
                 "every request is answered exactly once");
    result.check(in_range, "predicted classes lie in [0, classes)");

    std::unique_ptr<train::GnnModel> model = train::makeModel(
        options.model_kind, options.model, options.seed);
    std::size_t compared = 0, agree = 0;
    for (const Served &s : ledger.served) {
        if (compared == kSecondPathSeeds)
            break;
        if (s.response.status != serve::ResponseStatus::Ok ||
            !deterministicCone(dataset.graph(), s.seed, options.fanouts))
            continue;
        const auto [cls, score] =
            standalone(dataset, *model, options.fanouts, s.seed);
        ++compared;
        agree += cls == s.response.predicted_class &&
                 std::fabs(score - s.response.score) <=
                     kScoreRelTolerance *
                         std::max(1.0f, std::fabs(score));
    }
    std::cerr << "perfbench: second path: " << agree << " of " << compared
              << " deterministic-cone seeds agree\n";
    result.check(compared > 0 && agree == compared,
                 "served class and score == the seed run alone");
}

/** Prepare-and-infer per batch, as Server::prepare + workerLoop do. */
double
replay(const graph::Dataset &dataset, train::GnnModel &model,
       const std::vector<int> &fanouts,
       const std::vector<NodeList> &batches, obs::Tracer &tracer,
       LayerMetrics &counts)
{
    sampling::NeighborSampler sampler(fanouts);
    sampling::FastBlockGenerator generator;
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
        obs::Span batch_span(tracer, "serve.batch", b + 1);
        const NodeList &seeds = batches[b];
        util::Rng rng(0x5EEDF00Dull + b);
        sampling::SampledSubgraph sg;
        {
            obs::Span span(tracer, "sampling.sample", b + 1);
            sg = sampler.sample(dataset.graph(), seeds, rng);
        }
        NodeList outputs(seeds.size());
        for (std::size_t i = 0; i < outputs.size(); ++i)
            outputs[i] = static_cast<NodeId>(i);
        sampling::MicroBatch mb;
        {
            obs::Span span(tracer, "sampling.blockgen", b + 1);
            mb = generator.generate(sg, outputs);
        }
        nn::Tensor feats;
        {
            obs::Span span(tracer, "train.load_features", b + 1);
            feats = train::loadFeatures(dataset, mb.inputNodes());
        }
        {
            obs::Span span(tracer, "nn.infer", b + 1);
            model.forwardInference(mb, feats, nullptr);
        }
        for (int layer = 0; layer < sg.numLayers(); ++layer)
            counts.sampled_edges += static_cast<double>(
                sg.layerAdjacency(layer).numEdges());
        counts.block_nodes += static_cast<double>(mb.totalNodeCount());
        counts.feature_bytes += static_cast<double>(feats.bytes());
    }
    return secondsSince(start);
}

} // namespace

Result
runServeWorkload(const Args &args)
{
    Result result;
    const Clock::time_point load_start = Clock::now();
    const graph::Dataset dataset =
        graph::loadDataset(graph::DatasetId::Arxiv, args.seed, kScale);
    const double graph_load_s = secondsSince(load_start);

    const serve::ServeOptions options = serveOptions(dataset, args.seed);
    tensor::kernels::setConfig(options.kernels);
    RequestStream stream(dataset, args.seed);
    Ledger ledger;
    double closed_rate = 0.0;
    std::vector<double> queue_ms, service_ms, lags_ms;
    double mean_batch = 0.0;
    {
        serve::Server server(options, dataset);
        // Warm-up: requests one at a time, answered and discarded.
        Ledger warm;
        for (std::size_t i = 0; i < kWarmupRequests; ++i) {
            const NodeId seed = stream.next();
            warm.record(seed, server.submit(seed).get());
        }
        const double setup_s = secondsSince(processStart());
        const serve::ServeSnapshot before = server.stats();

        const std::vector<double> rates =
            closedLoop(server, stream, args.seconds * kClosedShare, ledger);
        closed_rate = median(rates);
        const serve::ServeSnapshot after_closed = server.stats();
        mean_batch =
            static_cast<double>(after_closed.completed - before.completed) /
            static_cast<double>(after_closed.batches - before.batches);
        const std::size_t closed_count = ledger.served.size();

        openLoop(server, stream, args.seconds * (1.0 - kClosedShare),
                 ledger);
        const double rss_mib = peakRssMiB();
        std::vector<double> latency_ms;
        for (std::size_t i = closed_count; i < ledger.served.size(); ++i) {
            const Served &s = ledger.served[i];
            latency_ms.push_back(s.latency_ms);
            queue_ms.push_back(s.response.queue_ms);
            service_ms.push_back(s.response.latency_ms -
                                 s.response.queue_ms);
            lags_ms.push_back(s.lag_ms);
        }
        const serve::ServeSnapshot end = server.stats();
        server.shutdown();

        result.attempted = ledger.served.size();
        result.failed = ledger.failed;
        checkServed(dataset, options, ledger,
                    end.submitted - before.submitted, result);
        result.check(warm.failed == 0, "warm-up requests are answered Ok");
        if (!args.trace) {
            addEndToEnd(
                result, setup_s, closed_rate,
                windowedPercentile(latency_ms, kLatencyWindow, 50.0),
                windowedPercentile(latency_ms, kLatencyWindow, 99.0),
                rss_mib);
            return result;
        }
    }

    // --- Traced run: the prepare-and-infer path, batch by batch.
    const std::size_t batch_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(mean_batch)));
    std::vector<NodeList> batches;
    RequestStream replay_stream(dataset, args.seed);
    for (std::size_t n = 0; n < kReplayRequests;) {
        NodeList seeds;
        std::set<NodeId> unique;
        for (std::size_t i = 0; i < batch_size && n < kReplayRequests;
             ++i, ++n) {
            const NodeId seed = replay_stream.next();
            if (unique.insert(seed).second) // the server dedups too
                seeds.push_back(seed);
        }
        batches.push_back(std::move(seeds));
    }
    std::unique_ptr<train::GnnModel> model = train::makeModel(
        options.model_kind, options.model, options.seed);
    obs::Tracer tracer; // private, and disabled through the first pass
    LayerMetrics unused, layers;
    const double untraced_wall = replay(dataset, *model, options.fanouts,
                                        batches, tracer, unused);
    tracer.enable();
    const KernelCounters k0 = KernelCounters::read();
    const double traced_wall =
        replay(dataset, *model, options.fanouts, batches, tracer, layers);
    layers.tensor = KernelCounters::read() - k0;
    tracer.disable();
    result.check(tracer.droppedSpans() == 0,
                 "the tracer kept every span of the replay");
    const TraceSummary trace = writeTrace(tracer, tracePath(args));

    layers.graph_load_s = graph_load_s;
    layers.readSpans(trace);
    layers.queue_ms_p50 = median(queue_ms);
    layers.service_ms_p50 = median(service_ms);
    layers.mean_batch = mean_batch;
    layers.generator_lag_ms = percentile(lags_ms, 99.0);
    layers.overhead_ratio = traced_wall / untraced_wall;
    layers.addTo(result);
    return result;
}

} // namespace perfbench
