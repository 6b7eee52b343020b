/**
 * @file
 * Figure 12: block generation time, Buffalo's fast generator vs. the
 * Betty-style re-checking generator, for 2-32 micro-batches (paper
 * reports up to 8x; §IV-E claims 10x for the end-to-end preparation).
 *
 * Uses google-benchmark for the per-strategy timing, then prints the
 * figure's comparison table.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <unordered_map>

#include "sampling/block_generator.h"
#include "util/thread_pool.h"

using namespace buffalo;

namespace {

struct Workload
{
    graph::Dataset data;
    sampling::SampledSubgraph sg;
    std::vector<graph::NodeList> parts;
};

Workload &
workload(graph::DatasetId id, std::size_t num_seeds, int parts)
{
    static std::map<std::pair<int, int>, std::unique_ptr<Workload>>
        cache;
    auto key = std::make_pair(static_cast<int>(id), parts);
    auto &slot = cache[key];
    if (!slot) {
        slot = std::make_unique<Workload>();
        slot->data = graph::loadDataset(id, 42);
        util::Rng rng(17);
        sampling::NeighborSampler sampler({10, 25});
        slot->sg = sampler.sample(
            slot->data.graph(),
            bench::seedBatch(slot->data, num_seeds), rng);
        // Range-split the seeds into the requested micro-batches.
        slot->parts.resize(parts);
        for (graph::NodeId seed = 0; seed < slot->sg.numSeeds();
             ++seed) {
            slot->parts[seed * parts / slot->sg.numSeeds()].push_back(
                seed);
        }
    }
    return *slot;
}

void
runGenerator(benchmark::State &state, graph::DatasetId id,
             std::size_t seeds, bool fast)
{
    const int parts = static_cast<int>(state.range(0));
    Workload &work = workload(id, seeds, parts);
    sampling::FastBlockGenerator fast_gen;
    sampling::BaselineBlockGenerator slow_gen;
    for (auto _ : state) {
        for (const auto &part : work.parts) {
            auto mb = fast ? fast_gen.generate(work.sg, part)
                           : slow_gen.generate(work.sg, part);
            benchmark::DoNotOptimize(mb.blocks.data());
        }
    }
}

void
BM_ArxivFast(benchmark::State &state)
{
    runGenerator(state, graph::DatasetId::Arxiv, 1024, true);
}

void
BM_ArxivBaseline(benchmark::State &state)
{
    runGenerator(state, graph::DatasetId::Arxiv, 1024, false);
}

void
BM_ProductsFast(benchmark::State &state)
{
    runGenerator(state, graph::DatasetId::Products, 1024, true);
}

void
BM_ProductsBaseline(benchmark::State &state)
{
    runGenerator(state, graph::DatasetId::Products, 1024, false);
}

BENCHMARK(BM_ArxivFast)->Arg(2)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_ArxivBaseline)->Arg(2)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_ProductsFast)->Arg(2)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_ProductsBaseline)->Arg(2)->Arg(8)->Arg(16)->Arg(32);

/**
 * The fast generator as it stood before the parallel rewrite: the
 * same single CSR-row read per destination, but hash-map first-seen
 * dedup and fully serial construction. Kept here as the in-run
 * reference for blockgen_flat_beats_hashmap_1t — the committed gate
 * that the flat table actually pays for itself.
 */
sampling::MicroBatch
referenceGenerate(const sampling::SampledSubgraph &sg,
                  const graph::NodeList &output_locals)
{
    using sampling::Block;
    using graph::NodeId;
    sampling::MicroBatch mb;
    mb.blocks.resize(sg.numLayers());
    graph::NodeList dst = output_locals;
    for (int layer = sg.numLayers() - 1; layer >= 0; --layer) {
        const graph::CsrGraph &adjacency = sg.layerAdjacency(layer);
        Block &block = mb.blocks[layer];
        block.num_dst = static_cast<NodeId>(dst.size());
        block.offsets.resize(dst.size() + 1, 0);
        for (std::size_t i = 0; i < dst.size(); ++i)
            block.offsets[i + 1] =
                block.offsets[i] + adjacency.degree(dst[i]);
        block.src_nodes = dst;
        std::unordered_map<NodeId, NodeId> to_block;
        to_block.reserve(dst.size() * 2);
        for (NodeId i = 0; i < dst.size(); ++i)
            to_block.emplace(dst[i], i);
        block.neighbors.reserve(block.offsets.back());
        for (std::size_t i = 0; i < dst.size(); ++i) {
            for (NodeId nbr : adjacency.neighbors(dst[i])) {
                auto [it, inserted] = to_block.emplace(
                    nbr,
                    static_cast<NodeId>(block.src_nodes.size()));
                if (inserted)
                    block.src_nodes.push_back(nbr);
                block.neighbors.push_back(it->second);
            }
        }
        dst = block.src_nodes;
    }
    for (Block &block : mb.blocks)
        for (NodeId &id : block.src_nodes)
            id = sg.globalId(id);
    return mb;
}

/** Interleaved timing rounds per verdict (chance separation of two
 *  identical paths 1 / C(10, 5) = 1/252). */
constexpr std::size_t kRounds = 5;

/** Seconds to generate every micro-batch of @p work with @p gen,
 *  after one untimed warm-up pass (wakes the pool's workers). */
template <typename Generate>
double
timeParts(const Workload &work, const Generate &gen)
{
    for (const auto &part : work.parts)
        gen(part);
    util::StopWatch watch;
    for (const auto &part : work.parts)
        gen(part);
    return watch.seconds();
}

/**
 * Two in-run verdicts, each with one cause, on the products batch at
 * 2 micro-batches (the largest per-batch destination sets). N
 * interleaved rounds (one warm-up pass before every sample) time the
 * pre-rewrite hash-map reference, the flat-table generator on a
 * 1-worker pool and the same generator on a 4-worker pool, all
 * serial except the last (grain lowered so the parallel
 * construction engages at this size):
 *   - blockgen_flat_beats_hashmap_1t = 1 iff every reference sample
 *     is slower than every flat 1-worker sample (the data structure
 *     is the only difference);
 *   - blockgen_threads_beat_serial = 1 iff every flat 1-worker sample
 *     is slower than every flat 4-worker sample (the worker count is
 *     the only difference); it holds vacuously with fewer than 2
 *     usable cores, where 4 workers only add queue overhead.
 * Only the first is gated. The second is info(): on a 4-vCPU x86
 * host the 4-worker run was 1.6-1.9x slower than the 1-worker run
 * in every bench run (about 1.7 ms against 1.0 ms), so the parallel
 * construction does not pay at this size and a gate would pin
 * either a loss or a verdict that working code cannot reach.
 */
void
reportBlockgenVerdicts(bench::Reporter &reporter)
{
    Workload &work = workload(graph::DatasetId::Products, 1024, 2);
    sampling::FastBlockGenerator::Grain grain;
    grain.parallel_dst_threshold = 512;
    grain.min_chunk = 512;
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    const sampling::FastBlockGenerator flat1(&pool1, grain);
    const sampling::FastBlockGenerator flat4(&pool4, grain);

    std::vector<double> ref_s, flat1_s, flat4_s;
    for (std::size_t round = 0; round < kRounds; ++round) {
        ref_s.push_back(timeParts(work, [&](const auto &part) {
            referenceGenerate(work.sg, part);
        }));
        flat1_s.push_back(timeParts(work, [&](const auto &part) {
            flat1.generate(work.sg, part);
        }));
        flat4_s.push_back(timeParts(work, [&](const auto &part) {
            flat4.generate(work.sg, part);
        }));
    }

    bench::banner("Block construction: hash-map reference vs flat "
                  "table, 1 vs 4 workers");
    std::printf("reference (hash-map, serial): %s (median)\n",
                util::formatSeconds(bench::median(ref_s)).c_str());
    std::printf("flat table, 1 worker: %s (median)\n",
                util::formatSeconds(bench::median(flat1_s)).c_str());
    std::printf("flat table, 4 workers: %s (median)\n",
                util::formatSeconds(bench::median(flat4_s)).c_str());
    const bool flat_ok =
        bench::separated("blockgen_flat_beats_hashmap_1t", "hash-map",
                         ref_s, "flat-1t", flat1_s);
    const std::size_t cores = bench::usableCores();
    bool threads_ok = true;
    if (cores >= 2)
        threads_ok = bench::separated("blockgen_threads_beat_serial",
                                      "flat-1t", flat1_s, "flat-4t",
                                      flat4_s);
    else
        std::printf("threads verdict not applicable: %zu usable core; "
                    "blockgen_threads_beat_serial = 1\n",
                    cores);
    reporter
        .metric("blockgen_reference_seconds", bench::median(ref_s), 2.0)
        .metric("blockgen_4threads_seconds", bench::median(flat4_s),
                2.0)
        .metric("blockgen_flat_beats_hashmap_1t", flat_ok ? 1.0 : 0.0,
                0.0)
        .info("blockgen_threads_beat_serial", threads_ok ? 1.0 : 0.0)
        .info("blockgen_flat_speedup_1t_median",
              bench::median(ref_s) / bench::median(flat1_s))
        .info("blockgen_thread_speedup_4t_median",
              bench::median(flat1_s) / bench::median(flat4_s));
}

/** Prints the figure's summary table from direct measurements. */
void
printSummary()
{
    bench::Reporter reporter("fig12");
    util::Table table({"dataset", "#micro-batches", "Betty-style",
                       "Buffalo fast", "speedup"});
    for (auto id :
         {graph::DatasetId::Arxiv, graph::DatasetId::Products}) {
        for (int parts : {2, 8, 16, 32}) {
            Workload &work = workload(id, 1024, parts);
            sampling::FastBlockGenerator fast_gen;
            sampling::BaselineBlockGenerator slow_gen;

            double slow = 1e30, fast = 1e30;
            for (int rep = 0; rep < 3; ++rep) {
                util::StopWatch watch;
                for (const auto &part : work.parts)
                    slow_gen.generate(work.sg, part);
                slow = std::min(slow, watch.seconds());
                watch.reset();
                for (const auto &part : work.parts)
                    fast_gen.generate(work.sg, part);
                fast = std::min(fast, watch.seconds());
            }

            reporter.info(work.data.name() + ".k" +
                              std::to_string(parts) + ".speedup",
                          slow / fast);
            table.addRow({work.data.name(), std::to_string(parts),
                          util::formatSeconds(slow),
                          util::formatSeconds(fast),
                          util::Table::num(slow / fast, 1) + "x"});
        }
    }
    bench::banner("Figure 12: block generation time summary");
    table.print();
    reportBlockgenVerdicts(reporter);
    reporter.write();
    std::printf("paper shape: Buffalo is up to 8x faster (e.g. 0.70s "
                "vs 5.21s on arxiv at 16 micro-batches)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printSummary();
    return 0;
}
