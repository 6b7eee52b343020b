/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 *
 * Scale convention: datasets are simulated at a reduced node count
 * (graph::DatasetSpec records the factor), so GPU memory budgets are
 * scaled by the same factor (times the feature-width ratio) to keep
 * the *ratio of memory demand to capacity* equal to the paper's
 * testbed. scaledBudget(data, 24.0) is therefore "the 24 GB RTX 6000
 * at this dataset's scale". Every bench prints the scale it ran at.
 */
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "graph/datasets.h"
#include "obs/json.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/table.h"

namespace buffalo::bench {

/**
 * Machine-readable bench reporting (DESIGN.md, "Memory audit & bench
 * regression"). Every bench binary owns one Reporter and emits
 * `BENCH_<name>.json` next to its ASCII table; `tools/bench_diff`
 * compares two such files and ci.sh gates the smoke bench against a
 * committed baseline.
 *
 * Each metric carries its own allowed relative drift, stored in the
 * JSON — a refreshed baseline re-states the tolerance policy next to
 * the numbers it governs. Deterministic quantities (byte counts,
 * group counts under the cost model with fixed seeds) get tight
 * tolerances via metric(); timing-derived quantities go through
 * info(), which records them for trend inspection but can never fail
 * a diff. Metric names must be unique within one report.
 */
class Reporter
{
  public:
    /** Tolerance used by info(): drift can never exceed it. */
    static constexpr double kInfoTolerance = 1e9;

    explicit Reporter(std::string name) : name_(std::move(name)) {}

    /** Records one gated metric allowing @p tolerance relative drift. */
    Reporter &
    metric(const std::string &metric_name, double value,
           double tolerance)
    {
        entries_.push_back({metric_name, value, tolerance});
        return *this;
    }

    /** Records an informational (never-gated) metric. */
    Reporter &
    info(const std::string &metric_name, double value)
    {
        return metric(metric_name, value, kInfoTolerance);
    }

    /** The bench-report JSON document. */
    std::string
    toJson() const
    {
        obs::JsonWriter w;
        w.beginObject();
        w.key("bench").value(name_);
        w.key("metrics").beginObject();
        for (const Entry &entry : entries_) {
            w.key(entry.name).beginObject();
            w.key("value").value(entry.value);
            w.key("tolerance").value(entry.tolerance);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        return w.str();
    }

    /**
     * Writes `BENCH_<name>.json` into $BUFFALO_BENCH_DIR (falling
     * back to the working directory) and prints the path.
     */
    void
    write() const
    {
        const char *dir = std::getenv("BUFFALO_BENCH_DIR");
        const std::string path =
            std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
            "/BENCH_" + name_ + ".json";
        obs::writeFileText(path, toJson());
        std::printf("bench report: %s\n", path.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        double tolerance;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

/** Cores this process may run on (its affinity mask, on Linux). */
inline std::size_t
usableCores()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

inline double
median(std::vector<double> samples)
{
    const auto mid = samples.begin() + samples.size() / 2;
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

inline double
fastest(const std::vector<double> &samples)
{
    return *std::min_element(samples.begin(), samples.end());
}

inline double
slowest(const std::vector<double> &samples)
{
    return *std::max_element(samples.begin(), samples.end());
}

/**
 * The in-run verdict "every @p slow sample exceeds every @p fast
 * sample", printed with the two sample extremes it rests on. Were
 * the two sides the same code, complete separation of N interleaved
 * samples each would occur by chance with probability 1 / C(2N, N)
 * (1/252 at N = 5).
 */
inline bool
separated(const char *name, const std::string &slow_label,
          const std::vector<double> &slow,
          const std::string &fast_label,
          const std::vector<double> &fast)
{
    const bool holds = fastest(slow) > slowest(fast);
    std::printf("%s = %d: fastest %s %s %s slowest %s %s\n", name,
                holds ? 1 : 0, slow_label.c_str(),
                util::formatSeconds(fastest(slow)).c_str(),
                holds ? ">" : "<=", fast_label.c_str(),
                util::formatSeconds(slowest(fast)).c_str());
    return holds;
}

/** Memory-scale factor: node scale x feature-width scale. */
inline double
memoryScale(const graph::Dataset &data)
{
    const auto &spec = data.spec();
    return data.scaleFactor() *
           (static_cast<double>(spec.sim_feature_dim) /
            static_cast<double>(spec.paper_feature_dim));
}

/**
 * @p paper_gb of device memory, scaled to the dataset's size.
 *
 * The result is floored at 32 MB: per-seed working sets (the sampled
 * L-hop cone) do not shrink with graph scale, so extremely down-scaled
 * datasets (papers-sim at ~1/2000 of the paper) would otherwise get a
 * budget below the cost of even a one-seed micro-batch.
 */
inline std::uint64_t
scaledBudget(const graph::Dataset &data, double paper_gb)
{
    const double bytes = paper_gb * 1024.0 * 1024.0 * 1024.0 *
                         memoryScale(data);
    return std::max<std::uint64_t>(static_cast<std::uint64_t>(bytes),
                                   util::mib(32));
}

/** The paper's standard GraphSAGE config for @p data. */
inline train::TrainerOptions
paperOptions(const graph::Dataset &data,
             nn::AggregatorKind aggregator = nn::AggregatorKind::Lstm,
             int hidden = 128, int num_layers = 2)
{
    train::TrainerOptions options;
    options.model.aggregator = aggregator;
    options.model.num_layers = num_layers;
    options.model.feature_dim = data.featureDim();
    // Hidden widths scale with the feature-width reduction so compute
    // and memory shapes stay proportional.
    options.model.hidden_dim = std::max(8, hidden / 4);
    options.model.num_classes = data.numClasses();
    options.fanouts.assign(num_layers, 10);
    if (num_layers >= 2)
        options.fanouts.back() = 25;
    options.mode = train::ExecutionMode::CostModel;
    return options;
}

/**
 * A deterministic batch of up to @p count training seeds, strided
 * across the whole id space (so e.g. papers-sim's high-id isolated
 * nodes are represented, as they would be in a random batch).
 */
inline graph::NodeList
seedBatch(const graph::Dataset &data, std::size_t count)
{
    const auto &train = data.trainNodes();
    count = std::min(count, train.size());
    if (count == 0)
        return {};
    graph::NodeList seeds;
    seeds.reserve(count);
    const double stride =
        static_cast<double>(train.size()) / static_cast<double>(count);
    for (std::size_t i = 0; i < count; ++i)
        seeds.push_back(train[static_cast<std::size_t>(i * stride)]);
    return seeds;
}

/** Full-batch seeds: every node of the graph (paper Figs. 2/13). */
inline graph::NodeList
fullBatch(const graph::Dataset &data)
{
    graph::NodeList seeds(data.graph().numNodes());
    for (graph::NodeId u = 0; u < seeds.size(); ++u)
        seeds[u] = u;
    return seeds;
}

/**
 * Up to @p count seeds strided across *all* node ids (not just train
 * nodes) — a large batch that stays tractable on one simulator core.
 */
inline graph::NodeList
nodeBatch(const graph::Dataset &data, std::size_t count)
{
    const std::size_t n = data.graph().numNodes();
    count = std::min(count, n);
    graph::NodeList seeds;
    seeds.reserve(count);
    const double stride =
        static_cast<double>(n) / static_cast<double>(count);
    for (std::size_t i = 0; i < count; ++i)
        seeds.push_back(static_cast<graph::NodeId>(i * stride));
    return seeds;
}

/** Prints the standard bench banner with scale information. */
inline void
banner(const std::string &title, const graph::Dataset &data)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("dataset %s: %s nodes (scale %.4g of paper), "
                "%s edges, memory scale %.4g\n",
                data.name().c_str(),
                util::Table::count(data.graph().numNodes()).c_str(),
                data.scaleFactor(),
                util::Table::count(data.graph().numEdges()).c_str(),
                memoryScale(data));
}

/** Prints a plain section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace buffalo::bench
