/**
 * @file
 * Shared pieces of the benchmark: the run arguments, the result line
 * (the last line of stdout), order statistics, and the summary of a
 * traced run's spans.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** The time the process started (static initialization). */
Clock::time_point processStart();

double secondsSince(Clock::time_point start);

/** Linearly interpolated percentile @p p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/**
 * Median, over consecutive whole windows of @p window values, of each
 * window's percentile @p p, so that one stall decides a window, not the
 * run. A series shorter than one window is one window.
 */
double windowedPercentile(const std::vector<double> &values,
                          std::size_t window, double p);

/**
 * Keeps the calling thread, and every thread it starts later, on the
 * first @p cores CPUs of its affinity mask. No-op for 0 or when the
 * mask holds no more than @p cores CPUs. Returns the CPUs left.
 */
int limitToCores(int cores);

/** The process's resident-set high-water mark, MiB. */
double peakRssMiB();

/** One run's verdict and numbers, printed as the last stdout line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Records an output check; a false @p ok marks the run incorrect
     *  and names the check on stderr. */
    void check(bool ok, const std::string &what);

    std::string toJson() const;
};

/**
 * What a traced replay's spans add up to, read back from the Chrome
 * trace its obs::Tracer wrote. A span's layer is its name up to the
 * first '.'; the replay runs on one thread, so a span's children are
 * the spans its interval contains.
 */
struct TraceSummary
{
    std::size_t spans = 0;
    std::map<std::string, double> seconds_by_name;
    /** Summed span time minus the time of child spans. */
    std::map<std::string, double> self_seconds_by_layer;

    double seconds(const std::string &name) const;
};

/**
 * Writes @p tracer's spans to @p path as Chrome trace events, reads
 * them back and sums them; writes the self time per layer beside it
 * (`<name>.self.json`) and to stderr. Only item-attributed spans
 * (item > 0) are read back, so every replay span carries one.
 */
TraceSummary writeTrace(const buffalo::obs::Tracer &tracer,
                        const std::string &path);

} // namespace perfbench
