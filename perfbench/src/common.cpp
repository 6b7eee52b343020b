#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/critical_path.h"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

std::string
formatNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
windowedPercentile(const std::vector<double> &values, std::size_t window,
                   double p)
{
    if (values.size() < window)
        return percentile(values, p);
    std::vector<double> per_window;
    for (std::size_t begin = 0; begin + window <= values.size();
         begin += window)
        per_window.push_back(percentile(
            {values.begin() + static_cast<std::ptrdiff_t>(begin),
             values.begin() + static_cast<std::ptrdiff_t>(begin + window)},
            p));
    return median(per_window);
}

int
limitToCores(int cores)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0)
        return 0;
    if (cores <= 0 || CPU_COUNT(&mask) <= cores)
        return CPU_COUNT(&mask);
    cpu_set_t kept;
    CPU_ZERO(&kept);
    for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < cores; ++cpu)
        if (CPU_ISSET(cpu, &mask)) {
            CPU_SET(cpu, &kept);
            ++taken;
        }
    if (sched_setaffinity(0, sizeof kept, &kept) != 0)
        return CPU_COUNT(&mask);
    return cores;
}

double
peakRssMiB()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::cerr << "perfbench: output check failed: " << what << "\n";
}

std::string
Result::toJson() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out << (i == 0 ? "" : ", ") << "\"" << m.name
            << "\": {\"value\": "
            << (std::isfinite(m.value) ? formatNumber(m.value) : "null")
            << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double
TraceSummary::seconds(const std::string &name) const
{
    const auto it = seconds_by_name.find(name);
    return it == seconds_by_name.end() ? 0.0 : it->second;
}

TraceSummary
writeTrace(const buffalo::obs::Tracer &tracer, const std::string &path)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    tracer.writeJson(path);
    std::vector<buffalo::obs::CpSpan> spans =
        buffalo::obs::loadTraceSpans(path);
    // Parents before the children they contain.
    std::sort(spans.begin(), spans.end(),
              [](const buffalo::obs::CpSpan &a,
                 const buffalo::obs::CpSpan &b) {
                  return a.start_us != b.start_us ? a.start_us < b.start_us
                                                  : a.end_us > b.end_us;
              });

    TraceSummary summary;
    summary.spans = spans.size();
    std::vector<double> self(spans.size());
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double duration = spans[i].end_us - spans[i].start_us;
        self[i] = duration;
        summary.seconds_by_name[spans[i].stage] += duration / 1e6;
        while (!open.empty() && spans[open.back()].end_us <= spans[i].start_us)
            open.pop_back();
        if (!open.empty())
            self[open.back()] -= duration;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &name = spans[i].stage;
        summary.self_seconds_by_layer[name.substr(0, name.find('.'))] +=
            self[i] / 1e6;
    }

    std::ofstream out(
        std::filesystem::path(path).replace_extension(".self.json"));
    out << "{";
    std::cerr << "perfbench: self time per layer over " << summary.spans
              << " spans\n";
    const char *separator = "";
    for (const auto &[layer, seconds] : summary.self_seconds_by_layer) {
        std::cerr << "  " << layer << ": " << seconds << " s\n";
        out << separator << "\"" << layer
            << "\": " << formatNumber(seconds);
        separator = ", ";
    }
    out << "}\n";
    std::cerr << "perfbench: spans written to " << path << "\n";
    return summary;
}

} // namespace perfbench
