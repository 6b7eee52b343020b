/**
 * @file
 * buffalo_train end to end. The trainers reset the device allocator's
 * peak before every micro-batch group, so the CLI's "peak device
 * memory" line must report the run's high-water mark — the value the
 * process-wide device.peak_bytes gauge holds — and not the peak of
 * the last group.
 *
 * The binary path arrives via the BUFFALO_TRAIN_BIN compile
 * definition (tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>

#include "util/format.h"

namespace buffalo {
namespace {

namespace fs = std::filesystem;

struct RunResult
{
    int exit_code = -1;
    std::string output;
};

RunResult
runTrain(const std::string &args)
{
    const std::string command =
        std::string(BUFFALO_TRAIN_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "popen failed for: " << command;
    RunResult result;
    if (pipe == nullptr)
        return result;
    char buffer[4096];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        result.output += buffer;
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(BuffaloTrainCli, PrintsTheRunsPeakDeviceMemory)
{
    const fs::path dir = fs::path(testing::TempDir());
    const fs::path metrics = dir / "cli_train_metrics.json";
    const fs::path audit = dir / "cli_train_audit.json";
    fs::remove(metrics);
    fs::remove(audit);
    // A budget that splits the batch into 16 groups of different
    // sizes, so the last group's peak is below the run's.
    const RunResult run = runTrain(
        "--dataset products --scale 0.1 --aggregator lstm --hidden 16 "
        "--fanouts 5,10 --batch-size 256 --epochs 1 --budget-mb 4 "
        "--kernel-threads 1 --metrics-json " +
        metrics.string() + " --audit-json " + audit.string());
    ASSERT_EQ(run.exit_code, 0) << run.output;

    std::smatch printed;
    ASSERT_TRUE(std::regex_search(
        run.output, printed,
        std::regex("peak device memory: ([0-9.]+ [KMGT]?B) of")))
        << run.output;
    const std::string json = readFile(metrics);
    std::smatch gauge;
    ASSERT_TRUE(std::regex_search(
        json, gauge,
        std::regex("\"device\\.peak_bytes\"\\s*:\\s*([0-9.eE+]+)")))
        << json;
    const double peak = std::stod(gauge[1].str());
    EXPECT_EQ(printed[1].str(),
              util::formatBytes(static_cast<std::uint64_t>(peak)));

    // The run must exercise the reset: the audit's last group peaked
    // visibly below the run.
    const std::string audit_json = readFile(audit);
    const std::regex group_peak("\"actual_bytes\":([0-9]+)");
    std::string last_group;
    for (auto it = std::sregex_iterator(audit_json.begin(),
                                        audit_json.end(), group_peak);
         it != std::sregex_iterator(); ++it)
        last_group = (*it)[1].str();
    ASSERT_FALSE(last_group.empty()) << audit_json;
    EXPECT_NE(util::formatBytes(std::stoull(last_group)),
              printed[1].str());
}

} // namespace
} // namespace buffalo
