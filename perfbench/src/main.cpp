/**
 * @file
 * perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload (README.md) in this process through the library's
 * public API and prints, as the last stdout line, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 times the
 * workload with tracing off and reports the end-to-end metrics;
 * --trace 1 adds a traced replay and reports the per-layer metrics.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload train-lstm|"
                 "train-mean-pipe|serve-lstm --seed N --seconds S "
                 "--trace 0|1\n";
    std::exit(2);
}

perfbench::Args
parseArgs(int argc, char **argv)
{
    perfbench::Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Args args = parseArgs(argc, argv);
    perfbench::Result result;
    try {
        if (perfbench::isTrainWorkload(args.workload))
            result = perfbench::runTrainWorkload(args);
        else if (args.workload == "serve-lstm")
            result = perfbench::runServeWorkload(args);
        else
            usage("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }
    std::cout << result.toJson() << std::endl;
    return 0;
}
