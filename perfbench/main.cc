/**
 * @file
 * Benchmark entry point: one workload, one seed, one run.
 *
 *   perfbench --workload profile|ingest|query --seed N --seconds S
 *             --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
 *
 * Prints every metric by name with its unit, the attempted and failed
 * operation counts, and, as the last line, one JSON object. Exits 1
 * when an output check fails, 2 on a bad command line.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

/** Order the result by the metric tables and vet every value. */
Report
finalReport(Outcome &out, bool trace)
{
    Report report = std::move(out.report);
    if (!trace) {
        for (const MetricDef &def : kEndToEnd) {
            const auto it = out.e2e.find(def.name);
            const double value =
                it == out.e2e.end() ? std::nan("") : it->second;
            const auto alias = out.e2e_alias.find(def.name);
            report.add(def.name, value, def.unit,
                       alias == out.e2e_alias.end() ? def.meaning
                                                    : alias->second);
            // End-to-end metrics are never 0: a missing, zero or
            // unmeasurable one means the run did not do its work.
            if (!std::isfinite(value) || value <= 0.0) {
                report.checkFailed(std::string("end-to-end metric ") +
                                   def.name + " was not measured");
            }
        }
    } else {
        for (const MetricDef &def : kPerLayer) {
            const auto it = out.layers.find(def.name);
            const bool reached = it != out.layers.end();
            const double value = reached ? it->second : 0.0;
            report.add(def.name, value, def.unit,
                       std::string(reached ? "-> " : "(not reached) -> ") +
                           def.meaning);
            if (!std::isfinite(value))
                report.checkFailed(std::string("layer metric ") + def.name +
                                   " was not measured");
        }
    }
    return report;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, &args, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    Outcome (*run)(const Args &) = nullptr;
    if (args.workload == "profile")
        run = runProfileWorkload;
    else if (args.workload == "ingest")
        run = runIngestWorkload;
    else if (args.workload == "query")
        run = runQueryWorkload;
    if (run == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    Outcome outcome = run(args);
    const Report report = finalReport(outcome, args.trace);
    report.print();
    return report.checks_passed ? 0 : 1;
}
