/**
 * @file
 * Helpers every workload's traced run shares.
 */

#include <cstdio>
#include <filesystem>

#include "workloads.h"

namespace perfbench {

void
addTraceOverhead(Outcome *out, double untraced_p50, double traced_p50,
                 double untraced_throughput, double traced_throughput)
{
    out->layers["trace.overhead_p50_pct"] =
        (traced_p50 / untraced_p50 - 1.0) * 100.0;
    out->layers["trace.overhead_throughput_pct"] =
        (untraced_throughput / traced_throughput - 1.0) * 100.0;
}

void
finishTrace(const Tracer &tracer, const Args &args, Outcome *out)
{
    std::printf("layer self time (traced half):\n");
    for (const auto &[layer, time] : tracer.selfTimeByLayer()) {
        std::printf("  %-20s %12.3f ms self  %9llu spans\n", layer.c_str(),
                    time.self_ms,
                    static_cast<unsigned long long>(time.spans));
    }
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string path = args.trace_dir + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (tracer.writeChromeTrace(path)) {
        std::printf("trace: %zu spans written to %s\n", tracer.spanCount(),
                    path.c_str());
    } else {
        out->report.checkFailed("cannot write trace " + path);
    }
}

} // namespace perfbench
