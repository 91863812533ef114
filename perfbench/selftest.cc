/**
 * @file
 * Tests of the benchmark's own machinery: generator determinism, the
 * percentile / sample-count rule, and failure accounting. Exits 0 when
 * every check holds.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                      \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
            ++g_failures;                                                 \
        }                                                                 \
    } while (0)

using namespace perfbench;

std::vector<std::uint64_t>
draw(Gen gen, int n)
{
    std::vector<std::uint64_t> out;
    for (int i = 0; i < n; ++i)
        out.push_back(gen.next());
    return out;
}

void
generatorIsDeterministic()
{
    EXPECT(draw(Gen(7), 100) == draw(Gen(7), 100));
    EXPECT(draw(Gen(7), 100) != draw(Gen(8), 100));
    // Forks are reproducible and independent of each other.
    const Gen root(42);
    EXPECT(draw(root.fork(1), 50) == draw(root.fork(1), 50));
    EXPECT(draw(root.fork(1), 50) != draw(root.fork(2), 50));
    EXPECT(draw(root.fork(0), 50) != draw(root, 50));

    Gen a(3), b(3);
    EXPECT(a.token() == b.token());
    EXPECT(a.token().size() == 16);

    // A seed changes the order, never the set (or its size).
    std::vector<int> base(64);
    for (int i = 0; i < 64; ++i)
        base[i] = i;
    std::vector<int> x = base, y = base, z = base;
    Gen(11).shuffle(x);
    Gen(11).shuffle(y);
    Gen(12).shuffle(z);
    EXPECT(x == y);
    EXPECT(x != z);
    EXPECT(std::set<int>(x.begin(), x.end()) ==
           std::set<int>(base.begin(), base.end()));
    EXPECT(std::set<int>(z.begin(), z.end()).size() == base.size());

    Gen bounded(5);
    bool in_range = true;
    for (int i = 0; i < 1000; ++i)
        in_range = in_range && bounded.below(7) < 7;
    EXPECT(in_range);
}

void
percentileNeedsTenSamplesBeyond()
{
    EXPECT(Latency::supports(1000, 0.99));
    EXPECT(!Latency::supports(999, 0.99));
    EXPECT(Latency::supports(20, 0.50));
    EXPECT(!Latency::supports(19, 0.50));
    EXPECT(!Latency::supports(0, 0.50));

    Latency latency;
    for (int i = 1; i <= 1000; ++i)
        latency.add(static_cast<double>(i));
    EXPECT(latency.count() == 1000);
    EXPECT(latency.percentile(0.99) == 990.0);
    EXPECT(latency.percentile(0.50) == 500.0);
    EXPECT(std::isnan(latency.percentile(0.999)));

    Latency small;
    for (int i = 1; i <= 999; ++i)
        small.add(static_cast<double>(i));
    EXPECT(std::isnan(small.percentile(0.99)));

    // Failures count against latency: as +inf they sit above every
    // sample, so enough of them push the percentile off the scale.
    Latency failing;
    for (int i = 1; i <= 990; ++i)
        failing.add(1.0);
    for (int i = 0; i < 10; ++i)
        failing.addFailed();
    EXPECT(failing.percentile(0.99) == 1.0);
    failing.addFailed();
    EXPECT(std::isnan(failing.percentile(0.99)));

    Latency merged;
    merged.merge(latency);
    merged.merge(small);
    EXPECT(merged.count() == 1999);
}

void
bestQuarterIgnoresTheSlowUnits()
{
    const std::vector<double> rates = {10, 90, 100, 95, 5, 98, 97, 99};
    EXPECT(bestQuarter(rates, true) == 98.0);
    const std::vector<double> latencies = {1.0, 9.0, 1.2, 1.1, 8.0,
                                           1.3, 1.05, 1.15};
    EXPECT(bestQuarter(latencies, false) == 1.05);
    EXPECT(bestQuarter({std::nan(""), 3.0}, false) == 3.0);
    EXPECT(std::isnan(bestQuarter({}, true)));
}

void
failuresAreCounted()
{
    OpCount ops;
    for (int i = 0; i < 10; ++i)
        ops.attempt();
    ops.fail(Failure::kOverloaded);
    ops.fail(Failure::kTransport);
    ops.fail(Failure::kTransport);
    EXPECT(ops.attempted() == 10);
    EXPECT(ops.failed() == 3);
    EXPECT(ops.failed(Failure::kTransport) == 2);
    EXPECT(ops.mismatches() == 0);

    Report clean;
    clean.count(ops);
    EXPECT(clean.checks_passed); // refused requests fail ops, not checks
    EXPECT(clean.attempted == 10 && clean.failed == 3);

    ops.fail(Failure::kMismatch);
    Report mismatched;
    mismatched.count(ops);
    EXPECT(!mismatched.checks_passed);
    EXPECT(mismatched.failed == 4);

    using dc::server::Status;
    using dc::server::WireClient;
    Failure why = Failure::kMismatch;
    WireClient::Result result;
    result.ok = false;
    EXPECT(wireFailed(result, &why) && why == Failure::kTransport);
    result.ok = true;
    result.status = Status::kOk;
    EXPECT(!wireFailed(result, &why));
    result.status = Status::kOverloaded;
    EXPECT(wireFailed(result, &why) && why == Failure::kOverloaded);
    result.status = Status::kDeadlineExceeded;
    EXPECT(wireFailed(result, &why) && why == Failure::kDeadlineExceeded);
    for (const Status status : {Status::kBadRequest, Status::kNotFound,
                                Status::kError, Status::kShuttingDown}) {
        result.status = status;
        EXPECT(wireFailed(result, &why) && why == Failure::kOtherStatus);
    }
}

void
resultLineHasItsFourKeys()
{
    Report report;
    report.attempted = 5;
    report.add("p50_ms", 1.25, "ms");
    EXPECT(report.json() ==
           "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
           "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": "
           "\"ms\"}}}");
    report.add("p99_ms", std::nan(""), "ms");
    EXPECT(report.json().find("\"value\": null") != std::string::npos);
}

void
argsAreParsed()
{
    Args args;
    std::string error;
    const char *good[] = {"perfbench", "--workload", "query", "--seed",
                          "9",         "--seconds",  "2.5",   "--trace",
                          "1"};
    EXPECT(parseArgs(9, const_cast<char **>(good), &args, &error));
    EXPECT(args.workload == "query" && args.seed == 9 &&
           args.seconds == 2.5 && args.trace);
    const char *bad[] = {"perfbench", "--workload", "query", "--seed",
                         "x9"};
    EXPECT(!parseArgs(5, const_cast<char **>(bad), &args, &error));
    const char *no_trace_value[] = {"perfbench", "--workload", "query",
                                    "--trace", "2"};
    EXPECT(!parseArgs(5, const_cast<char **>(no_trace_value), &args,
                      &error));
}

} // namespace

int
main()
{
    generatorIsDeterministic();
    percentileNeedsTenSamplesBeyond();
    bestQuarterIgnoresTheSlowUnits();
    failuresAreCounted();
    resultLineHasItsFourKeys();
    argsAreParsed();
    std::printf("%s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED",
                g_failures);
    return g_failures == 0 ? 0 : 1;
}
