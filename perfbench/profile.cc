/**
 * @file
 * The `profile` workload: the paper's own end (Figure 6). One thread
 * sweeps the 10 models x {PyTorch, JAX} x {Nvidia, AMD} in a seeded
 * order, running each configuration under DeepContext-Native (finish
 * + serialize included) and once under no profiler. It touches no
 * warehouse layer.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "dlmonitor/dlmonitor.h"
#include "framework/ops/op_library.h"
#include "framework/torchsim/torch_session.h"
#include "profiler/cct.h"
#include "profiler/profile_db.h"
#include "pyrt/py_interp.h"
#include "sim/runtime/gpu_runtime.h"
#include "sim/sim_context.h"
#include "workloads.h"
#include "workloads/runner.h"

namespace perfbench {

namespace {

using namespace dc;
using namespace dc::workloads;

/// Iterations per simulated run; fixed so every sweep does equal work.
constexpr int kIterations = 2;
/// Warm-up sweeps; setup_s is their median.
constexpr int kSetupSweeps = 5;

struct Config {
    WorkloadId model;
    FrameworkSel framework;
    PlatformSel platform;
    std::uint64_t seed; ///< RunConfig::seed, drawn from --seed.
};

/**
 * Everything one phase of sweeps measured. Each sweep runs every
 * configuration once, so its rate and medians weigh them equally; the
 * phase reports the best quarter of sweeps.
 */
struct Phase {
    Latency native_ms; ///< Native run incl. finish + serialize.
    Latency none_ms;   ///< Same configuration without a profiler.
    Latency sweep_native_ms, sweep_none_ms; ///< The current sweep's.
    std::vector<double> sweep_kernels_per_s, sweep_native_p50,
        sweep_none_p50;
    double native_s = 0.0;
    std::uint64_t kernels = 0;
    std::uint64_t sweeps = 0;
    dlmon::DlMonitorStats monitor;
    prof::ProfilerStats profiler;
    std::uint64_t cct_bytes = 0;
    std::uint64_t cct_nodes = 0;
    std::vector<double> overhead_ms; ///< Native minus none, per config.
    std::vector<std::unique_ptr<prof::ProfileDb>> last_profiles;

    double throughput() const
    {
        return bestQuarter(sweep_kernels_per_s, true);
    }
    double nativeP50() const { return bestQuarter(sweep_native_p50, false); }
    double noneP50() const { return bestQuarter(sweep_none_p50, false); }
};

class ProfileBench
{
  public:
    explicit ProfileBench(const Args &args) : gen_(args.seed)
    {
        for (int m = 0; m < kNumWorkloads; ++m) {
            for (const FrameworkSel framework :
                 {FrameworkSel::kTorch, FrameworkSel::kJax}) {
                for (const PlatformSel platform :
                     {PlatformSel::kNvidiaA100, PlatformSel::kAmdMi250}) {
                    configs_.push_back({static_cast<WorkloadId>(m),
                                        framework, platform,
                                        gen_.next()});
                }
            }
        }
    }

    /** One sweep over every configuration, in a seeded order. */
    void sweep(Phase *phase, OpCount *ops, Tracer *tracer, bool shuffle)
    {
        std::vector<std::size_t> order(configs_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        if (shuffle)
            gen_.shuffle(order);
        phase->last_profiles.clear();
        const double native_s = phase->native_s;
        const std::uint64_t kernels = phase->kernels;
        phase->sweep_native_ms = {};
        phase->sweep_none_ms = {};
        for (const std::size_t index : order)
            runConfig(index, phase, ops, tracer);
        ++phase->sweeps;
        phase->sweep_kernels_per_s.push_back(
            static_cast<double>(phase->kernels - kernels) /
            (phase->native_s - native_s));
        phase->sweep_native_p50.push_back(
            phase->sweep_native_ms.percentile(0.50));
        phase->sweep_none_p50.push_back(
            phase->sweep_none_ms.percentile(0.50));
    }

    /**
     * Simulated end-to-end time, native over none, per configuration:
     * the median is the Figure 6 number.
     */
    double fig6() const
    {
        std::vector<double> ratios;
        for (const auto &[index, times] : sim_times_) {
            ratios.push_back(static_cast<double>(times.first) /
                             static_cast<double>(times.second));
        }
        return median(ratios);
    }

  private:
    void runConfig(std::size_t index, Phase *phase, OpCount *ops,
                   Tracer *tracer)
    {
        const Config &config = configs_[index];
        const std::uint64_t op = tracer != nullptr ? tracer->newOp() : 0;
        Tracer::Scope op_span(tracer, "bench.profile_config", op);
        RunConfig run;
        run.workload = config.model;
        run.framework = config.framework;
        run.platform = config.platform;
        run.iterations = kIterations;
        run.seed = config.seed;

        ops->attempt();
        run.profiler = ProfilerMode::kNone;
        Clock::time_point start = Clock::now();
        RunResult none;
        {
            Tracer::Scope span(tracer, "sim.run", op);
            none = runWorkload(run);
        }
        const double none_ms = msSince(start);

        run.profiler = ProfilerMode::kDeepContextNative;
        run.keep_profile = true;
        start = Clock::now();
        RunResult native;
        std::string text;
        {
            Tracer::Scope span(tracer, "profiler.run", op);
            native = runWorkload(run);
        }
        if (native.profile != nullptr) {
            Tracer::Scope span(tracer, "profiler.serialize", op);
            text = native.profile->serialize();
        }
        const double native_ms = msSince(start);

        // Checks (untimed): the profile round-trips with every node,
        // and the simulated times repeat exactly across sweeps.
        bool good = native.profile != nullptr;
        if (good) {
            Tracer::Scope span(tracer, "profiler.parse", op);
            const std::unique_ptr<prof::ProfileDb> back =
                prof::ProfileDb::tryDeserialize(text);
            good = back != nullptr && back->cct().nodeCount() ==
                                          native.profile->cct().nodeCount();
        }
        const std::pair<std::uint64_t, std::uint64_t> times{
            native.end_to_end_ns, none.end_to_end_ns};
        const auto [seen, fresh] = sim_times_.emplace(index, times);
        good = good && (fresh || seen->second == times) &&
               none.end_to_end_ns > 0;
        if (!good) {
            ops->fail(Failure::kMismatch);
            phase->native_ms.addFailed();
            phase->none_ms.addFailed();
            phase->sweep_native_ms.addFailed();
            phase->sweep_none_ms.addFailed();
            return;
        }

        phase->native_ms.add(native_ms);
        phase->none_ms.add(none_ms);
        phase->sweep_native_ms.add(native_ms);
        phase->sweep_none_ms.add(none_ms);
        phase->native_s += native_ms / 1e3;
        phase->kernels += native.kernel_count;
        phase->overhead_ms.push_back(native_ms - none_ms);
        phase->monitor.callpath_requests +=
            native.dlmonitor_stats.callpath_requests;
        phase->monitor.cache_hits += native.dlmonitor_stats.cache_hits;
        phase->monitor.native_steps += native.dlmonitor_stats.native_steps;
        phase->profiler.paths_inserted +=
            native.profiler_stats.paths_inserted;
        phase->profiler.nodes_created += native.profiler_stats.nodes_created;
        phase->cct_bytes += native.profile->cct().memoryBytes();
        phase->cct_nodes += native.profile->cct().nodeCount();
        phase->last_profiles.push_back(std::move(native.profile));
    }

    Gen gen_;
    std::vector<Config> configs_;
    /// First-seen simulated (native, none) end-to-end ns per config.
    std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>>
        sim_times_;
};

/** Sweep until @p seconds of wall time have passed (whole sweeps). */
Phase
runPhase(ProfileBench &bench, double seconds, OpCount *ops, Tracer *tracer)
{
    Phase phase;
    const Clock::time_point start = Clock::now();
    while (msSince(start) < seconds * 1e3)
        bench.sweep(&phase, ops, tracer, true);
    return phase;
}

/** ns per DlMonitor::callpathGet on a live monitor in an operator. */
double
probeCallpathNs(Tracer *tracer)
{
    sim::SimContext ctx;
    ctx.addDevice(sim::makeA100());
    sim::GpuRuntime runtime(ctx);
    pyrt::PyInterpreter interp(ctx.libraries());
    fw::TorchSession torch(ctx, runtime, fw::TorchConfig{});
    dlmon::DlMonitorOptions options;
    options.ctx = &ctx;
    options.runtime = &runtime;
    options.interp = &interp;
    options.torch = &torch;
    const std::unique_ptr<dlmon::DlMonitor> monitor =
        dlmon::DlMonitor::init(options);
    pyrt::PyScope scope(ctx.currentThread().pyStack(),
                        ctx.currentThread().nativeStack(), interp,
                        {"train.py", "train_step", 42});
    fw::Tensor x = torch.input({1 << 10});
    torch.run(fw::ops::relu(torch.opEnv(), x));
    torch.synchronize();

    constexpr int kCalls = 200'000;
    std::size_t frames = 0;
    const Clock::time_point start = Clock::now();
    {
        Tracer::Scope span(tracer, "dlmonitor.callpath_get", 0);
        for (int i = 0; i < kCalls; ++i) {
            dlmon::CallPathOrigin origin;
            frames += monitor->callpathGet(dlmon::kCallPathAll, &origin)
                          .size();
        }
    }
    const double ns = msSince(start) * 1e6 / kCalls;
    monitor->finalize();
    return frames > 0 ? ns : 0.0;
}

/**
 * ns per leaf-cursor Cct::insert, replaying every root-to-leaf path of
 * the sweep's profiles in tree order into fresh trees.
 */
double
probeCctInsertNs(const std::vector<std::unique_ptr<prof::ProfileDb>> &dbs,
                 Tracer *tracer)
{
    std::vector<std::vector<dlmon::CallPath>> per_profile;
    std::vector<std::vector<std::size_t>> shared;
    std::size_t paths = 0;
    for (const auto &db : dbs) {
        std::vector<dlmon::CallPath> leaves;
        dlmon::CallPath stack;
        const auto walk = [&](const auto &self,
                              const prof::CctNode &node) -> void {
            if (node.childCount() == 0 && !stack.empty())
                leaves.push_back(stack);
            for (const prof::CctNode *child = node.firstChild();
                 child != nullptr; child = child->nextSibling()) {
                stack.push_back(child->frame());
                self(self, *child);
                stack.pop_back();
            }
        };
        walk(walk, db->cct().root());
        std::vector<std::size_t> depths(leaves.size(), 0);
        for (std::size_t i = 1; i < leaves.size(); ++i) {
            const std::size_t limit =
                std::min(leaves[i - 1].size(), leaves[i].size());
            while (depths[i] < limit &&
                   leaves[i][depths[i]].sameLocation(
                       leaves[i - 1][depths[i]])) {
                ++depths[i];
            }
        }
        paths += leaves.size();
        per_profile.push_back(std::move(leaves));
        shared.push_back(std::move(depths));
    }
    double ms = 0.0;
    for (std::size_t p = 0; p < per_profile.size(); ++p) {
        prof::Cct cct;
        prof::CctNode *leaf = nullptr;
        const Clock::time_point start = Clock::now();
        {
            Tracer::Scope span(tracer, "profiler.cct_insert", 0);
            for (std::size_t i = 0; i < per_profile[p].size(); ++i) {
                leaf = cct.insert(per_profile[p][i], nullptr, leaf,
                                  leaf == nullptr ? 0 : shared[p][i]);
            }
        }
        ms += msSince(start);
    }
    return paths > 0 ? ms * 1e6 / static_cast<double>(paths) : 0.0;
}

} // namespace

Outcome
runProfileWorkload(const Args &args)
{
    Outcome out;
    ProfileBench bench(args);
    OpCount ops;

    // Set-up: warm-up sweeps in the canonical order, so lazy state in
    // the program (interned names, allocator pools) is filled.
    std::vector<double> setups;
    {
        OpCount warm_ops;
        for (int i = 0; i < kSetupSweeps; ++i) {
            Phase warm;
            const Clock::time_point start = Clock::now();
            bench.sweep(&warm, &warm_ops, nullptr, false);
            setups.push_back(msSince(start) / 1e3);
        }
        if (warm_ops.failed() > 0)
            out.report.checkFailed("warm-up sweep failed its checks");
    }
    const double fig6 = bench.fig6();

    const double measured = args.trace ? args.seconds / 2 : args.seconds;
    const Phase phase = runPhase(bench, measured, &ops, nullptr);
    if (bench.fig6() != fig6)
        out.report.checkFailed("fig6_overhead_x changed between sweeps");

    out.e2e["setup_s"] = median(setups);
    out.e2e["throughput_per_s"] = phase.throughput();
    out.e2e_alias["throughput_per_s"] = "profile_kernels_per_s";
    out.e2e["p50_ms"] = phase.nativeP50();
    out.e2e_alias["p50_ms"] = "one DeepContext-Native run";
    out.e2e["side_p50_ms"] = phase.noneP50();
    out.e2e_alias["side_p50_ms"] = "the same run, no profiler";
    out.report.addExtra("fig6_overhead_x", fig6, "x",
                        "median native/none simulated time");
    out.report.addExtra("profile_kernels_per_s", phase.throughput(), "1/s");
    out.report.addExtra("sweeps", static_cast<double>(phase.sweeps),
                        "count", "40 configurations each");
    out.report.addExtra("native_run_p99_ms", phase.native_ms.percentile(0.99),
                        "ms",
                        std::to_string(phase.native_ms.count()) + " samples");

    if (args.trace) {
        Tracer tracer;
        const Phase traced = runPhase(bench, measured, &ops, &tracer);
        addTraceOverhead(&out, phase.nativeP50(), traced.nativeP50(),
                         phase.throughput(), traced.throughput());
        const auto durations = tracer.durationsByName();
        const auto spans = [&](const char *name) {
            const auto it = durations.find(name);
            return it == durations.end() ? std::vector<double>{}
                                         : it->second;
        };
        out.layers["sim.run_ms"] = traced.noneP50();
        out.layers["profiler.overhead_ms"] = median(traced.overhead_ms);
        out.layers["profiler.fig6_overhead_x"] = fig6;
        out.layers["profiler.serialize_ms"] =
            median(spans("profiler.serialize"));
        const double requests =
            static_cast<double>(traced.monitor.callpath_requests);
        out.layers["dlmonitor.cache_hit_ratio"] =
            static_cast<double>(traced.monitor.cache_hits) / requests;
        out.layers["dlmonitor.native_steps_per_path"] =
            static_cast<double>(traced.monitor.native_steps) / requests;
        out.layers["profiler.paths_per_kernel"] =
            static_cast<double>(traced.profiler.paths_inserted) /
            static_cast<double>(traced.kernels);
        out.layers["profiler.nodes_created"] =
            static_cast<double>(traced.profiler.nodes_created) /
            static_cast<double>(traced.sweeps);
        out.layers["profiler.cct_bytes_per_node"] =
            static_cast<double>(traced.cct_bytes) /
            static_cast<double>(traced.cct_nodes);
        out.layers["dlmonitor.callpath_ns"] = probeCallpathNs(&tracer);
        out.layers["profiler.cct_insert_ns"] =
            probeCctInsertNs(traced.last_profiles, &tracer);
        finishTrace(tracer, args, &out);
    }
    out.e2e["peak_rss_mb"] = peakRssMb();
    out.report.count(ops);
    return out;
}

} // namespace perfbench
