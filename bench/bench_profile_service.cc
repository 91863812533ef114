/**
 * @file
 * Throughput / latency bench of the profile warehouse and its
 * query-serving fast path.
 *
 * Seeds a pool of real profiles by running workloads under DeepContext
 * (the existing workloads/ runner), then measures, at 1 / 8 / 64 stored
 * runs:
 *
 *  - ingestion throughput (serialized profiles parsed and stored per
 *    second, all worker threads active),
 *  - query latency for top-k kernels and the merged corpus, contrasting
 *    the pre-corpus-view behavior (re-aggregate / re-merge the corpus
 *    on every call) with the materialized-view fast path (cached,
 *    cold-rebuild, and incremental-refresh scenarios),
 *  - cold full-merge wall time: the pre-PR merge kernel
 *    (std::function-recursive, re-implemented here against the public
 *    CCT API) vs. the current serial fold vs. the parallel tree
 *    reduction,
 *  - query latency while ingestion runs concurrently (64-run scale),
 *  - durability: run-log append latency, durable-vs-in-memory ingest
 *    throughput, cold-start recovery throughput, and post-recovery
 *    query equivalence through a torn final record.
 *
 * Wall-clock here is real host time (std::chrono), not simulator time:
 * the warehouse is host-side infrastructure, so its cost is measured
 * directly.
 *
 * Since the warehouse instruments itself (src/obs/), the bench also
 * measures what that telemetry costs: interleaved enabled/disabled
 * rounds of the ingest and cached-query loops, reported as
 * telemetry_*_overhead_pct keys that CI gates at a hard ceiling. The
 * run doubles as the telemetry demo: with --telemetry-dir it exports
 * the metrics snapshot, a Chrome-trace dump of the span rings, and a
 * flame graph of the warehouse's own self-profile — all three from the
 * spans this very process produced.
 *
 * Multi-core scaling is a measured property: the scaling mode drives
 * the cached topKernels path with 1..N concurrent query threads
 * (--threads, default 1,2,4,8) and records scale_topk_qps_tN per
 * width, plus a hardware_concurrency key so the CI gate can treat the
 * scale curve as informational on single-core runners where no
 * speedup is physically possible. The cold-merge comparison emits
 * size-bucketed reduction keys (reduction_vs_serial_speedup_small /
 * _large) because the executor's serial cutover intentionally makes
 * small merges serial — only the large bucket claims a parallel win.
 *
 * Usage: bench_profile_service [--max-runs N] [--json FILE]
 *                              [--telemetry-dir DIR]
 *                              [--threads W1,W2,...]
 *
 * With --json the headline numbers are written to FILE as a flat JSON
 * object (one key per scenario x stored-runs scale); CI regenerates it
 * per commit and gates the speedup keys against the checked-in
 * BENCH_query.json baseline (scripts/compare_bench.py).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analyzer/diff.h"
#include "bench_util.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/stats.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/self_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "obs/trace_span.h"
#include "service/cct_merger.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_log.h"
#include "service/warehouse_manager.h"
#include "workloads/runner.h"

using namespace dc;
using namespace dc::service;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Run a few real workloads under DeepContext and keep the profiles. */
std::vector<std::string>
seedProfiles()
{
    using namespace dc::workloads;
    std::vector<std::string> texts;
    const std::pair<WorkloadId, FrameworkSel> configs[] = {
        {WorkloadId::kResnet, FrameworkSel::kTorch},
        {WorkloadId::kResnet, FrameworkSel::kJax},
        {WorkloadId::kVit, FrameworkSel::kTorch},
        {WorkloadId::kNanoGpt, FrameworkSel::kJax},
    };
    for (const auto &[workload, framework] : configs) {
        RunConfig config;
        config.workload = workload;
        config.framework = framework;
        config.profiler = ProfilerMode::kDeepContext;
        config.iterations = 4;
        config.keep_profile = true;
        RunResult result = runWorkload(config);
        texts.push_back(result.profile->serialize());
    }
    return texts;
}

/** Median latency in microseconds of @p reps calls to @p fn. */
template <typename Fn>
double
medianLatencyUs(int reps, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        samples.push_back(secondsSince(start) * 1e6);
    }
    return median(samples);
}

using Snapshot =
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>;

/**
 * The pre-corpus-view topKernels: walk every stored run's tree on
 * every query, aggregating through heap-string maps. Kept here as the
 * measured baseline the cached view is compared against.
 */
std::vector<KernelAggregate>
legacyTopKernels(const Snapshot &snapshot, std::size_t k,
                 const std::string &metric)
{
    std::map<std::string, KernelAggregate> by_name;
    for (const auto &[run_id, profile] : snapshot) {
        (void)run_id;
        const int metric_id = profile->metrics().find(metric);
        if (metric_id < 0)
            continue;
        std::map<std::string, bool> seen_this_run;
        profile->cct().visit([&](const prof::CctNode &node) {
            if (node.kind() != dlmon::FrameKind::kKernel)
                return;
            const RunningStat *stat = node.findMetric(metric_id);
            if (stat == nullptr || stat->count() == 0)
                return;
            const std::string &name = node.name();
            KernelAggregate &agg = by_name[name];
            agg.name = name;
            agg.total += stat->sum();
            agg.samples += stat->count();
            if (!seen_this_run[name]) {
                seen_this_run[name] = true;
                ++agg.runs;
            }
        });
    }
    std::vector<KernelAggregate> ranked;
    ranked.reserve(by_name.size());
    for (auto &[name, agg] : by_name) {
        (void)name;
        ranked.push_back(std::move(agg));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const KernelAggregate &a, const KernelAggregate &b) {
                  if (a.total != b.total)
                      return a.total > b.total;
                  return a.name < b.name;
              });
    if (ranked.size() > k)
        ranked.resize(k);
    return ranked;
}

/**
 * The pre-PR CCT merge kernel, faithfully re-created against the
 * public API: std::function recursion with a std::function-wrapped
 * child visit per node and attachChild per child — what every cold
 * merge paid before the direct-walk kernel. Returns the node count so
 * the work cannot be optimized away.
 */
std::size_t
preprMergeAll(const Snapshot &snapshot)
{
    prof::Cct cct;
    prof::MetricRegistry metrics;
    for (const auto &[run_id, profile] : snapshot) {
        (void)run_id;
        const std::vector<int> remap =
            metrics.mergeFrom(profile->metrics());
        std::function<void(prof::CctNode &, const prof::CctNode &)>
            mergeInto = [&](prof::CctNode &dst,
                            const prof::CctNode &src) {
                for (const auto &[metric_id, stat] : src.metrics()) {
                    const int id =
                        remap.empty()
                            ? metric_id
                            : remap[static_cast<std::size_t>(
                                  metric_id)];
                    // The pre-PR kernel probed for existence (memory
                    // accounting) before the separate get-or-create
                    // lookup: two binary searches per entry.
                    const bool existed =
                        dst.findMetric(id) != nullptr;
                    RunningStat &acc = dst.metric(id);
                    acc = RunningStat::merged(acc, stat);
                    (void)existed;
                }
                src.forEachChild([&](const prof::CctNode &child) {
                    prof::CctNode *dst_child =
                        cct.attachChild(&dst, child.key());
                    mergeInto(*dst_child, child);
                });
            };
        mergeInto(cct.root(), profile->cct().root());
    }
    return cct.nodeCount();
}

/** (profiles, run_ids) arrays for the CctMerger entry points. */
void
splitSnapshot(const Snapshot &snapshot,
              std::vector<const prof::ProfileDb *> *profiles,
              std::vector<std::string> *run_ids)
{
    profiles->clear();
    run_ids->clear();
    for (const auto &[run_id, profile] : snapshot) {
        profiles->push_back(profile.get());
        run_ids->push_back(run_id);
    }
}

/**
 * A serialized profile whose kernel names are unique to @p tag —
 * JIT/shape-specialized style name cardinality, the workload that
 * saturates an interned-name budget.
 */
std::string
uniqueNameProfileText(const std::string &tag)
{
    auto cct = std::make_unique<prof::Cct>();
    prof::MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    for (int i = 0; i < 16; ++i) {
        prof::CctNode *leaf = cct->insert(
            {dlmon::Frame::python("train.py", "main", 10),
             dlmon::Frame::op("aten::op" + std::to_string(i % 2)),
             dlmon::Frame::kernel(
                 strformat("jit_kernel_%s_shape_%03d_fused_variant",
                           tag.c_str(), i))});
        cct->addMetric(leaf, gpu, 100.0 + i);
    }
    return prof::ProfileDb(std::move(cct), std::move(metrics), {})
        .serialize();
}

/**
 * Per-corpus name-table lifecycle: fill a store to its interned-name
 * budget with unique-name runs, erase the corpus, reclaim the text
 * with compactNames(), and ingest a fresh equal-size batch that only
 * fits because the budget was freed. Emits the reclaim volume, the
 * compaction pause, and the post-compaction re-ingest throughput.
 */
void
benchCompactionLifecycle(
    std::vector<std::pair<std::string, double>> *json)
{
    constexpr int kBatch = 24;
    std::vector<std::string> first;
    std::vector<std::string> second;
    for (int i = 0; i < kBatch; ++i) {
        first.push_back(
            uniqueNameProfileText("a" + std::to_string(i)));
        second.push_back(
            uniqueNameProfileText("b" + std::to_string(i)));
    }

    // Budget = exactly one batch of unique names.
    std::uint64_t batch_bytes = 0;
    {
        ProfileStore probe;
        for (int i = 0; i < kBatch; ++i)
            probe.ingestText("p-" + std::to_string(i),
                             first[static_cast<std::size_t>(i)]);
        probe.waitIdle();
        batch_bytes = probe.names()->textBytes();
    }

    ProfileStore::Options options;
    options.max_interned_bytes = batch_bytes;
    ProfileStore store(options);
    for (int i = 0; i < kBatch; ++i)
        store.ingestText("first-" + std::to_string(i),
                         first[static_cast<std::size_t>(i)]);
    store.waitIdle();
    // Saturated: fresh names no longer fit.
    store.ingestText("over", second[0]);
    store.waitIdle();
    const bool saturated = store.stats().failed == 1;

    for (const std::string &run_id : store.runIds())
        store.erase(run_id);
    const Clock::time_point compact_start = Clock::now();
    const std::uint64_t reclaimed = store.compactNames();
    const double compact_us = secondsSince(compact_start) * 1e6;

    const Clock::time_point reingest_start = Clock::now();
    for (int i = 0; i < kBatch; ++i)
        store.ingestText("second-" + std::to_string(i),
                         second[static_cast<std::size_t>(i)]);
    store.waitIdle();
    const double reingest_s = secondsSince(reingest_start);
    const bool recovered =
        store.size() == static_cast<std::size_t>(kBatch) &&
        store.stats().failed == 1;

    std::printf("\ncompaction lifecycle (%d unique-name runs per "
                "batch, %s budget): %s reclaimed in %.0f us, "
                "re-ingest %.0f runs/s, saturation %s, recovery %s\n",
                kBatch, humanBytes(batch_bytes).c_str(),
                humanBytes(reclaimed).c_str(), compact_us,
                static_cast<double>(kBatch) / reingest_s,
                saturated ? "ok" : "MISSED",
                recovered ? "ok" : "FAILED");

    json->emplace_back("compact_reclaimed_bytes",
                       static_cast<double>(reclaimed));
    json->emplace_back("compact_us", compact_us);
    json->emplace_back("post_compact_reingest_per_sec",
                       static_cast<double>(kBatch) / reingest_s);
    // Budget recovery as a 0/1 gate-visible flag: 1 = the saturated
    // store rejected fresh names, then accepted an equal-size batch
    // after erase+compact.
    json->emplace_back("compact_budget_recovered",
                       saturated && recovered ? 1.0 : 0.0);
}

/** Delete every file in @p dir, then the directory itself. */
void
removeTree(const std::string &dir)
{
    std::vector<std::string> entries;
    if (listDir(dir, &entries)) {
        for (const std::string &entry : entries)
            removeFile(dir + "/" + entry);
    }
    ::rmdir(dir.c_str());
}

/**
 * Cold-start durability scenarios: what the run log costs during
 * ingestion (per-record append latency, end-to-end durable ingest
 * throughput) and what a restart buys (recovery throughput, plus a
 * gate-visible flag that a recovered corpus — behind a torn final
 * record — answers queries identically to the pre-restart store).
 */
void
benchDurability(const std::vector<std::string> &pool,
                std::vector<std::pair<std::string, double>> *json)
{
    constexpr int kRuns = 32;
    const std::string dir =
        strformat("/tmp/dc_bench_warehouse_log_%d", ::getpid());
    const std::string append_dir = dir + "-append";
    removeTree(dir);
    removeTree(append_dir);

    // In-memory ingest baseline at the same scale.
    double memory_s = 0.0;
    {
        ProfileStore store;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            store.ingestText(
                "run-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
        }
        store.waitIdle();
        memory_s = secondsSince(start);
    }

    // Durable ingest: every accepted run is fsync-appended to the log.
    ProfileStore::Options durable;
    durable.data_dir = dir;
    std::vector<KernelAggregate> pre_top;
    double durable_s = 0.0;
    {
        ProfileStore store(durable);
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            store.ingestText(
                "run-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
        }
        store.waitIdle();
        durable_s = secondsSince(start);
        QueryEngine engine(store);
        pre_top = engine.topKernels(10);
    }

    // Per-record append cost, measured on the log alone.
    double append_us = 0.0;
    {
        WarehouseLog log;
        if (!log.open({.dir = append_dir}) ||
            !log.replay([](WarehouseLog::Record) {})) {
            std::printf("durability bench: cannot open %s\n",
                        append_dir.c_str());
            return;
        }
        int i = 0;
        append_us = medianLatencyUs(40, [&] {
            log.appendRun(
                "append-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
            ++i;
        });
    }

    // Simulate a crash mid-append, then restart on the data directory.
    {
        std::vector<std::string> entries;
        listDir(dir, &entries);
        std::string last_segment;
        for (const std::string &entry : entries) {
            if (startsWith(entry, "segment-"))
                last_segment = dir + "/" + entry;
        }
        std::ofstream out(last_segment,
                          std::ios::binary | std::ios::app);
        out << "rec\trun\t6\t999999\t0000000000000000\ntorn-h";
    }
    const Clock::time_point recover_start = Clock::now();
    ProfileStore recovered(durable);
    const double recover_s = secondsSince(recover_start);
    const ProfileStore::RecoveryStats recovery = recovered.recovery();
    QueryEngine engine(recovered);
    const auto post_top = engine.topKernels(10);
    bool equivalent =
        recovery.runs == static_cast<std::uint64_t>(kRuns) &&
        recovery.torn_tail && post_top.size() == pre_top.size();
    for (std::size_t i = 0; equivalent && i < post_top.size(); ++i) {
        equivalent = post_top[i].name == pre_top[i].name &&
                     std::abs(post_top[i].total - pre_top[i].total) <=
                         1e-9 * std::abs(pre_top[i].total) + 1e-6 &&
                     post_top[i].runs == pre_top[i].runs;
    }

    removeTree(dir);
    removeTree(append_dir);

    std::printf(
        "\ndurability (%d runs, fsync log): append %.0f us/record, "
        "durable ingest %.0f runs/s (in-memory %.0f), recovery %.0f "
        "runs/s, torn-tail restart equivalence %s\n",
        kRuns, append_us, static_cast<double>(kRuns) / durable_s,
        static_cast<double>(kRuns) / memory_s,
        static_cast<double>(kRuns) / recover_s,
        equivalent ? "ok" : "FAILED");

    json->emplace_back("append_overhead_us", append_us);
    json->emplace_back("durable_ingest_per_sec",
                       static_cast<double>(kRuns) / durable_s);
    json->emplace_back("recover_per_sec",
                       static_cast<double>(kRuns) / recover_s);
    // 0/1 gate-visible flag: the restarted store (recovering through a
    // torn final record) recovered every run and answered topKernels
    // identically to the pre-restart store.
    json->emplace_back("recovery_equiv", equivalent ? 1.0 : 0.0);
}

/**
 * What group commit and snapshot checkpoints buy (PR 7):
 *
 *  - group_commit_ingest_per_sec / group_commit_vs_memory_speedup:
 *    durable ingest throughput with several workers sharing fsyncs
 *    (one sync covers every append queued while the previous sync was
 *    in flight), as a ratio over an equal-worker in-memory store. The
 *    durability-tax target is a ratio near 1.
 *  - checkpoint_recover_per_sec / checkpoint_churn_speedup: cold-start
 *    recovery from a checkpointed log vs. replaying the full append/
 *    erase churn history — checkpoints make restart O(corpus), so the
 *    speedup grows with churn rather than staying constant.
 *  - checkpoint_recovery_equiv: 0/1 flag that the checkpointed
 *    restart recovered the exact corpus and answers topKernels
 *    identically to the pre-restart store.
 */
void
benchGroupCommitAndCheckpoint(
    const std::vector<std::string> &pool,
    std::vector<std::pair<std::string, double>> *json)
{
    constexpr int kRuns = 32;
    constexpr int kChurnRounds = 3;
    constexpr std::size_t kWorkers = 8;
    const std::string dir =
        strformat("/tmp/dc_bench_group_commit_%d", ::getpid());
    const std::string churn_dir = dir + "-churn";
    const std::string ckpt_dir = dir + "-ckpt";
    removeTree(dir);
    removeTree(churn_dir);
    removeTree(ckpt_dir);

    // Ingestion concurrency is pool width, not Options::workers, so
    // group commit needs a pool wide enough for appends to pile up
    // behind the fsync leader — even on one core the workers overlap
    // in fsync *waits*, which is exactly what group commit exploits.
    common::Executor executor({.threads = kWorkers});

    auto ingestAll = [&](ProfileStore &store) {
        for (int i = 0; i < kRuns; ++i) {
            store.ingestText(
                "run-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
        }
        store.waitIdle();
    };

    // Equal-worker in-memory baseline.
    double memory_s = 0.0;
    {
        ProfileStore::Options memory;
        memory.workers = kWorkers;
        memory.executor = &executor;
        ProfileStore store(memory);
        const Clock::time_point start = Clock::now();
        ingestAll(store);
        memory_s = secondsSince(start);
    }

    // Group-commit durable ingest: the workers' concurrent appends
    // share fsyncs instead of paying one each.
    double durable_s = 0.0;
    std::uint64_t fsyncs = 0;
    std::uint64_t appends = 0;
    {
        ProfileStore::Options durable;
        durable.workers = kWorkers;
        durable.executor = &executor;
        durable.data_dir = dir;
        ProfileStore store(durable);
        const Clock::time_point start = Clock::now();
        ingestAll(store);
        durable_s = secondsSince(start);
        fsyncs = store.stats().log_fsyncs;
        appends = store.stats().log_appends;
    }

    // Same churned corpus twice: full history vs. checkpointed.
    auto churn = [&](const std::string &data_dir,
                     bool checkpoint) -> std::vector<KernelAggregate> {
        ProfileStore::Options options;
        options.workers = kWorkers;
        options.executor = &executor;
        options.data_dir = data_dir;
        ProfileStore store(options);
        ingestAll(store);
        for (int round = 0; round < kChurnRounds; ++round) {
            for (int i = 0; i < kRuns; ++i)
                store.erase("run-" + std::to_string(i));
            ingestAll(store);
        }
        if (checkpoint)
            store.checkpoint();
        QueryEngine engine(store);
        return engine.topKernels(10);
    };
    const auto pre_top = churn(churn_dir, false);
    churn(ckpt_dir, true);

    auto recoverSeconds = [&](const std::string &data_dir,
                              std::vector<KernelAggregate> *top,
                              ProfileStore::RecoveryStats *stats) {
        ProfileStore::Options options;
        options.workers = kWorkers;
        options.data_dir = data_dir;
        const Clock::time_point start = Clock::now();
        ProfileStore store(options);
        const double seconds = secondsSince(start);
        *stats = store.recovery();
        QueryEngine engine(store);
        *top = engine.topKernels(10);
        return seconds;
    };
    std::vector<KernelAggregate> history_top;
    std::vector<KernelAggregate> ckpt_top;
    ProfileStore::RecoveryStats history_stats;
    ProfileStore::RecoveryStats ckpt_stats;
    const double history_s =
        recoverSeconds(churn_dir, &history_top, &history_stats);
    const double ckpt_s =
        recoverSeconds(ckpt_dir, &ckpt_top, &ckpt_stats);

    bool equivalent =
        ckpt_stats.runs == static_cast<std::uint64_t>(kRuns) &&
        ckpt_stats.checkpoint_records ==
            static_cast<std::uint64_t>(kRuns) &&
        ckpt_top.size() == pre_top.size();
    for (std::size_t i = 0; equivalent && i < ckpt_top.size(); ++i) {
        equivalent = ckpt_top[i].name == pre_top[i].name &&
                     std::abs(ckpt_top[i].total - pre_top[i].total) <=
                         1e-9 * std::abs(pre_top[i].total) + 1e-6 &&
                     ckpt_top[i].runs == pre_top[i].runs;
    }

    removeTree(dir);
    removeTree(churn_dir);
    removeTree(ckpt_dir);

    std::printf(
        "\ngroup commit (%d runs, %zu workers): durable %.0f runs/s "
        "(in-memory %.0f, ratio %.2f), %llu fsyncs for %llu appends\n"
        "checkpoint (%dx churn): recovery %.0f runs/s vs %.0f "
        "full-history, speedup %.2f, equivalence %s\n",
        kRuns, kWorkers, static_cast<double>(kRuns) / durable_s,
        static_cast<double>(kRuns) / memory_s, memory_s / durable_s,
        static_cast<unsigned long long>(fsyncs),
        static_cast<unsigned long long>(appends), kChurnRounds,
        static_cast<double>(kRuns) / ckpt_s,
        static_cast<double>(kRuns) / history_s, history_s / ckpt_s,
        equivalent ? "ok" : "FAILED");

    json->emplace_back("group_commit_ingest_per_sec",
                       static_cast<double>(kRuns) / durable_s);
    // Within-process ratio (durable over in-memory, same workers), so
    // it transfers across hosts and the gate can hold a floor on it.
    json->emplace_back("group_commit_vs_memory_speedup",
                       memory_s / durable_s);
    json->emplace_back("checkpoint_recover_per_sec",
                       static_cast<double>(kRuns) / ckpt_s);
    // Checkpointed restart vs. replaying the churn history — the
    // durability-tax claim that recovery is O(corpus), not O(history).
    json->emplace_back("checkpoint_churn_speedup", history_s / ckpt_s);
    json->emplace_back("checkpoint_recovery_equiv",
                       equivalent ? 1.0 : 0.0);
}

/**
 * What the always-on telemetry costs: ingest throughput and cached
 * topKernels latency with obs enabled vs. disabled, measured in
 * interleaved rounds (so thermal and cache drift land on both states
 * equally) and reported as a percentage CI gates at a hard ceiling.
 * The companion absolute keys let a gate failure show the underlying
 * numbers, not just the ratio.
 */
void
benchTelemetryOverhead(const std::vector<std::string> &pool,
                       std::vector<std::pair<std::string, double>> *json)
{
    constexpr int kRuns = 24;
    // 11 ABBA rounds: the median delta survives up to 5 rounds each
    // polluted by a co-tenant burst longer than one ~20ms leg.
    constexpr int kRounds = 11;

    // The overhead estimate is the MEDIAN OF PAIRED PER-ROUND DELTAS,
    // not a difference of per-state minima: adjacent on/off rounds
    // share host state (frequency, cache residency, co-tenant load),
    // so each round's delta cancels the drift that dominates absolute
    // times on a busy machine, and the median discards rounds a
    // scheduler hiccup landed on one side of. Comparing two
    // independently-picked minima leaks that drift straight into the
    // percentage and flaps around a hard CI ceiling. The best-of
    // absolutes are still reported as the companion keys.
    const auto measureIngestRate = [&](bool enabled) {
        obs::setEnabled(enabled);
        ProfileStore store;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            store.ingestText(
                "run-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
        }
        store.waitIdle();
        return static_cast<double>(kRuns) / secondsSince(start);
    };
    std::vector<double> ingest_on;
    std::vector<double> ingest_off;
    std::vector<double> ingest_pcts;
    // Warmup: the first store of the measurement pays cold allocator
    // and page-cache state that would otherwise bias round 0's A leg.
    measureIngestRate(false);
    for (int round = 0; round < kRounds; ++round) {
        // ABBA within the round (see the cached-topk loop below).
        const double on1 = measureIngestRate(true);
        const double off1 = measureIngestRate(false);
        const double off2 = measureIngestRate(false);
        const double on2 = measureIngestRate(true);
        ingest_on.push_back(std::max(on1, on2));
        ingest_off.push_back(std::max(off1, off2));
        const double on_mid = (on1 + on2) / 2.0;
        const double off_mid = (off1 + off2) / 2.0;
        ingest_pcts.push_back((off_mid - on_mid) / off_mid * 100.0);
    }
    obs::setEnabled(true);
    const double ingest_on_rate =
        *std::max_element(ingest_on.begin(), ingest_on.end());
    const double ingest_off_rate =
        *std::max_element(ingest_off.begin(), ingest_off.end());
    const double ingest_pct = median(ingest_pcts);

    // Cached topKernels is the microsecond-scale fast path where a
    // misplaced clock read would actually show up; query sites sample
    // 1 in 16 spans precisely to survive this measurement.
    ProfileStore store;
    for (int i = 0; i < 16; ++i) {
        store.ingestText("run-" + std::to_string(i),
                         pool[static_cast<std::size_t>(i) % pool.size()]);
    }
    store.waitIdle();
    QueryEngine engine(store);
    engine.topKernels(10); // materialize the view once
    // More rounds and reps than the ingest loop: the measured effect
    // is tens of nanoseconds on a microseconds-scale call, so the
    // per-round median needs enough samples for the paired deltas to
    // cluster. Each round measures ABBA (on, off, off, on) — a strict
    // on/off alternation aliases with periodic co-tenant load and
    // records the *pattern* as overhead; averaging the A and B legs
    // cancels any drift linear across the round. Still ~100ms total.
    constexpr int kTopkRounds = 11;
    constexpr int kTopkReps = 600;
    const auto measureTopkUs = [&](bool enabled) {
        obs::setEnabled(enabled);
        return medianLatencyUs(kTopkReps,
                               [&] { engine.topKernels(10); });
    };
    std::vector<double> topk_on;
    std::vector<double> topk_off;
    std::vector<double> topk_pcts;
    for (int round = 0; round < kTopkRounds; ++round) {
        const double on1 = measureTopkUs(true);
        const double off1 = measureTopkUs(false);
        const double off2 = measureTopkUs(false);
        const double on2 = measureTopkUs(true);
        topk_on.push_back(std::min(on1, on2));
        topk_off.push_back(std::min(off1, off2));
        const double on_mid = (on1 + on2) / 2.0;
        const double off_mid = (off1 + off2) / 2.0;
        topk_pcts.push_back((on_mid - off_mid) / off_mid * 100.0);
    }
    obs::setEnabled(true);
    const double topk_on_us =
        *std::min_element(topk_on.begin(), topk_on.end());
    const double topk_off_us =
        *std::min_element(topk_off.begin(), topk_off.end());
    const double topk_pct = median(topk_pcts);

    std::printf("\ntelemetry overhead (obs on vs off, %d/%d "
                "interleaved rounds): ingest %.0f vs %.0f runs/s "
                "(%+.2f%%), cached topk %.2f vs %.2f us (%+.2f%%)\n",
                kRounds, kTopkRounds, ingest_on_rate, ingest_off_rate,
                ingest_pct, topk_on_us, topk_off_us, topk_pct);

    json->emplace_back("telemetry_ingest_overhead_pct", ingest_pct);
    json->emplace_back("telemetry_ingest_on_per_sec", ingest_on_rate);
    json->emplace_back("telemetry_ingest_off_per_sec", ingest_off_rate);
    json->emplace_back("telemetry_cached_topk_overhead_pct", topk_pct);
    json->emplace_back("telemetry_cached_topk_on_us", topk_on_us);
    json->emplace_back("telemetry_cached_topk_off_us", topk_off_us);
}

/**
 * Wire front-end scenarios: the cost of putting the warehouse behind
 * its socket protocol, and the overload contract under forced
 * saturation.
 *
 *  - server_qps / server_p50_us / server_p99_us: a loopback client
 *    issuing cached topKernels calls through the full path — framing,
 *    checksums, epoll, pool dispatch, response flush. Against
 *    cached_topk_us the delta is the protocol tax.
 *  - server_shed_correct: with every request deliberately stalled
 *    (srv.exec delay failpoint) and a tiny admission watermark, a
 *    pipelined burst must get exactly one response per request —
 *    served or an explicit OVERLOADED, with at least one of each and
 *    nothing dropped or invented. 1.0 = the contract held.
 */
void
benchWireServer(const std::vector<std::string> &pool,
                std::vector<std::pair<std::string, double>> *json)
{
    std::printf("\nwire server (loopback):\n");

    double qps = 0.0, p50 = 0.0, p99 = 0.0;
    {
        WarehouseManager manager;
        const CorpusHandle corpus = manager.create(server::kDefaultCorpus);
        for (std::size_t i = 0; i < pool.size() && i < 16; ++i)
            corpus->store.ingestText("run-" + std::to_string(i), pool[i]);
        corpus->store.waitIdle();
        server::WireServer server(manager);
        std::string error;
        if (!server.start(&error)) {
            std::printf("cannot start bench server: %s\n",
                        error.c_str());
            return;
        }
        server::WireClient client;
        if (!client.connect("127.0.0.1", server.port(), &error)) {
            std::printf("cannot connect bench client: %s\n",
                        error.c_str());
            return;
        }
        (void)corpus->engine.topKernels(16); // warm the materialized view

        constexpr int kWarmup = 50, kRequests = 500;
        std::vector<server::KernelRow> rows;
        for (int i = 0; i < kWarmup; ++i)
            (void)client.topKernels(16, prof::metric_names::kGpuTime,
                                    {}, &rows);
        std::vector<double> samples_us;
        samples_us.reserve(kRequests);
        const auto start = Clock::now();
        for (int i = 0; i < kRequests; ++i) {
            const auto t0 = Clock::now();
            const server::WireClient::Result result = client.topKernels(
                16, prof::metric_names::kGpuTime, {}, &rows);
            if (!result.ok ||
                result.status != server::Status::kOk) {
                std::printf("bench request failed: %s\n",
                            result.error.c_str());
                return;
            }
            samples_us.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - t0)
                    .count());
        }
        const double elapsed_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        qps = static_cast<double>(kRequests) / elapsed_s;
        std::sort(samples_us.begin(), samples_us.end());
        p50 = samples_us[samples_us.size() / 2];
        p99 = samples_us[samples_us.size() * 99 / 100];
        server.drain();
        server.stop();
    }

    // Forced overload: stall every admitted request on the pool, flood
    // past the watermark, require the shed contract to hold exactly.
    bool shed_correct = false;
    {
        WarehouseManager manager;
        server::ServerOptions options;
        options.max_pending = 4;
        server::WireServer server(manager, options);
        std::string error;
        if (server.start(&error) &&
            failpoint::set("srv.exec", "delay(100)")) {
            server::WireClient client;
            if (client.connect("127.0.0.1", server.port(), &error)) {
                constexpr int kBurst = 24;
                bool sane = true;
                std::vector<std::uint64_t> ids;
                for (int i = 0; i < kBurst; ++i) {
                    std::uint64_t id = 0;
                    sane = sane && client.send(server::Opcode::kPing, 0,
                                               "overload", 0, &id);
                    ids.push_back(id);
                }
                int ok = 0, shed = 0, other = 0;
                for (int i = 0; sane && i < kBurst; ++i) {
                    server::Frame frame;
                    if (!client.recv(&frame, 30'000, &error)) {
                        sane = false;
                        break;
                    }
                    const auto it = std::find(ids.begin(), ids.end(),
                                              frame.request_id);
                    if (it == ids.end()) {
                        sane = false; // invented response
                        break;
                    }
                    ids.erase(it);
                    if (frame.status() == server::Status::kOk)
                        ++ok;
                    else if (frame.status() ==
                             server::Status::kOverloaded)
                        ++shed;
                    else
                        ++other;
                }
                shed_correct = sane && ids.empty() && other == 0 &&
                               ok >= 1 && shed >= 1 &&
                               ok + shed == kBurst;
                const std::uint64_t server_shed = server.stats().shed;
                shed_correct =
                    shed_correct &&
                    server_shed == static_cast<std::uint64_t>(shed);
                std::printf("overload burst: %d served, %d shed "
                            "(contract %s)\n",
                            ok, shed, shed_correct ? "held" : "BROKEN");
            }
        }
        failpoint::clearAll();
        server.drain();
        server.stop();
    }

    std::printf("server topk: %.0f qps, p50 %.1f us, p99 %.1f us\n",
                qps, p50, p99);
    json->emplace_back("server_qps", qps);
    json->emplace_back("server_p50_us", p50);
    json->emplace_back("server_p99_us", p99);
    json->emplace_back("server_shed_correct", shed_correct ? 1.0 : 0.0);
}

/**
 * Multi-corpus warehouse: two durable corpora (the PyTorch- and
 * JAX-seeded halves of the pool) under one WarehouseManager.
 * Measures the federated cross-corpus diff over the wire (scatter
 * over cached per-corpus views + cross-table gather + framing), the
 * cold corpus open (WAL replay on first touch), the LRU close/reopen
 * contract under max_open, and exact equivalence of the federated
 * diff against a manual pairwise merge of each corpus's runs.
 */
void
benchWarehouseFederation(const std::vector<std::string> &pool,
                         std::vector<std::pair<std::string, double>> *json)
{
    std::printf("\nmulti-corpus warehouse (federation over two "
                "corpora):\n");

    const std::string root =
        "/tmp/dc_bench_warehouse." + std::to_string(::getpid());
    WarehouseManager::Options manager_options;
    manager_options.root_dir = root;
    manager_options.store.workers = 2;

    double federated_diff_us = 0.0, open_us = 0.0;
    bool equiv = true, lru_correct = true;
    {
        WarehouseManager manager(manager_options);
        CorpusHandle torch = manager.create("pytorch");
        CorpusHandle jax = manager.create("jax");
        if (torch == nullptr || jax == nullptr) {
            std::printf("cannot create bench corpora\n");
            return;
        }
        // seedProfiles() alternates PyTorch/JAX workloads; split the
        // pool so the corpora carry distinct framework metadata.
        for (std::size_t i = 0; i < pool.size(); ++i) {
            Corpus &corpus = (i % 2 == 0) ? *torch : *jax;
            for (int rep = 0; rep < 4; ++rep)
                corpus.store.ingestText("run-" + std::to_string(i) +
                                            "-" + std::to_string(rep),
                                        pool[i]);
        }
        manager.waitIdle();

        // Federated diff over the wire, per-corpus views warm.
        server::WireServer server(manager);
        server::WireClient client;
        std::string error;
        if (!server.start(&error) ||
            !client.connect("127.0.0.1", server.port(), &error)) {
            std::printf("cannot serve bench manager: %s\n",
                        error.c_str());
            return;
        }
        (void)client.federatedDiff({"pytorch"}, {"jax"});
        federated_diff_us = medianLatencyUs(20, [&] {
            const server::WireClient::Result result =
                client.federatedDiff({"pytorch"}, {"jax"});
            if (!result.ok || result.status != server::Status::kOk)
                equiv = false;
        });
        server.drain();
        server.stop();

        // Equivalence: the federated diff must match a manual
        // pairwise merge of each corpus's stored runs, field for
        // field (kernels compared as name -> value maps: the sort is
        // by |delta|, which ties arbitrarily).
        const std::optional<analysis::ProfileComparison> federated =
            manager.federatedDiff({"pytorch"}, {"jax"}, {}, &error);
        const auto manualMerged = [](Corpus &corpus) {
            const Snapshot snapshot = corpus.store.snapshot();
            std::vector<const prof::ProfileDb *> profiles;
            std::vector<std::string> run_ids;
            splitSnapshot(snapshot, &profiles, &run_ids);
            return CctMerger::mergeAllPrevalidated(profiles, run_ids);
        };
        const std::unique_ptr<prof::ProfileDb> manual_a =
            manualMerged(*torch);
        const std::unique_ptr<prof::ProfileDb> manual_b =
            manualMerged(*jax);
        if (!federated.has_value() || manual_a == nullptr ||
            manual_b == nullptr) {
            equiv = false;
        } else {
            const analysis::ProfileComparison manual =
                analysis::compareProfiles(*manual_a, *manual_b);
            const auto near = [](double x, double y) {
                return std::fabs(x - y) <=
                       1e-9 * std::max({1.0, std::fabs(x),
                                        std::fabs(y)});
            };
            const auto byName =
                [](const std::vector<analysis::DiffEntry> &kernels) {
                    std::map<std::string, std::pair<double, double>>
                        out;
                    for (const analysis::DiffEntry &entry : kernels)
                        out[entry.name] = {entry.value_a,
                                           entry.value_b};
                    return out;
                };
            equiv = equiv &&
                    near(federated->gpu_time_a, manual.gpu_time_a) &&
                    near(federated->gpu_time_b, manual.gpu_time_b) &&
                    federated->kernel_launches_a ==
                        manual.kernel_launches_a &&
                    federated->kernel_launches_b ==
                        manual.kernel_launches_b &&
                    federated->contexts_a == manual.contexts_a &&
                    federated->contexts_b == manual.contexts_b;
            const auto fed_kernels = byName(federated->kernels);
            const auto manual_kernels = byName(manual.kernels);
            equiv =
                equiv && fed_kernels.size() == manual_kernels.size();
            if (equiv) {
                for (const auto &[name, values] : manual_kernels) {
                    const auto it = fed_kernels.find(name);
                    if (it == fed_kernels.end() ||
                        !near(it->second.first, values.first) ||
                        !near(it->second.second, values.second)) {
                        equiv = false;
                        break;
                    }
                }
            }
        }

        // Cold open: close a corpus, then time open() — the WAL
        // replay plus registry insert (and, after a close, the wait
        // for the retired incarnation to finish destructing).
        torch.reset();
        jax.reset();
        manager.close("pytorch");
        std::vector<double> open_samples;
        for (int i = 0; i < 5; ++i) {
            const Clock::time_point t0 = Clock::now();
            CorpusHandle handle = manager.open("pytorch", &error);
            open_samples.push_back(secondsSince(t0) * 1e6);
            if (handle == nullptr) {
                std::printf("cold open failed: %s\n", error.c_str());
                equiv = false;
                break;
            }
            handle.reset();
            manager.close("pytorch");
        }
        open_us = open_samples.empty() ? 0.0 : median(open_samples);
    }

    // LRU contract: a max_open=2 manager over the same root must
    // close the coldest corpus when a third one is created, and the
    // closed corpus must reopen with its runs intact.
    {
        WarehouseManager::Options lru_options = manager_options;
        lru_options.max_open = 2;
        WarehouseManager manager(lru_options);
        std::string error;
        CorpusHandle torch = manager.open("pytorch", &error);
        CorpusHandle jax = manager.open("jax", &error);
        lru_correct = torch != nullptr && jax != nullptr;
        torch.reset();
        jax.reset();
        CorpusHandle scratch = manager.create("scratch", &error);
        lru_correct = lru_correct && scratch != nullptr &&
                      !manager.isOpen("pytorch") &&
                      manager.isOpen("jax") &&
                      manager.stats().lru_closed >= 1;
        CorpusHandle again = manager.open("pytorch", &error);
        lru_correct =
            lru_correct && again != nullptr && again->store.size() > 0;
        again.reset();
        scratch.reset();
        manager.drop("scratch", &error);
    }

    // Scrub the bench root.
    {
        WarehouseManager manager(manager_options);
        std::string error;
        for (const std::string &id : manager.corpusIds())
            manager.drop(id, &error);
    }
    ::rmdir(root.c_str());

    std::printf("federated diff (wire): %.0f us median, cold corpus "
                "open: %.0f us median\n",
                federated_diff_us, open_us);
    std::printf("federated == manual pairwise merge: %s, LRU "
                "close/reopen contract: %s\n",
                equiv ? "yes" : "NO",
                lru_correct ? "held" : "BROKEN");
    json->emplace_back("federated_diff_us", federated_diff_us);
    json->emplace_back("corpus_open_us", open_us);
    json->emplace_back("federated_equiv", equiv ? 1.0 : 0.0);
    json->emplace_back("manager_lru_close_correct",
                       lru_correct ? 1.0 : 0.0);
}

/**
 * Multi-core query scaling: @p widths concurrent client threads each
 * hammer the cached topKernels fast path (striped view cache, atomic
 * stats, lock-free read of the materialized table) and the aggregate
 * throughput lands in scale_topk_qps_tN. On a multi-core host the
 * curve should rise with the width; on a single-core runner it stays
 * flat, which is why compare_bench.py downgrades scale_* regressions
 * to warnings when the recorded hardware_concurrency is 1.
 */
void
benchQueryScaling(const std::vector<std::string> &pool,
                  const std::vector<int> &widths,
                  std::vector<std::pair<std::string, double>> *json)
{
    ProfileStore store;
    for (int i = 0; i < 16; ++i) {
        store.ingestText("run-" + std::to_string(i),
                         pool[static_cast<std::size_t>(i) %
                              pool.size()]);
    }
    store.waitIdle();
    QueryEngine engine(store);
    engine.topKernels(10); // materialize once; threads hit the cache

    std::printf("\nquery scaling (cached topKernels, %zu stored "
                "runs):\n",
                store.size());
    for (const int width : widths) {
        constexpr int kQueriesPerThread = 2000;
        std::vector<double> rounds;
        for (int round = 0; round < 3; ++round) {
            std::atomic<int> ready{0};
            std::atomic<bool> go{false};
            std::vector<std::thread> threads;
            threads.reserve(static_cast<std::size_t>(width));
            for (int t = 0; t < width; ++t) {
                threads.emplace_back([&] {
                    ++ready;
                    while (!go.load())
                        std::this_thread::yield();
                    for (int q = 0; q < kQueriesPerThread; ++q)
                        engine.topKernels(10);
                });
            }
            while (ready.load() < width)
                std::this_thread::yield();
            const Clock::time_point start = Clock::now();
            go.store(true);
            for (std::thread &thread : threads)
                thread.join();
            rounds.push_back(
                static_cast<double>(width) * kQueriesPerThread /
                secondsSince(start));
        }
        const double qps = median(rounds);
        std::printf("  %d thread(s): %.0f queries/s\n", width, qps);
        json->emplace_back("scale_topk_qps_t" + std::to_string(width),
                           qps);
    }
}

/**
 * Dogfood the span rings: convert everything this process traced so
 * far into a ProfileDb, prove it survives the same handoff as any
 * tenant profile (validate + serialize/tryDeserialize + warehouse
 * ingest + topKernels), and — when @p telemetry_dir is set — export
 * the three telemetry artifacts of this run: the metrics snapshot,
 * the Chrome-trace span dump, and the self-profile flame graph.
 */
void
benchSelfProfile(std::vector<std::pair<std::string, double>> *json,
                 const std::string &telemetry_dir)
{
    const std::vector<obs::SpanRecord> spans =
        obs::TraceBuffer::global().snapshot();
    std::unique_ptr<prof::ProfileDb> profile =
        obs::selfProfile(spans, {{"bench", "profile_service"}});

    bool equivalent = !spans.empty();
    std::string error;
    equivalent = equivalent && profile->validate(&error);
    // The self-profile must ride the ordinary tenant path: text
    // round-trip, warehouse handoff, interned-id aggregation.
    std::unique_ptr<prof::ProfileDb> reparsed =
        prof::ProfileDb::tryDeserialize(profile->serialize(), &error);
    equivalent = equivalent && reparsed != nullptr;

    ProfileStore self_store;
    QueryEngine self_engine(self_store);
    if (equivalent) {
        self_store.ingestText("bench-self", profile->serialize());
        self_store.waitIdle();
        const std::vector<KernelAggregate> top = self_engine.topKernels(
            5, {}, prof::metric_names::kRealTime);
        bool saw_site = false;
        for (const KernelAggregate &agg : top)
            saw_site = saw_site || agg.name == "warehouse.ingest" ||
                       agg.name == "query.topk" ||
                       agg.name == "wal.append";
        equivalent = self_store.stats().failed == 0 && saw_site;
    }

    std::printf("self-profile: %zu spans -> ProfileDb round trip %s\n",
                spans.size(), equivalent ? "ok" : "FAILED");
    if (!equivalent && !error.empty())
        std::printf("self-profile error: %s\n", error.c_str());
    // 0/1 gate-visible flag: the warehouse's own telemetry is
    // queryable through the warehouse.
    json->emplace_back("selfprofile_equiv", equivalent ? 1.0 : 0.0);

    if (telemetry_dir.empty())
        return;
    if (!ensureDir(telemetry_dir, &error)) {
        std::printf("cannot create %s: %s\n", telemetry_dir.c_str(),
                    error.c_str());
        return;
    }
    gui::FlameGraphOptions options;
    options.metric = prof::metric_names::kRealTime;
    const std::pair<std::string, std::string> artifacts[] = {
        {"obs_metrics.json",
         obs::MetricsRegistry::global().toJson()},
        {"obs_trace.json", obs::toChromeTrace(spans)},
        {"obs_selfprofile.html",
         equivalent ? self_engine.flameGraphHtml(
                          "warehouse self-profile", {}, options)
                    : std::string()},
    };
    for (const auto &[name, contents] : artifacts) {
        const std::string path = telemetry_dir + "/" + name;
        if (!atomicWriteFile(path, contents, &error))
            std::printf("cannot write %s: %s\n", path.c_str(),
                        error.c_str());
        else
            std::printf("wrote %s (%s)\n", path.c_str(),
                        humanBytes(contents.size()).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    int max_runs = 64;
    std::string json_path;
    std::string telemetry_dir;
    std::vector<int> scale_widths = {1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-runs") == 0 && i + 1 < argc)
            max_runs = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--telemetry-dir") == 0 &&
                 i + 1 < argc)
            telemetry_dir = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 &&
                 i + 1 < argc) {
            scale_widths.clear();
            for (const std::string &part : split(argv[++i], ',')) {
                const int width = std::atoi(part.c_str());
                if (width > 0)
                    scale_widths.push_back(width);
            }
        }
    }
    std::vector<std::pair<std::string, double>> json;

    std::printf("profile warehouse bench "
                "(ingestion + query fast path over stored runs)\n\n");
    const std::vector<std::string> pool = seedProfiles();
    std::uint64_t pool_bytes = 0;
    for (const std::string &text : pool)
        pool_bytes += text.size();
    std::printf("seeded %zu workload profiles, avg %s serialized\n",
                pool.size(),
                humanBytes(pool_bytes / pool.size()).c_str());
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("%u hardware thread(s) for parallel reduction\n\n",
                hw > 0 ? hw : 1);
    // Recorded so the CI gate knows whether a flat scale curve is a
    // regression or just a single-core runner.
    json.emplace_back("hardware_concurrency",
                      static_cast<double>(hw > 0 ? hw : 1));

    bench::printRow({"stored runs", "ingest/s", "topk legacy",
                     "topk cached", "topk cold", "merge pre-PR",
                     "merge serial", "merge parallel"},
                    13);
    bench::printRule(8, 13);

    for (int runs : {1, 8, 64}) {
        if (runs > max_runs)
            break;
        ProfileStore store;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < runs; ++i) {
            store.ingestText(
                "run-" + std::to_string(i),
                pool[static_cast<std::size_t>(i) % pool.size()]);
        }
        store.waitIdle();
        const double ingest_s = secondsSince(start);
        if (store.stats().failed != 0) {
            std::printf("unexpected ingestion failures: %llu\n",
                        static_cast<unsigned long long>(
                            store.stats().failed));
            return 1;
        }

        const Snapshot snapshot = store.snapshot();
        std::vector<const prof::ProfileDb *> profiles;
        std::vector<std::string> run_ids;
        splitSnapshot(snapshot, &profiles, &run_ids);

        QueryEngine engine(store);
        QueryFilter torch;
        torch.framework = "PyTorch";
        const int reps = 20;
        const int merge_reps = 5;

        // Pre-view baseline: every call re-walks the whole corpus.
        const double legacy_topk_us = medianLatencyUs(reps, [&] {
            legacyTopKernels(snapshot, 10,
                             prof::metric_names::kGpuTime);
        });
        // Fast path, warm: repeated queries over an unchanged corpus.
        engine.topKernels(10); // materialize once
        const double cached_topk_us =
            medianLatencyUs(reps, [&] { engine.topKernels(10); });
        const double cached_filter_us =
            medianLatencyUs(reps, [&] { engine.topKernels(10, torch); });
        // Fast path, cold: first touch pays the parallel rebuild.
        const double cold_topk_us = medianLatencyUs(merge_reps, [&] {
            engine.corpusView().invalidateAll();
            engine.topKernels(10);
        });

        // Cold-merge wall time: pre-PR kernel vs serial fold vs
        // parallel tree reduction (all from-scratch merges).
        const double prepr_merge_us = medianLatencyUs(
            merge_reps, [&] { preprMergeAll(snapshot); });
        const double serial_merge_us = medianLatencyUs(merge_reps, [&] {
            CctMerger::mergeAllPrevalidated(profiles, run_ids,
                                            /*workers=*/1);
        });
        const double parallel_merge_us =
            medianLatencyUs(merge_reps, [&] {
                CctMerger::mergeAllPrevalidated(profiles, run_ids,
                                                /*workers=*/0,
                                                /*grain=*/4);
            });
        // Warm merged(): hand out the cached view's shared_ptr.
        engine.merged();
        const double cached_merge_us =
            medianLatencyUs(reps, [&] { engine.merged(); });

        bench::printRow(
            {std::to_string(runs),
             strformat("%.0f", static_cast<double>(runs) / ingest_s),
             strformat("%.0f us", legacy_topk_us),
             strformat("%.1f us", cached_topk_us),
             strformat("%.0f us", cold_topk_us),
             strformat("%.0f us", prepr_merge_us),
             strformat("%.0f us", serial_merge_us),
             strformat("%.0f us", parallel_merge_us)},
            13);

        const std::string scale = std::to_string(runs);
        json.emplace_back("ingest_profiles_per_sec_" + scale,
                          static_cast<double>(runs) / ingest_s);
        json.emplace_back("legacy_topk_us_" + scale, legacy_topk_us);
        json.emplace_back("cached_topk_us_" + scale, cached_topk_us);
        json.emplace_back("cached_filter_topk_us_" + scale,
                          cached_filter_us);
        json.emplace_back("cold_topk_us_" + scale, cold_topk_us);
        json.emplace_back("prepr_merge_us_" + scale, prepr_merge_us);
        json.emplace_back("serial_merge_us_" + scale, serial_merge_us);
        json.emplace_back("parallel_merge_us_" + scale,
                          parallel_merge_us);
        json.emplace_back("cached_merge_us_" + scale, cached_merge_us);
        json.emplace_back("cached_topk_speedup_" + scale,
                          legacy_topk_us / cached_topk_us);
        json.emplace_back("cold_merge_speedup_" + scale,
                          prepr_merge_us / parallel_merge_us);
        // Size-bucketed reduction ratios (replacing the old per-scale
        // reduction_vs_serial_speedup_N keys): the executor's serial
        // cutover makes sub-threshold merges serial on purpose, so
        // the small bucket asserts "no fan-out tax" (~1.0) and only
        // the large bucket claims the parallel win.
        std::size_t total_nodes = 0;
        for (const prof::ProfileDb *profile : profiles)
            total_nodes += profile->cct().nodeCount();
        if (runs == 8) {
            json.emplace_back("reduction_vs_serial_speedup_small",
                              serial_merge_us / parallel_merge_us);
            std::printf("  (small reduction bucket: %zu runs, %zu "
                        "tree nodes)\n",
                        profiles.size(), total_nodes);
        } else if (runs == 64) {
            json.emplace_back("reduction_vs_serial_speedup_large",
                              serial_merge_us / parallel_merge_us);
            std::printf("  (large reduction bucket: %zu runs, %zu "
                        "tree nodes)\n",
                        profiles.size(), total_nodes);
        }

        if (runs < 64 || 64 > max_runs)
            continue;

        // Incremental refresh: one new run lands, the next query folds
        // just that run onto the cached view.
        int next_run = runs;
        const double incremental_topk_us =
            medianLatencyUs(10, [&] {
                store.ingestText(
                    "run-" + std::to_string(next_run),
                    pool[static_cast<std::size_t>(next_run) %
                         pool.size()]);
                ++next_run;
                store.waitIdle();
                engine.topKernels(10);
            });
        json.emplace_back("incremental_topk_us_64",
                          incremental_topk_us);

        // Queries racing live ingestion (and periodic erases).
        std::atomic<bool> done{false};
        std::thread ingester([&] {
            for (int i = 0; i < 16; ++i) {
                store.ingestText(
                    "live-" + std::to_string(i),
                    pool[static_cast<std::size_t>(i) % pool.size()]);
            }
            store.waitIdle();
            done.store(true);
        });
        std::vector<double> concurrent_samples;
        while (!done.load()) {
            const Clock::time_point qstart = Clock::now();
            engine.topKernels(10);
            concurrent_samples.push_back(secondsSince(qstart) * 1e6);
        }
        ingester.join();
        const double concurrent_topk_us = median(concurrent_samples);
        json.emplace_back("concurrent_ingest_topk_us_64",
                          concurrent_topk_us);

        std::printf(
            "\n64-run scenarios: incremental refresh %.0f us/query, "
            "%zu queries during live ingestion at %.0f us median\n",
            incremental_topk_us, concurrent_samples.size(),
            concurrent_topk_us);
        const auto view_stats = engine.corpusView().stats();
        std::printf("view cache: %llu hits, %llu incremental, "
                    "%llu rebuilds\n",
                    static_cast<unsigned long long>(view_stats.hits),
                    static_cast<unsigned long long>(
                        view_stats.incremental),
                    static_cast<unsigned long long>(
                        view_stats.rebuilds));
    }

    benchCompactionLifecycle(&json);
    benchDurability(pool, &json);
    benchGroupCommitAndCheckpoint(pool, &json);
    benchTelemetryOverhead(pool, &json);
    benchQueryScaling(pool, scale_widths, &json);
    benchWireServer(pool, &json);
    benchWarehouseFederation(pool, &json);

    std::printf("\nquery sanity: ");
    {
        ProfileStore store;
        for (std::size_t i = 0; i < pool.size(); ++i)
            store.ingestText("run-" + std::to_string(i), pool[i]);
        store.waitIdle();
        QueryEngine engine(store);
        const auto top = engine.topKernels(3);
        for (const KernelAggregate &agg : top) {
            std::printf("%s (%s over %zu runs)  ", agg.name.c_str(),
                        humanTime(static_cast<std::int64_t>(agg.total))
                            .c_str(),
                        agg.runs);
        }
        std::printf("\n");

        // The fast path must agree with the legacy aggregation.
        const auto legacy =
            legacyTopKernels(store.snapshot(), 3,
                             prof::metric_names::kGpuTime);
        if (legacy.size() != top.size())
            return 1;
        for (std::size_t i = 0; i < top.size(); ++i) {
            const double tolerance =
                1e-9 * std::abs(top[i].total) + 1e-6;
            if (legacy[i].name != top[i].name ||
                std::abs(legacy[i].total - top[i].total) > tolerance ||
                legacy[i].runs != top[i].runs) {
                std::printf("fast-path mismatch vs legacy at #%zu\n",
                            i);
                return 1;
            }
        }
    }

    // Last, so the self-profile and exports cover the whole run's spans.
    std::printf("\n");
    benchSelfProfile(&json, telemetry_dir);

    if (!json_path.empty()) {
        if (!bench::writeJson(json_path, json))
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
