/**
 * @file
 * The `query` workload: 4 static corpora preloaded at set-up; 2
 * interactive connections issue cached top-k over 4 hot signatures per
 * corpus, and 1 analysis connection cycles through cold top-k,
 * federated diff and flame export. It never touches the WAL.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "analyzer/diff.h"
#include "gui/flamegraph.h"
#include "profiler/profile_db.h"
#include "server/wire.h"
#include "service/cct_merger.h"
#include "warehouse.h"

namespace perfbench {

namespace wire {

namespace {

/// Copies of the pool per corpus in the query workload (80 runs).
constexpr int kQueryCopies = 2;
/// Operations of each kind probeQueryLayers() replays.
constexpr std::size_t kProbeRounds = 64;

QueryFilter
filterFor(const CorpusSpec &spec, bool framework, bool platform,
          int iterations)
{
    QueryFilter filter;
    if (framework)
        filter.framework = workloads::frameworkName(spec.framework);
    if (platform)
        filter.platform = workloads::platformName(spec.platform);
    if (iterations > 0)
        filter.metadata["iterations"] = std::to_string(iterations);
    return filter;
}

/**
 * The query workload's inputs. Per corpus: 4 hot signatures that each
 * select the whole corpus (fits the 8-view cache beside cold churn),
 * and 16 cold signatures that each select one iteration count (a
 * quarter of the corpus), more than the cache holds.
 */
struct QueryInputs {
    std::array<std::vector<QueryFilter>, kCorpusCount> hot, cold;
    /// (run id, pool index) per corpus, in ingestion order.
    std::array<std::vector<std::pair<std::string, std::size_t>>,
               kCorpusCount>
        runs;
    std::vector<std::string> side_a = {"torch-nvidia", "torch-amd"};
    std::vector<std::string> side_b = {"jax-nvidia", "jax-amd"};
};

QueryInputs
makeQueryInputs(Gen gen, const Pool &pool)
{
    QueryInputs in;
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        const CorpusSpec &spec = kCorpora[c];
        for (const bool framework : {false, true}) {
            for (const bool platform : {false, true})
                in.hot[c].push_back(filterFor(spec, framework, platform, 0));
        }
        for (const int iterations : kPoolIterations) {
            for (const bool framework : {false, true}) {
                for (const bool platform : {false, true}) {
                    in.cold[c].push_back(
                        filterFor(spec, framework, platform, iterations));
                }
            }
        }
        for (int copy = 0; copy < kQueryCopies; ++copy) {
            for (std::size_t i = 0; i < pool[c].size(); ++i)
                in.runs[c].emplace_back("q" + gen.token(), i);
        }
        gen.shuffle(in.runs[c]);
    }
    return in;
}

/** In-process answers every wire response is checked against. */
struct QueryRefs {
    std::array<std::vector<std::vector<KernelRow>>, kCorpusCount> hot, cold;
    std::array<std::string, kCorpusCount> flame;
    std::string diff;
};

std::string
joinIds(const std::vector<std::string> &ids)
{
    std::string out;
    for (const std::string &id : ids)
        out += (out.empty() ? "" : "+") + id;
    return out;
}

std::unique_ptr<Warehouse>
setUpQuery(const std::string &root, const Pool &pool, const QueryInputs &in,
           Clients &clients, std::string *error)
{
    auto warehouse = std::make_unique<Warehouse>(root);
    WarehouseManager &manager = warehouse->manager();
    if (!warehouse->start(error))
        return nullptr;
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        const CorpusHandle handle = manager.create(kCorpora[c].id, error);
        if (handle == nullptr)
            return nullptr;
        for (const auto &[run_id, index] : in.runs[c])
            handle->store.ingestText(run_id, pool[c][index]);
    }
    manager.waitIdle();
    // Warm-up: the hot views, each corpus's flame graph and the
    // federated diff's legs are materialized before timing.
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        const CorpusHandle handle = manager.open(kCorpora[c].id, error);
        if (handle == nullptr)
            return nullptr;
        for (const QueryFilter &filter : in.hot[c])
            (void)handle->engine.topKernels(kTopK, filter);
        (void)handle->engine.flameGraph({});
    }
    (void)manager.federatedDiff(in.side_a, in.side_b);
    for (WireClient &client : clients) {
        if (!warehouse->connect(client, error))
            return nullptr;
    }
    return warehouse;
}

/** Field-for-field comparison, as bench_profile_service's check. */
bool
sameComparison(const analysis::ProfileComparison &a,
               const analysis::ProfileComparison &b)
{
    if (!near(a.gpu_time_a, b.gpu_time_a) ||
        !near(a.gpu_time_b, b.gpu_time_b) ||
        a.kernel_launches_a != b.kernel_launches_a ||
        a.kernel_launches_b != b.kernel_launches_b ||
        a.contexts_a != b.contexts_a || a.contexts_b != b.contexts_b ||
        a.kernels.size() != b.kernels.size()) {
        return false;
    }
    std::map<std::string, std::pair<double, double>> by_name;
    for (const analysis::DiffEntry &entry : b.kernels)
        by_name[entry.name] = {entry.value_a, entry.value_b};
    for (const analysis::DiffEntry &entry : a.kernels) {
        const auto it = by_name.find(entry.name);
        if (it == by_name.end() || !near(it->second.first, entry.value_a) ||
            !near(it->second.second, entry.value_b)) {
            return false;
        }
    }
    return true;
}

/** Every run of @p ids merged by CctMerger alone: the reference. */
std::unique_ptr<prof::ProfileDb>
mergeCorporaByHand(WarehouseManager &manager,
                   const std::vector<std::string> &ids)
{
    std::vector<std::unique_ptr<prof::ProfileDb>> merged;
    for (const std::string &id : ids) {
        const CorpusHandle handle = manager.open(id);
        if (handle == nullptr)
            return nullptr;
        const auto snapshot = handle->store.snapshot();
        std::vector<const prof::ProfileDb *> profiles;
        std::vector<std::string> run_ids;
        for (const auto &[run_id, profile] : snapshot) {
            profiles.push_back(profile.get());
            run_ids.push_back(run_id);
        }
        merged.push_back(CctMerger::mergeAll(profiles, run_ids));
    }
    std::vector<const prof::ProfileDb *> parts;
    for (const auto &part : merged)
        parts.push_back(part.get());
    return CctMerger::mergeAll(parts, ids);
}

QueryRefs
makeQueryRefs(WarehouseManager &manager, const QueryInputs &in,
              Report *report)
{
    QueryRefs refs;
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        const CorpusHandle handle = manager.open(kCorpora[c].id);
        // The hot answers come from the served (cached) views; the
        // cold ones from a private engine, leaving the cache alone.
        for (const QueryFilter &filter : in.hot[c])
            refs.hot[c].push_back(
                toRows(handle->engine.topKernels(kTopK, filter)));
        const QueryEngine fresh(handle->store);
        for (const QueryFilter &filter : in.cold[c])
            refs.cold[c].push_back(toRows(fresh.topKernels(kTopK, filter)));
        refs.flame[c] = gui::FlameGraph::toHtml(
            *handle->engine.flameGraph({}), "warehouse");
    }
    const std::optional<analysis::ProfileComparison> diff =
        manager.federatedDiff(in.side_a, in.side_b);
    const std::unique_ptr<prof::ProfileDb> by_hand_a =
        mergeCorporaByHand(manager, in.side_a);
    const std::unique_ptr<prof::ProfileDb> by_hand_b =
        mergeCorporaByHand(manager, in.side_b);
    if (!diff.has_value() || by_hand_a == nullptr || by_hand_b == nullptr ||
        !sameComparison(*diff, analysis::compareProfiles(*by_hand_a,
                                                         *by_hand_b))) {
        report->checkFailed("federated diff differs from a by-hand merge");
    }
    if (diff.has_value())
        refs.diff = diff->toString(joinIds(in.side_a), joinIds(in.side_b));
    return refs;
}

/// The query workload's statistics are taken per window of this length;
/// the phase reports the best quarter of windows. A window holds 20+
/// analysis cycles.
constexpr double kWindowMs = 1000.0;

struct QueryWindow {
    Latency topk;  ///< Interactive connections.
    Latency cycle; ///< Analysis connection: cold top-k + diff + flame.
    std::uint64_t completed = 0;
};

struct QueryPhase {
    std::vector<QueryWindow> windows; ///< Whole windows only.
    Latency topk, cycle, cold, diff, flame; ///< Over the whole phase.
    std::uint64_t completed = 0;

    QueryWindow &window(double at_ms)
    {
        const auto index = static_cast<std::size_t>(at_ms / kWindowMs);
        if (windows.size() <= index)
            windows.resize(index + 1);
        return windows[index];
    }

    /** Best quarter of windows of @p stat. */
    template <typename Stat>
    double overWindows(Stat stat, bool higher_is_better) const
    {
        std::vector<double> values;
        for (const QueryWindow &w : windows)
            values.push_back(stat(w));
        return bestQuarter(values, higher_is_better);
    }

    double opsPerSecond() const
    {
        return overWindows(
            [](const QueryWindow &w) {
                return static_cast<double>(w.completed) / (kWindowMs / 1e3);
            },
            true);
    }
    double topkP50() const
    {
        return overWindows(
            [](const QueryWindow &w) { return w.topk.percentile(0.50); },
            false);
    }
    double cycleP50() const
    {
        return overWindows(
            [](const QueryWindow &w) { return w.cycle.percentile(0.50); },
            false);
    }
};

/**
 * Query operations issued in-process, one layer at a time: resolve
 * corpus -> acquire view -> compute -> render or encode. Each layer
 * call gets its own span.
 */
class QueryReplays
{
  public:
    QueryReplays(WarehouseManager &manager, const QueryInputs &in)
        : manager_(manager), in_(in)
    {
    }

    void topk(std::size_t c, const QueryFilter &filter,
                    std::uint64_t op, Tracer *tracer)
    {
        const CorpusHandle handle = resolve(c, op, tracer);
        if (handle == nullptr)
            return;
        {
            Tracer::Scope span(tracer, "corpus_view.acquire", op);
            (void)handle->engine.corpusView().acquire(filter);
        }
        std::vector<KernelAggregate> top;
        {
            Tracer::Scope span(tracer, "query_engine.topk", op);
            top = handle->engine.topKernels(kTopK, filter);
        }
        replayCodec(op, server::encodeKernelRows(toRows(top)), tracer);
    }

    void coldTopk(std::size_t c, const QueryFilter &filter,
                  std::uint64_t op, Tracer *tracer)
    {
        const CorpusHandle handle = resolve(c, op, tracer);
        if (handle == nullptr)
            return;
        // A private engine: its empty cache makes the acquire a cold
        // rebuild without disturbing the served cache.
        const QueryEngine fresh(handle->store);
        {
            Tracer::Scope span(tracer, "corpus_view.rebuild", op);
            (void)fresh.corpusView().acquire(filter);
        }
        const auto snapshot = handle->store.snapshot();
        std::vector<const prof::ProfileDb *> profiles;
        std::vector<std::string> run_ids;
        for (const auto &[run_id, profile] : snapshot) {
            if (filter.matches(profile->metadata())) {
                profiles.push_back(profile.get());
                run_ids.push_back(run_id);
            }
        }
        Tracer::Scope span(tracer, "cct_merger.merge", op);
        (void)CctMerger::mergeAllPrevalidated(profiles, run_ids);
    }

    void diff(std::uint64_t op, Tracer *tracer)
    {
        std::optional<analysis::ProfileComparison> diff;
        {
            Tracer::Scope span(tracer, "warehouse_manager.federated_diff",
                               op);
            diff = manager_.federatedDiff(in_.side_a, in_.side_b);
        }
        if (!diff.has_value())
            return;
        std::string text;
        {
            Tracer::Scope span(tracer, "analyzer.diff_text", op);
            text = diff->toString(joinIds(in_.side_a), joinIds(in_.side_b));
        }
        replayCodec(op, text, tracer);
    }

    void flame(std::size_t c, std::uint64_t op, Tracer *tracer)
    {
        const CorpusHandle handle = resolve(c, op, tracer);
        if (handle == nullptr)
            return;
        std::shared_ptr<const gui::FlameNode> flame;
        {
            Tracer::Scope span(tracer, "query_engine.flame", op);
            flame = handle->engine.flameGraph({});
        }
        if (flame == nullptr)
            return;
        std::string html;
        {
            Tracer::Scope span(tracer, "gui.flame_html", op);
            html = gui::FlameGraph::toHtml(*flame, "warehouse");
        }
        replayCodec(op, html, tracer);
    }

  private:
    CorpusHandle resolve(std::size_t c, std::uint64_t op, Tracer *tracer)
    {
        Tracer::Scope span(tracer, "warehouse_manager.open", op);
        return manager_.open(kCorpora[c].id);
    }

    WarehouseManager &manager_;
    const QueryInputs &in_;
};

class QueryBench
{
  public:
    QueryBench(Warehouse &warehouse, Clients &clients,
               const QueryInputs &in, const QueryRefs &refs)
        : warehouse_(warehouse), clients_(clients), in_(in), refs_(refs),
          replays_(warehouse.manager(), in)
    {
    }

    QueryPhase run(Gen gen, double seconds, OpCount *ops, Tracer *tracer)
    {
        std::array<QueryPhase, 3> parts;
        std::atomic<bool> stop{false};
        const Clock::time_point start = Clock::now();
        std::thread timer([&] {
            while (msSince(start) < seconds * 1e3)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            stop.store(true);
        });
        runThreads(3, [&](std::size_t t) {
            Gen mine = gen.fork(t);
            if (t < 2) {
                interactive(clients_[t], mine, start, stop, &parts[t], ops,
                            tracer);
            } else {
                analysis(clients_[t], mine, start, stop, &parts[t], ops,
                         tracer);
            }
        });
        timer.join();
        QueryPhase phase;
        phase.windows.resize(std::max<std::size_t>(
            static_cast<std::size_t>(seconds * 1e3 / kWindowMs), 1));
        for (const QueryPhase &part : parts) {
            phase.topk.merge(part.topk);
            phase.cycle.merge(part.cycle);
            phase.cold.merge(part.cold);
            phase.diff.merge(part.diff);
            phase.flame.merge(part.flame);
            phase.completed += part.completed;
            for (std::size_t i = 0;
                 i < std::min(part.windows.size(), phase.windows.size());
                 ++i) {
                phase.windows[i].topk.merge(part.windows[i].topk);
                phase.windows[i].cycle.merge(part.windows[i].cycle);
                phase.windows[i].completed += part.windows[i].completed;
            }
        }
        return phase;
    }

  private:
    /** Cached top-k over the hot signatures, in seeded order. */
    void interactive(WireClient &client, Gen &gen, Clock::time_point start,
                     const std::atomic<bool> &stop, QueryPhase *part,
                     OpCount *ops, Tracer *tracer)
    {
        Cycle pairs(kCorpusCount * in_.hot[0].size());
        while (!stop.load()) {
            const std::size_t pair = pairs.next(gen);
            const std::size_t c = pair / in_.hot[0].size();
            const std::size_t s = pair % in_.hot[0].size();
            const std::uint64_t op = tracer != nullptr ? tracer->newOp() : 0;
            Tracer::Scope op_span(tracer, "bench.topk", op);
            client.setCorpus(kCorpora[c].id);
            std::vector<KernelRow> rows;
            ops->attempt();
            const Clock::time_point t0 = Clock::now();
            WireClient::Result result;
            {
                Tracer::Scope span(tracer, "server.wire_topk", op);
                result = client.topKernels(kTopK, "", in_.hot[c][s], &rows,
                                           kDeadlineMs);
            }
            const double ms = msSince(t0);
            const bool ok =
                settle(result, sameRows(rows, refs_.hot[c][s]), ops);
            QueryWindow &window = part->window(msSince(start));
            record(&part->topk, ok, ms);
            record(&window.topk, ok, ms);
            ++window.completed;
            ++part->completed;
            if (tracer != nullptr && gen.below(kReplayEvery) == 0)
                replays_.topk(c, in_.hot[c][s], op, tracer);
        }
    }

    /** Seeded mix of cold top-k, federated diff and flame export. */
    void analysis(WireClient &client, Gen &gen, Clock::time_point start,
                  const std::atomic<bool> &stop, QueryPhase *part,
                  OpCount *ops, Tracer *tracer)
    {
        Cycle corpora(kCorpusCount);
        Cycle flames(kCorpusCount);
        std::vector<Cycle> cold(kCorpusCount, Cycle(in_.cold[0].size()));
        static const char *const kOpNames[] = {
            "bench.cold_topk", "bench.federated_diff", "bench.flame"};
        std::vector<int> kinds = {0, 1, 2};
        while (!stop.load()) {
            gen.shuffle(kinds);
            double cycle_ms = 0.0;
            bool cycle_ok = true;
            for (const int kind : kinds) {
                const std::uint64_t op =
                    tracer != nullptr ? tracer->newOp() : 0;
                Tracer::Scope op_span(tracer, kOpNames[kind], op);
                WireClient::Result result;
                bool matches = false;
                Latency *latency = nullptr;
                std::size_t c = 0, s = 0;
                ops->attempt();
                Clock::time_point t0;
                double ms = 0.0;
                if (kind == 0) {
                    c = corpora.next(gen);
                    s = cold[c].next(gen);
                    client.setCorpus(kCorpora[c].id);
                    std::vector<KernelRow> rows;
                    t0 = Clock::now();
                    {
                        Tracer::Scope span(tracer, "server.wire_cold_topk",
                                           op);
                        result = client.topKernels(kTopK, "", in_.cold[c][s],
                                                   &rows, kDeadlineMs);
                    }
                    ms = msSince(t0);
                    matches = sameRows(rows, refs_.cold[c][s]);
                    latency = &part->cold;
                } else if (kind == 1) {
                    t0 = Clock::now();
                    {
                        Tracer::Scope span(tracer,
                                           "server.wire_federated_diff", op);
                        result = client.federatedDiff(in_.side_a, in_.side_b,
                                                      {}, kDeadlineMs);
                    }
                    ms = msSince(t0);
                    matches = result.payload == refs_.diff;
                    latency = &part->diff;
                } else {
                    c = flames.next(gen);
                    client.setCorpus(kCorpora[c].id);
                    t0 = Clock::now();
                    {
                        Tracer::Scope span(tracer, "server.wire_flame", op);
                        result = client.flameGraph("", {}, kDeadlineMs);
                    }
                    ms = msSince(t0);
                    matches = result.payload == refs_.flame[c];
                    latency = &part->flame;
                }
                const bool ok = settle(result, matches, ops);
                record(latency, ok, ms);
                cycle_ok = cycle_ok && ok;
                cycle_ms += ms;
                ++part->window(msSince(start)).completed;
                ++part->completed;
                if (tracer != nullptr && gen.below(kReplayEvery) == 0) {
                    if (kind == 0)
                        replays_.coldTopk(c, in_.cold[c][s], op, tracer);
                    else if (kind == 1)
                        replays_.diff(op, tracer);
                    else
                        replays_.flame(c, op, tracer);
                }
            }
            record(&part->cycle, cycle_ok, cycle_ms);
            record(&part->window(msSince(start)).cycle, cycle_ok, cycle_ms);
        }
    }

    Warehouse &warehouse_;
    Clients &clients_;
    const QueryInputs &in_;
    const QueryRefs &refs_;
    QueryReplays replays_;
};

/**
 * The query rows of the per-layer table: medians of the replay spans
 * in @p tracer, plus the idle wire tax measured now through @p client.
 */
void
addQueryLayers(Warehouse &warehouse, WireClient &client,
               const QueryInputs &in, const Tracer &tracer, Outcome *out)
{
    // The wire tax: an idle wire top-k against the same top-k
    // in-process.
    const CorpusHandle handle = warehouse.manager().open(kCorpora[0].id);
    Latency wire, local;
    client.setCorpus(kCorpora[0].id);
    for (int i = 0; i < 2000; ++i) {
        std::vector<KernelRow> rows;
        const Clock::time_point t0 = Clock::now();
        const WireClient::Result result = client.topKernels(
            kTopK, "", in.hot[0][0], &rows, kDeadlineMs);
        Failure why{};
        if (wireFailed(result, &why))
            wire.addFailed();
        else
            wire.add(msSince(t0));
    }
    for (int i = 0; i < 2000; ++i) {
        const Clock::time_point t0 = Clock::now();
        (void)handle->engine.topKernels(kTopK, in.hot[0][0]);
        local.add(msSince(t0));
    }
    const double local_us = local.percentile(0.50) * 1e3;
    out->layers["query_engine.topk_us"] = local_us;
    out->layers["server.tax_us"] = wire.percentile(0.50) * 1e3 - local_us;

    const auto durations = tracer.durationsByName();
    out->layers["corpus_view.rebuild_ms"] =
        layerMedian(durations, "corpus_view.rebuild");
    out->layers["cct_merger.merge_ms"] =
        layerMedian(durations, "cct_merger.merge");
    out->layers["gui.flame_html_ms"] =
        layerMedian(durations, "gui.flame_html");
    out->layers["warehouse_manager.federated_diff_ms"] =
        layerMedian(durations, "warehouse_manager.federated_diff");
    out->layers["server.wire_encode_us"] =
        layerMean(durations, "server.encode", 1e3);
    out->layers["server.wire_decode_us"] =
        layerMean(durations, "server.decode", 1e3);
}

} // namespace

void
probeQueryLayers(const Args &args, const Pool &pool, Gen gen, Tracer *tracer,
                 Outcome *out)
{
    const QueryInputs in = makeQueryInputs(gen, pool);
    Clients clients;
    std::string error;
    const std::unique_ptr<Warehouse> warehouse = setUpQuery(
        workRoot(args) + "/query-layers", pool, in, clients, &error);
    if (warehouse == nullptr) {
        out->report.checkFailed("query-layer probe set-up failed: " + error);
        return;
    }
    QueryReplays replays(warehouse->manager(), in);
    for (std::size_t i = 0; i < kProbeRounds; ++i) {
        const std::size_t c = i % kCorpusCount;
        replays.topk(c, in.hot[c][i % in.hot[c].size()], tracer->newOp(),
                     tracer);
        replays.coldTopk(c, in.cold[c][i % in.cold[c].size()],
                         tracer->newOp(), tracer);
        replays.diff(tracer->newOp(), tracer);
        replays.flame(c, tracer->newOp(), tracer);
    }
    addQueryLayers(*warehouse, clients[0], in, *tracer, out);
}

} // namespace wire

Outcome
runQueryWorkload(const Args &args)
{
    using namespace wire;
    Outcome out;
    Gen gen(args.seed);
    const Pool pool = makePool(gen.fork(0));
    const QueryInputs in = makeQueryInputs(gen.fork(1), pool);
    Clients clients;
    std::unique_ptr<Warehouse> warehouse = repeatSetUp(
        args, clients, &out, [&](const std::string &root, std::string *error) {
            return setUpQuery(root, pool, in, clients, error);
        });
    if (warehouse == nullptr)
        return out;

    const QueryRefs refs = makeQueryRefs(warehouse->manager(), in, &out.report);
    QueryBench bench(*warehouse, clients, in, refs);
    OpCount ops;
    const double measured = args.trace ? args.seconds / 2 : args.seconds;
    const server::ServerStats start = warehouse->server().stats();
    const QueryPhase phase = bench.run(gen.fork(2), measured, &ops, nullptr);

    out.e2e["throughput_per_s"] = phase.opsPerSecond();
    out.e2e_alias["throughput_per_s"] = "query_ops_per_s";
    out.e2e["p50_ms"] = phase.topkP50();
    out.e2e_alias["p50_ms"] = "topk_p50_us / 1000, interactive";
    out.e2e["side_p50_ms"] = phase.cycleP50();
    out.e2e_alias["side_p50_ms"] = "analysis cycle: cold top-k + diff + flame";
    Report &report = out.report;
    report.addExtra("query_ops_per_s", phase.opsPerSecond(), "1/s");
    report.addExtra("topk_p50_us", phase.topkP50() * 1e3, "us",
                    std::to_string(phase.topk.count()) + " samples");
    report.addExtra("topk_p99_us", phase.topk.percentile(0.99) * 1e3, "us");
    report.addExtra("cold_topk_p50_ms", phase.cold.percentile(0.50), "ms",
                    std::to_string(phase.cold.count()) + " samples");
    report.addExtra("federated_diff_p50_ms", phase.diff.percentile(0.50),
                    "ms", std::to_string(phase.diff.count()) + " samples");
    report.addExtra("flame_p50_ms", phase.flame.percentile(0.50), "ms",
                    std::to_string(phase.flame.count()) + " samples");
    report.addExtra("analysis_cycles",
                    static_cast<double>(phase.cycle.count()), "count");

    if (args.trace) {
        Tracer tracer;
        const std::vector<std::string> ids(
            {kCorpora[0].id, kCorpora[1].id, kCorpora[2].id, kCorpora[3].id});
        const CorpusView::Stats views_before =
            viewStats(warehouse->manager(), ids);
        const Counters before = Counters::now(*warehouse);
        const QueryPhase traced =
            bench.run(gen.fork(3), measured, &ops, &tracer);
        const Counters after = Counters::now(*warehouse);
        addCounterLayers(before, after, traced.completed, &out);
        addViewLayers(views_before, viewStats(warehouse->manager(), ids), &out);
        addTraceOverhead(&out, phase.topkP50(), traced.topkP50(),
                         phase.opsPerSecond(), traced.opsPerSecond());

        addQueryLayers(*warehouse, clients[0], in, tracer, &out);
        finishTrace(tracer, args, &out);
    }
    finishRun(args, start, std::move(warehouse), ops, &out);
    return out;
}

} // namespace perfbench
