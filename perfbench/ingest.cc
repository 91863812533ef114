/**
 * @file
 * The `ingest` workload: rounds in which 2 writer connections upload
 * the profile pool with durable acks into 4 fresh corpora while 1
 * reader issues top-k on the corpus last written; the checks run and
 * the corpora are dropped between rounds.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "profiler/profile_db.h"
#include "service/warehouse_log.h"
#include "warehouse.h"

namespace perfbench {

namespace wire {

namespace {

/// Durable uploads per writer connection in the ingest warm-up.
constexpr std::size_t kWarmUploads = 16;
/// Rounds between close + reopen checks (the last round always has one).
constexpr int kReopenEvery = 8;

struct IngestItem {
    std::size_t corpus = 0;
    std::size_t text = 0;
    std::string run_id;
};

/**
 * One round: every pool text uploaded once, into its own corpus, under
 * a fresh seeded run id; each corpus's texts split evenly between the
 * two writers, whose upload orders are seeded.
 */
std::array<std::vector<IngestItem>, 2>
planRound(Gen &gen, const Pool &pool)
{
    std::array<std::vector<IngestItem>, 2> writers;
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        std::vector<std::size_t> texts(pool[c].size());
        std::iota(texts.begin(), texts.end(), std::size_t{0});
        gen.shuffle(texts);
        for (std::size_t i = 0; i < texts.size(); ++i) {
            writers[i < texts.size() / 2 ? 0 : 1].push_back(
                {c, texts[i], "i" + gen.token()});
        }
    }
    for (auto &items : writers)
        gen.shuffle(items);
    return writers;
}

std::string
roundCorpus(std::size_t c, int round)
{
    return std::string(kCorpora[c].id) + "-r" + std::to_string(round);
}

/**
 * What a phase of ingest rounds measured. Rate and medians are taken
 * per round; the phase reports the best quarter of rounds.
 */
struct IngestPhase {
    Latency ack;  ///< Send to durable ack.
    Latency topk; ///< The reader's unfiltered top-k.
    std::vector<double> round_acks_per_s, round_ack_p50, round_topk_p50;
    std::uint64_t acks = 0;
    double timed_s = 0.0;
    int rounds = 0;
    std::uint64_t fsyncs = 0, appends = 0;
    std::uint64_t disk_bytes = 0, user_bytes = 0;
    CorpusView::Stats views;

    double acksPerSecond() const
    {
        return bestQuarter(round_acks_per_s, true);
    }
    double ackP50() const { return bestQuarter(round_ack_p50, false); }
    double topkP50() const { return bestQuarter(round_topk_p50, false); }
};

/** Private durable store and log the traced half times layers on. */
struct IngestProbes {
    explicit IngestProbes(const std::string &root)
    {
        std::error_code ec;
        fs::create_directories(root, ec);
        ProfileStore::Options options;
        options.data_dir = root + "/probe-store";
        options.workers = 2;
        store = std::make_unique<ProfileStore>(options);
        WarehouseLog::Options log_options;
        log_options.dir = root + "/probe-log";
        failed = !store->logHealthy() || !log.open(log_options) ||
                 !log.replay([](WarehouseLog::Record) {});
    }

    std::unique_ptr<ProfileStore> store;
    WarehouseLog log;
    std::atomic<bool> failed{false};
};

/**
 * What the reader waits on: it reads only after a new durable ack, so
 * (nearly) every read pays an incremental view refresh, like a GUI
 * that refreshes when told new runs arrived.
 */
class News
{
  public:
    void acked(std::size_t corpus)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++acks_;
        last_corpus_ = corpus;
        cv_.notify_all();
    }

    /** A writer finished; true for the last one. */
    bool writerDone()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cv_.notify_all();
        return --writers_left_ == 0;
    }

    /**
     * Wait for an ack newer than the last one seen; false once the
     * writers are done and nothing new arrived.
     */
    bool next(std::size_t *corpus)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return acks_ > seen_ || writers_left_ == 0; });
        if (acks_ == seen_)
            return false;
        seen_ = acks_;
        *corpus = last_corpus_;
        return true;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t acks_ = 0;
    std::uint64_t seen_ = 0;
    std::size_t last_corpus_ = 0;
    int writers_left_ = 2;
};

class IngestBench
{
    /** A writer's private engine over one corpus of the round. */
    struct RefreshProbe {
        CorpusHandle handle;
        std::unique_ptr<QueryEngine> engine;
    };

  public:
    IngestBench(Warehouse &warehouse, Clients &clients, const Pool &pool)
        : warehouse_(warehouse), clients_(clients), pool_(pool)
    {
    }

    bool createCorpora(int round, std::string *error)
    {
        for (std::size_t c = 0; c < kCorpusCount; ++c) {
            if (warehouse_.manager().create(roundCorpus(c, round), error) ==
                nullptr) {
                return false;
            }
        }
        return true;
    }

    /**
     * Warm-up: each writer connection uploads kWarmUploads pool texts
     * durably into a scratch corpus, which is then dropped.
     */
    bool warmUp(std::string *error)
    {
        const std::string scratch = "warm-up";
        if (warehouse_.manager().create(scratch, error) == nullptr)
            return false;
        std::atomic<bool> ok{true};
        runThreads(2, [&](std::size_t t) {
            WireClient &client = clients_[t];
            client.setCorpus(scratch);
            for (std::size_t i = 0; i < kWarmUploads; ++i) {
                const std::size_t c = i % kCorpusCount;
                const std::size_t text =
                    (t * kWarmUploads + i) % pool_[c].size();
                const WireClient::Result result = client.ingest(
                    "w" + std::to_string(t) + "-" + std::to_string(i),
                    pool_[c][text], true, kDeadlineMs);
                Failure why{};
                if (wireFailed(result, &why))
                    ok.store(false);
            }
        });
        if (!ok.load())
            *error = "warm-up upload failed";
        return ok.load() && warehouse_.manager().drop(scratch, error);
    }

    /** Rounds until @p seconds of upload time have passed. */
    IngestPhase run(Gen &gen, double seconds, OpCount *ops, Tracer *tracer,
                    IngestProbes *probes, Report *report)
    {
        IngestPhase phase;
        while (phase.timed_s < seconds) {
            const auto plan = planRound(gen, pool_);
            std::string error;
            if (round_ > 0 && !createCorpora(round_, &error)) {
                report->checkFailed("cannot create corpora: " + error);
                break;
            }
            runRound(plan, gen, &phase, ops, tracer, probes);
            // The WAL replay check is the costly one: every
            // kReopenEvery-th round, and the last.
            verifyRound(round_ % kReopenEvery == 0 || phase.timed_s >= seconds,
                        &phase, report);
            ++round_;
            ++phase.rounds;
        }
        return phase;
    }

  private:
    void runRound(const std::array<std::vector<IngestItem>, 2> &plan,
                  Gen &gen, IngestPhase *phase, OpCount *ops, Tracer *tracer,
                  IngestProbes *probes)
    {
        std::array<Latency, 3> latency;
        std::array<std::vector<IngestItem>, 2> acked;
        std::array<Gen, 2> replay_gen = {gen.fork(1), gen.fork(2)};
        News news;
        const Clock::time_point start = Clock::now();
        double upload_ms = 0.0;
        runThreads(3, [&](std::size_t t) {
            if (t < 2) {
                for (const IngestItem &item : plan[t]) {
                    if (upload(t, item, &latency[t], ops, tracer, probes,
                               replay_gen[t])) {
                        acked[t].push_back(item);
                        news.acked(item.corpus);
                    }
                }
                if (news.writerDone())
                    upload_ms = msSince(start);
                return;
            }
            read(clients_[2], news, &latency[2], ops, tracer);
        });
        refresh_probes_ = {}; // release the round's corpus handles
        phase->timed_s += upload_ms / 1e3;
        latency[0].merge(latency[1]);
        phase->ack.merge(latency[0]);
        phase->topk.merge(latency[2]);
        phase->round_ack_p50.push_back(latency[0].percentile(0.50));
        phase->round_topk_p50.push_back(latency[2].percentile(0.50));
        acked_ = {};
        for (const auto &items : acked) {
            for (const IngestItem &item : items) {
                acked_[item.corpus].push_back(item);
                phase->user_bytes += pool_[item.corpus][item.text].size();
                ++phase->acks;
            }
        }
        phase->round_acks_per_s.push_back(
            static_cast<double>(acked[0].size() + acked[1].size()) /
            (upload_ms / 1e3));
    }

    bool upload(std::size_t writer, const IngestItem &item,
                Latency *latency, OpCount *ops, Tracer *tracer,
                IngestProbes *probes, Gen &gen)
    {
        WireClient &client = clients_[writer];
        const std::string corpus = roundCorpus(item.corpus, round_);
        const std::string &text = pool_[item.corpus][item.text];
        const bool sampled =
            tracer != nullptr && gen.below(kReplayEvery) == 0;
        RefreshProbe *refresh = nullptr;
        if (sampled) {
            // Bring a private view of the corpus up to date first, so
            // the timed refresh below folds in just this publish.
            refresh = &refresh_probes_[writer][item.corpus];
            if (refresh->engine == nullptr) {
                refresh->handle = warehouse_.manager().open(corpus);
                if (refresh->handle != nullptr) {
                    refresh->engine =
                        std::make_unique<QueryEngine>(refresh->handle->store);
                }
            }
            if (refresh->engine != nullptr)
                (void)refresh->engine->corpusView().acquire({});
        }
        const std::uint64_t op = tracer != nullptr ? tracer->newOp() : 0;
        Tracer::Scope op_span(tracer, "bench.ingest", op);
        client.setCorpus(corpus);
        ops->attempt();
        const Clock::time_point t0 = Clock::now();
        WireClient::Result result;
        {
            Tracer::Scope span(tracer, "server.wire_ingest", op);
            result = client.ingest(item.run_id, text, true, kDeadlineMs);
        }
        const bool ok = settle(result, true, ops);
        record(latency, ok, msSince(t0));
        if (ok && sampled)
            replay(item.run_id, text, refresh, op, tracer, probes);
        return ok;
    }

    /** Unfiltered top-k on the corpus last written, until uploads end. */
    void read(WireClient &client, News &news, Latency *latency, OpCount *ops,
              Tracer *tracer)
    {
        std::size_t c = 0;
        while (news.next(&c)) {
            const std::uint64_t op = tracer != nullptr ? tracer->newOp() : 0;
            Tracer::Scope op_span(tracer, "bench.topk", op);
            client.setCorpus(roundCorpus(c, round_));
            std::vector<KernelRow> rows;
            ops->attempt();
            const Clock::time_point t0 = Clock::now();
            WireClient::Result result;
            {
                Tracer::Scope span(tracer, "server.wire_topk", op);
                result = client.topKernels(kTopK, "", {}, &rows, kDeadlineMs);
            }
            // The corpus holds at least the run just acked.
            const double ms = msSince(t0);
            record(latency, settle(result, !rows.empty(), ops), ms);
        }
    }

    /** The acked upload again, one ingest layer at a time. */
    void replay(const std::string &run_id, const std::string &text,
                RefreshProbe *refresh, std::uint64_t op, Tracer *tracer,
                IngestProbes *probes)
    {
        if (refresh->engine != nullptr) {
            Tracer::Scope span(tracer, "corpus_view.refresh", op);
            (void)refresh->engine->corpusView().acquire({});
        }
        {
            Tracer::Scope span(tracer, "profiler.parse", op);
            (void)prof::ProfileDb::tryDeserialize(text);
        }
        {
            Tracer::Scope span(tracer, "profile_store.ingest", op);
            probes->store->ingestText(run_id, text);
            probes->store->waitIdle();
        }
        Tracer::Scope span(tracer, "warehouse_log.append", op);
        if (!probes->log.appendRun(run_id, text))
            probes->failed.store(true);
    }

    /**
     * Untimed: every corpus holds exactly the acked run ids and its
     * wire top-k equals a reference engine over the same texts; with
     * @p reopen, both still hold after close + reopen (a WAL replay).
     * Then the round's corpora are dropped.
     */
    void verifyRound(bool reopen, IngestPhase *phase, Report *report)
    {
        WarehouseManager &manager = warehouse_.manager();
        std::array<std::string, kCorpusCount> ids;
        std::array<std::vector<std::string>, kCorpusCount> expected;
        std::array<std::vector<KernelRow>, kCorpusCount> reference;
        for (std::size_t c = 0; c < kCorpusCount; ++c) {
            ids[c] = roundCorpus(c, round_);
            for (const IngestItem &item : acked_[c])
                expected[c].push_back(item.run_id);
            std::sort(expected[c].begin(), expected[c].end());
            reference[c] = referenceRows(c);
        }
        const auto holdsAcked = [&](std::size_t c) {
            const CorpusHandle handle = manager.open(ids[c]);
            if (handle == nullptr)
                return false;
            std::vector<std::string> held = handle->store.runIds();
            std::sort(held.begin(), held.end());
            std::vector<KernelRow> rows;
            clients_[0].setCorpus(ids[c]);
            const WireClient::Result result = clients_[0].topKernels(
                kAllKernels, "", {}, &rows, kDeadlineMs);
            Failure why{};
            return held == expected[c] && !wireFailed(result, &why) &&
                   sameRows(rows, reference[c]);
        };
        for (std::size_t c = 0; c < kCorpusCount; ++c) {
            if (!holdsAcked(c))
                report->checkFailed(ids[c] + ": runs or top-k differ from "
                                             "the acked uploads");
            const CorpusHandle handle = manager.open(ids[c]);
            if (handle != nullptr) {
                const StoreStats stats = handle->store.stats();
                phase->fsyncs += stats.log_fsyncs;
                phase->appends += stats.log_appends;
                phase->views += handle->engine.corpusView().stats();
            }
        }
        for (std::size_t c = 0; c < kCorpusCount; ++c)
            phase->disk_bytes += dirBytes(warehouse_.root() + "/" + ids[c]);
        if (reopen) {
            // Close all, then reopen (WAL replay) side by side.
            for (std::size_t c = 0; c < kCorpusCount; ++c)
                manager.close(ids[c]);
            runThreads(kCorpusCount,
                       [&](std::size_t c) { (void)manager.open(ids[c]); });
            for (std::size_t c = 0; c < kCorpusCount; ++c) {
                if (!holdsAcked(c))
                    report->checkFailed(ids[c] + ": acked runs lost across "
                                                 "close + reopen");
            }
        }
        for (std::size_t c = 0; c < kCorpusCount; ++c) {
            std::string error;
            if (!manager.drop(ids[c], &error))
                report->checkFailed(ids[c] + ": drop failed: " + error);
        }
    }

    /**
     * Top-k over every kernel of a reference engine holding the texts
     * acked into corpus @p c. A round that acked every upload holds the
     * whole pool, whose answer is computed once.
     */
    std::vector<KernelRow> referenceRows(std::size_t c)
    {
        const bool whole_pool = acked_[c].size() == pool_[c].size();
        if (whole_pool && !whole_pool_rows_[c].empty())
            return whole_pool_rows_[c];
        ProfileStore store;
        for (const IngestItem &item : acked_[c])
            store.ingestText(item.run_id, pool_[c][item.text]);
        store.waitIdle();
        std::vector<KernelRow> rows =
            toRows(QueryEngine(store).topKernels(kAllKernels));
        if (whole_pool)
            whole_pool_rows_[c] = rows;
        return rows;
    }

    Warehouse &warehouse_;
    Clients &clients_;
    const Pool &pool_;
    int round_ = 0;
    std::array<std::vector<IngestItem>, kCorpusCount> acked_;
    std::array<std::array<RefreshProbe, kCorpusCount>, 2> refresh_probes_;
    std::array<std::vector<KernelRow>, kCorpusCount> whole_pool_rows_;
};

} // namespace

} // namespace wire

Outcome
runIngestWorkload(const Args &args)
{
    using namespace wire;
    Outcome out;
    Gen gen(args.seed);
    const Pool pool = makePool(gen.fork(0));
    Clients clients;
    std::unique_ptr<Warehouse> warehouse = repeatSetUp(
        args, clients, &out,
        [&](const std::string &root,
            std::string *error) -> std::unique_ptr<Warehouse> {
            auto fresh = std::make_unique<Warehouse>(root);
            if (!fresh->start(error))
                return nullptr;
            for (WireClient &client : clients) {
                if (!fresh->connect(client, error))
                    return nullptr;
            }
            IngestBench bench(*fresh, clients, pool);
            if (!bench.createCorpora(0, error) || !bench.warmUp(error))
                return nullptr;
            return fresh;
        });
    if (warehouse == nullptr)
        return out;

    IngestBench bench(*warehouse, clients, pool);
    OpCount ops;
    Gen plan_gen = gen.fork(1);
    const double measured = args.trace ? args.seconds / 2 : args.seconds;
    const server::ServerStats start = warehouse->server().stats();
    const IngestPhase phase =
        bench.run(plan_gen, measured, &ops, nullptr, nullptr, &out.report);

    out.e2e["throughput_per_s"] = phase.acksPerSecond();
    out.e2e_alias["throughput_per_s"] = "ingest_runs_per_s";
    out.e2e["p50_ms"] = phase.ackP50();
    out.e2e_alias["p50_ms"] = "ingest_ack_p50_ms";
    out.e2e["side_p50_ms"] = phase.topkP50();
    out.e2e_alias["side_p50_ms"] = "topk_p50_us / 1000, the reader";
    Report &report = out.report;
    report.addExtra("ingest_runs_per_s", phase.acksPerSecond(), "1/s",
                    std::to_string(phase.rounds) + " rounds");
    report.addExtra("ingest_ack_p50_ms", phase.ackP50(), "ms",
                    std::to_string(phase.ack.count()) + " samples");
    report.addExtra("ingest_ack_p99_ms", phase.ack.percentile(0.99), "ms");
    report.addExtra("topk_p50_us", phase.topkP50() * 1e3, "us",
                    std::to_string(phase.topk.count()) + " samples");
    report.addExtra("topk_p99_us", phase.topk.percentile(0.99) * 1e3, "us");

    if (args.trace) {
        Tracer tracer;
        auto probes =
            std::make_unique<IngestProbes>(workRoot(args) + "/probes");
        const Counters before = Counters::now(*warehouse);
        const IngestPhase traced = bench.run(plan_gen, measured, &ops, &tracer,
                                             probes.get(), &out.report);
        const Counters after = Counters::now(*warehouse);
        addCounterLayers(before, after, traced.acks, &out);
        addViewLayers({}, traced.views, &out);
        addTraceOverhead(&out, phase.ackP50(), traced.ackP50(),
                         phase.acksPerSecond(), traced.acksPerSecond());
        const auto durations = tracer.durationsByName();
        out.layers["profiler.parse_ms"] =
            layerMedian(durations, "profiler.parse");
        const double store_ms = layerMedian(durations, "profile_store.ingest");
        out.layers["profile_store.ingest_ms"] = store_ms;
        out.layers["warehouse_log.append_ms"] =
            layerMedian(durations, "warehouse_log.append");
        out.layers["corpus_view.refresh_ms"] =
            layerMedian(durations, "corpus_view.refresh");
        out.layers["warehouse_log.fsyncs_per_append"] =
            static_cast<double>(traced.fsyncs) /
            static_cast<double>(std::max<std::uint64_t>(traced.appends, 1));
        out.layers["warehouse_log.bytes_per_user_byte"] =
            static_cast<double>(traced.disk_bytes) /
            static_cast<double>(std::max<std::uint64_t>(traced.user_bytes, 1));
        out.layers["server.ingest_tax_ms"] = traced.ackP50() - store_ms;
        // The query layers, which this workload's traffic never reaches,
        // timed from outside so every layer has a number on a kept
        // workload.
        probeQueryLayers(args, pool, gen.fork(2), &tracer, &out);
        if (probes->failed.load())
            out.report.checkFailed("the traced half's private log failed");
        probes.reset();
        finishTrace(tracer, args, &out);
    }
    finishRun(args, start, std::move(warehouse), ops, &out);
    return out;
}

} // namespace perfbench
