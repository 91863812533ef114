#pragma once

/**
 * @file
 * What the warehouse workloads (`ingest`, `query`) share.
 *
 * Both drive a manager-mode WireServer over loopback from this
 * process, configured the way `tool_warehouse_server --corpus-root`
 * configures it: 2 server workers, store drain width 2, max_open 8,
 * 8 cached views per corpus, log_sync on (durable acks fsync), and the
 * shared executor at its default width. Four corpora, one per
 * framework x platform, hold DeepContext-Native profiles from a pool
 * generated before set-up (10 models x 4 iteration counts per corpus).
 * Every caller is a closed loop and at most 3 connections are open,
 * one per client thread.
 */

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "service/corpus_view.h"
#include "service/query_engine.h"
#include "service/warehouse_manager.h"
#include "workloads.h"
#include "workloads/runner.h"

namespace perfbench::wire {

namespace fs = std::filesystem;
using namespace dc;
using namespace dc::service;
using server::KernelRow;
using server::WireClient;
using workloads::FrameworkSel;
using workloads::PlatformSel;

constexpr std::uint32_t kTopK = 16;
/// Top-k wide enough to return every kernel (exact-state checks).
constexpr std::uint32_t kAllKernels = 1u << 20;
/// Generous deadline: a stuck server fails the operation instead of
/// hanging the run.
constexpr std::uint32_t kDeadlineMs = 30'000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// One in this many operations of the traced half is also issued
/// in-process, one layer at a time.
constexpr std::size_t kReplayEvery = 8;
/// Iteration counts of the pool's runs: stamped as the "iterations"
/// metadata the query workload's cold filters select on.
constexpr int kPoolIterations[] = {1, 2, 3, 4};

struct CorpusSpec {
    const char *id;
    FrameworkSel framework;
    PlatformSel platform;
};
constexpr std::size_t kCorpusCount = 4;
constexpr CorpusSpec kCorpora[kCorpusCount] = {
    {"torch-nvidia", FrameworkSel::kTorch, PlatformSel::kNvidiaA100},
    {"torch-amd", FrameworkSel::kTorch, PlatformSel::kAmdMi250},
    {"jax-nvidia", FrameworkSel::kJax, PlatformSel::kNvidiaA100},
    {"jax-amd", FrameworkSel::kJax, PlatformSel::kAmdMi250},
};

/** Serialized profiles per corpus, made before set-up. */
using Pool = std::array<std::vector<std::string>, kCorpusCount>;

Pool makePool(Gen gen);

std::vector<KernelRow> toRows(const std::vector<KernelAggregate> &top);

/** Equal to 1e-9 relative (the merge's rounding freedom). */
bool near(double x, double y);

/**
 * Rows equal up to the floating-point rounding freedom CctMerger
 * documents: names, samples and runs exactly, totals to 1e-9.
 */
bool
sameRows(std::vector<KernelRow> a, std::vector<KernelRow> b);

/** Bytes of every regular file under @p dir. */
std::uint64_t
dirBytes(const std::string &dir);

CorpusView::Stats &
operator+=(CorpusView::Stats &sum, const CorpusView::Stats &add);

/** The server under test and the manager behind it. */
class Warehouse
{
  public:
    explicit Warehouse(std::string root);

    ~Warehouse(); ///< drain + stop, then removes the root.

    Warehouse(const Warehouse &) = delete;
    Warehouse &operator=(const Warehouse &) = delete;

    bool start(std::string *error) { return server_->start(error); }

    bool connect(WireClient &client, std::string *error)
    {
        return client.connect("127.0.0.1", server_->port(), error) &&
               client.ping("warm").ok;
    }

    WarehouseManager &manager() { return *manager_; }
    server::WireServer &server() { return *server_; }
    const std::string &root() const { return root_; }

  private:
    std::string root_;
    std::unique_ptr<WarehouseManager> manager_;
    std::unique_ptr<server::WireServer> server_;
};

using Clients = std::array<WireClient, 3>;

/** Counter deltas over one phase (server, executor). */
struct Counters {
    server::ServerStats server;
    common::Executor::Stats executor;

    static Counters now(Warehouse &warehouse);
};


/** Server and executor counter deltas, as per-layer metrics. */
void
addCounterLayers(const Counters &before, const Counters &after,
                 std::uint64_t ops, Outcome *out);

/** Run @p fn on @p count threads and join them all. */
template <typename Fn>
void
runThreads(std::size_t count, Fn &&fn)
{
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < count; ++i)
        threads.emplace_back(fn, i);
    for (std::thread &thread : threads)
        thread.join();
}

/**
 * A seeded permutation handed out one element at a time, reshuffled
 * when used up so the same element never comes twice in a row.
 */
class Cycle
{
  public:
    explicit Cycle(std::size_t n);

    std::size_t next(Gen &gen);

  private:
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
};

/** Median (times @p scale) of the spans named @p name; 0 when none. */
double layerMedian(const std::map<std::string, std::vector<double>> &durations,
                   const char *name, double scale = 1.0);
/** Mean (times @p scale) of the spans named @p name; 0 when none. */
double layerMean(const std::map<std::string, std::vector<double>> &durations,
                 const char *name, double scale = 1.0);

/** encodeFrame + decodeFrame of one response payload, traced. */
void
replayCodec(std::uint64_t op, const std::string &payload, Tracer *tracer);

/** Count one wire exchange; true when it succeeded and matched. */
bool
settle(const WireClient::Result &result, bool matches, OpCount *ops);

/** A latency sample, or a failure (+inf) when @p ok is false. */
void
record(Latency *latency, bool ok, double ms);

/** View-cache counters summed over the corpora @p ids. */
CorpusView::Stats
viewStats(WarehouseManager &manager, const std::vector<std::string> &ids);

/** View-cache counter deltas, as per-layer metrics. */
void
addViewLayers(const CorpusView::Stats &before, const CorpusView::Stats &after,
              Outcome *out);

/**
 * End a warehouse run: requests shed or past their deadline since
 * @p start, server shutdown, scratch removal, peak RSS and the
 * operation counts.
 */
void finishRun(const Args &args, const server::ServerStats &start,
               std::unique_ptr<Warehouse> warehouse, const OpCount &ops,
               Outcome *out);

/**
 * Time the query layers from outside, for a workload whose own traffic
 * does not reach them: set up the query workload's 4 static corpora
 * from @p pool, replay each query operation in-process one layer at a
 * time under @p tracer, and measure the idle wire tax. Fills the query
 * rows of the per-layer table.
 */
void probeQueryLayers(const Args &args, const Pool &pool, Gen gen,
                      Tracer *tracer, Outcome *out);

/** This run's scratch directory under --work-dir. */
std::string
workRoot(const Args &args);

/**
 * Set-up, @p kSetupRepeats times (median reported, last one kept):
 * start the server, connect every client, create round 0's corpora.
 */
template <typename SetUp>
std::unique_ptr<Warehouse>
repeatSetUp(const Args &args, Clients &clients, Outcome *out, SetUp &&setUp)
{
    std::vector<double> times;
    std::unique_ptr<Warehouse> warehouse;
    for (int i = 0; i < kSetupRepeats; ++i) {
        warehouse.reset();
        for (WireClient &client : clients)
            client.close();
        std::string error;
        const Clock::time_point start = Clock::now();
        warehouse = setUp(workRoot(args) + "/setup-" + std::to_string(i),
                          &error);
        times.push_back(msSince(start) / 1e3);
        if (warehouse == nullptr) {
            out->report.checkFailed("set-up failed: " + error);
            return nullptr;
        }
    }
    out->e2e["setup_s"] = median(times);
    return warehouse;
}

} // namespace perfbench::wire
