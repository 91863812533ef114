/**
 * @file
 * Multi-corpus warehouse tests: the WarehouseManager registry
 * (create/open/close/drop lifecycle, LRU budgets, volatile vs durable
 * modes), federated queries spanning corpora with *different*
 * StringTables (disjoint, overlapping, and post-compactNames()
 * id-recycled name sets — the cross-table NameTranslator surface),
 * the corpus-addressed wire protocol (corpus routing, the default
 * corpus, lifecycle + federated opcodes, per-corpus stats labels), the
 * close-vs-cold-rebuild drain race (run under TSan in CI), and the
 * multi-corpus crash torture: SIGKILL a serving process while two
 * corpora ingest concurrently, restart on the same root, and hold
 * every corpus to the durable-ack contract independently.
 *
 * The crash-torture child is this binary re-executed with
 * --gtest_filter=WarehouseCrashTortureChild.Serve (exec, not plain
 * fork: the parent has live threads).
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analyzer/diff.h"
#include "common/deadline.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/rng.h"
#include "profiler/profile_db.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "service/cct_merger.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_manager.h"

namespace dc {
namespace {

using prof::Cct;
using prof::CctNode;
using prof::MetricRegistry;
using prof::ProfileDb;
using server::Opcode;
using server::ServerOptions;
using server::Status;
using server::WireClient;
using server::WireServer;
using service::CorpusHandle;
using service::ProfileStore;
using service::QueryEngine;
using service::WarehouseManager;

using Metadata = std::map<std::string, std::string>;

/** Profile with explicit kernel names/values and metadata. */
std::unique_ptr<ProfileDb>
namedProfile(const std::vector<std::pair<std::string, double>> &kernels,
             Metadata metadata = {})
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    const int count = metrics.intern(prof::metric_names::kKernelCount);
    for (const auto &[name, value] : kernels) {
        CctNode *leaf =
            cct->insert({dlmon::Frame::python("train.py", "step", 3),
                         dlmon::Frame::op("aten::mm"),
                         dlmon::Frame::kernel(name)});
        cct->addMetric(leaf, gpu, value);
        cct->addMetric(leaf, count, 1.0);
    }
    return std::make_unique<ProfileDb>(std::move(cct),
                                       std::move(metrics),
                                       std::move(metadata));
}

/** Deterministic profile: same salt always yields equal bytes. */
std::unique_ptr<ProfileDb>
makeProfile(int salt, Metadata metadata = {})
{
    std::vector<std::pair<std::string, double>> kernels;
    Rng rng(12'000 + static_cast<std::uint64_t>(salt));
    for (int i = 0; i < 3 + salt % 3; ++i) {
        kernels.emplace_back("kernel_" + std::to_string((salt + i) % 5),
                             rng.uniform(10.0, 1000.0));
    }
    return namedProfile(kernels, std::move(metadata));
}

std::string
profileText(int salt)
{
    return makeProfile(salt)->serialize();
}

ProfileStore::Options
memStoreOptions()
{
    ProfileStore::Options options;
    options.workers = 1;
    return options;
}

WarehouseManager::Options
volatileOptions()
{
    WarehouseManager::Options options;
    options.store = memStoreOptions();
    return options;
}

std::string
freshRoot(const std::string &name)
{
    const std::string root = ::testing::TempDir() + "/" + name;
    std::vector<std::string> corpora;
    if (listDir(root, &corpora)) { // wipe a previous run's tree
        for (const std::string &corpus : corpora) {
            std::vector<std::string> files;
            const std::string dir = root + "/" + corpus;
            if (listDir(dir, &files)) {
                for (const std::string &file : files)
                    removeFile(dir + "/" + file);
            }
            ::rmdir(dir.c_str());
            removeFile(dir);
        }
    }
    EXPECT_TRUE(ensureDir(root));
    return root;
}

WarehouseManager::Options
durableOptions(const std::string &root)
{
    WarehouseManager::Options options;
    options.root_dir = root;
    options.store = memStoreOptions();
    return options;
}

/** Ingest @p profile synchronously into an open corpus. */
void
ingestNow(const CorpusHandle &handle, const std::string &run_id,
          std::unique_ptr<ProfileDb> profile)
{
    handle->store.ingest(run_id, std::move(profile));
    handle->store.waitIdle();
    ASSERT_NE(handle->store.get(run_id), nullptr)
        << run_id << " failed ingestion";
}

// ================================================================
// Registry lifecycle.
// ================================================================

TEST(WarehouseManager, ValidCorpusIds)
{
    EXPECT_TRUE(WarehouseManager::validCorpusId("jax"));
    EXPECT_TRUE(WarehouseManager::validCorpusId("team-a.llama_70B"));
    EXPECT_TRUE(WarehouseManager::validCorpusId("0"));
    EXPECT_FALSE(WarehouseManager::validCorpusId(""));
    EXPECT_FALSE(WarehouseManager::validCorpusId(".hidden"));
    EXPECT_FALSE(WarehouseManager::validCorpusId(".drop-x"));
    EXPECT_FALSE(WarehouseManager::validCorpusId("a/b"));
    EXPECT_FALSE(WarehouseManager::validCorpusId("../escape"));
    EXPECT_FALSE(WarehouseManager::validCorpusId("sp ace"));
    EXPECT_FALSE(WarehouseManager::validCorpusId(
        std::string(WarehouseManager::kMaxCorpusIdBytes + 1, 'x')));
}

TEST(WarehouseManager, VolatileLifecycle)
{
    WarehouseManager manager(volatileOptions());
    std::string error;

    // Unknown until created; invalid ids never reach the registry.
    EXPECT_EQ(manager.open("jax", &error), nullptr);
    EXPECT_NE(error.find("unknown corpus"), std::string::npos) << error;
    EXPECT_EQ(manager.create("bad/id", &error), nullptr);
    EXPECT_NE(error.find("invalid corpus id"), std::string::npos);

    CorpusHandle jax = manager.create("jax", &error);
    ASSERT_NE(jax, nullptr) << error;
    EXPECT_TRUE(manager.isOpen("jax"));
    EXPECT_EQ(manager.create("jax", &error), nullptr)
        << "duplicate create must fail";
    EXPECT_NE(error.find("already exists"), std::string::npos);

    ingestNow(jax, "run-0", makeProfile(0));
    EXPECT_EQ(manager.open("jax")->store.size(), 1u);
    EXPECT_EQ(manager.corpusIds(), std::vector<std::string>{"jax"});

    // close() releases the registry reference; our handle keeps the
    // store alive until it drops, and a volatile corpus is then gone.
    EXPECT_TRUE(manager.close("jax"));
    EXPECT_FALSE(manager.close("jax"));
    EXPECT_FALSE(manager.isOpen("jax"));
    EXPECT_EQ(jax->store.size(), 1u) << "handle still serves";
    jax.reset();
    EXPECT_EQ(manager.open("jax", &error), nullptr)
        << "volatile corpora do not survive close";

    // drop() works on an open volatile corpus and rejects unknowns.
    ASSERT_NE(manager.create("pytorch", &error), nullptr) << error;
    EXPECT_TRUE(manager.drop("pytorch", &error)) << error;
    EXPECT_FALSE(manager.isOpen("pytorch"));
    EXPECT_FALSE(manager.drop("nope", &error));
    EXPECT_NE(error.find("unknown corpus"), std::string::npos);

    const service::ManagerStats stats = manager.stats();
    EXPECT_EQ(stats.created, 2u);
    EXPECT_EQ(stats.closed, 1u);
    EXPECT_EQ(stats.dropped, 1u);
}

TEST(WarehouseManager, DurableLifecyclePersistsAcrossCloseAndManagers)
{
    const std::string root = freshRoot("wm_durable");
    std::string error;
    {
        WarehouseManager manager(durableOptions(root));
        CorpusHandle jax = manager.create("jax", &error);
        ASSERT_NE(jax, nullptr) << error;
        ingestNow(jax, "run-0", makeProfile(0));
        ingestNow(jax, "run-1", makeProfile(1));
        jax.reset();
        ASSERT_TRUE(manager.close("jax"));
        EXPECT_FALSE(manager.isOpen("jax"));
        // Closed, not gone: the registry is the filesystem.
        EXPECT_EQ(manager.corpusIds(), std::vector<std::string>{"jax"});
        CorpusHandle reopened = manager.open("jax", &error);
        ASSERT_NE(reopened, nullptr) << error;
        EXPECT_EQ(reopened->store.size(), 2u) << "WAL replay on reopen";
        EXPECT_EQ(manager.create("jax", &error), nullptr)
            << "create of an existing durable corpus must fail";
    }
    // A new manager on the same root sees the same registry.
    WarehouseManager manager(durableOptions(root));
    EXPECT_EQ(manager.corpusIds(), std::vector<std::string>{"jax"});
    CorpusHandle jax = manager.open("jax", &error);
    ASSERT_NE(jax, nullptr) << error;
    EXPECT_EQ(jax->store.size(), 2u);
    EXPECT_NE(jax->store.get("run-1"), nullptr);

    // drop deletes data: recreate starts empty.
    jax.reset();
    ASSERT_TRUE(manager.drop("jax", &error)) << error;
    EXPECT_TRUE(manager.corpusIds().empty());
    EXPECT_FALSE(pathExists(root + "/jax"));
    CorpusHandle fresh = manager.create("jax", &error);
    ASSERT_NE(fresh, nullptr) << error;
    EXPECT_EQ(fresh->store.size(), 0u);
}

TEST(WarehouseManager, LruClosesColdCorporaBeyondMaxOpen)
{
    const std::string root = freshRoot("wm_lru");
    WarehouseManager::Options options = durableOptions(root);
    options.max_open = 2;
    WarehouseManager manager(options);
    std::string error;

    for (const char *id : {"c0", "c1", "c2"}) {
        CorpusHandle handle = manager.create(id, &error);
        ASSERT_NE(handle, nullptr) << error;
        ingestNow(handle, std::string(id) + "-run", makeProfile(3));
    }
    // c0 was the coldest when c2 opened.
    EXPECT_FALSE(manager.isOpen("c0"));
    EXPECT_TRUE(manager.isOpen("c1"));
    EXPECT_TRUE(manager.isOpen("c2"));
    service::ManagerStats stats = manager.stats();
    EXPECT_EQ(stats.lru_closed, 1u);
    EXPECT_EQ(stats.open_corpora, 2u);

    // Cooling is not loss: reopen replays, and evicts today's coldest.
    CorpusHandle c0 = manager.open("c0", &error);
    ASSERT_NE(c0, nullptr) << error;
    EXPECT_EQ(c0->store.size(), 1u);
    EXPECT_FALSE(manager.isOpen("c1"));
    EXPECT_EQ(manager.stats().lru_closed, 2u);
    // All three still exist durably.
    EXPECT_EQ(manager.corpusIds(),
              (std::vector<std::string>{"c0", "c1", "c2"}));
}

TEST(WarehouseManager, InternedByteBudgetClosesColdCorpora)
{
    const std::string root = freshRoot("wm_bytes");
    WarehouseManager::Options options = durableOptions(root);
    options.max_open = 0; // count-unbounded: bytes drive eviction
    options.max_open_interned_bytes = 1;
    WarehouseManager manager(options);
    std::string error;

    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    ingestNow(a, "run", makeProfile(1));
    ASSERT_GT(a->store.stats().interned_bytes, 1u);
    // Opening b must shed a: a alone already exceeds the global budget.
    CorpusHandle b = manager.create("b", &error);
    ASSERT_NE(b, nullptr) << error;
    EXPECT_FALSE(manager.isOpen("a"));
    EXPECT_TRUE(manager.isOpen("b"))
        << "the corpus being opened is never the one evicted";
    EXPECT_GE(manager.stats().lru_closed, 1u);
    a.reset(); // release our pin; the store tears down cleanly
}

// ================================================================
// Federated queries: per-corpus StringTables do not unify ids; the
// gather is by name. These tests hold the federation to exact
// equivalence with a manual pairwise merge of the same profiles —
// disjoint, overlapping, and id-recycled name sets.
// ================================================================

/** Sum (kernel name -> gpu_time total) over explicit kernel lists. */
std::map<std::string, double>
byNameTotals(
    const std::vector<std::vector<std::pair<std::string, double>>> &runs)
{
    std::map<std::string, double> totals;
    for (const auto &run : runs) {
        for (const auto &[name, value] : run)
            totals[name] += value;
    }
    return totals;
}

TEST(FederatedQuery, TopKernelsAcrossDisjointNameSets)
{
    WarehouseManager manager(volatileOptions());
    std::string error;
    CorpusHandle jax = manager.create("jax", &error);
    ASSERT_NE(jax, nullptr) << error;
    CorpusHandle pt = manager.create("pytorch", &error);
    ASSERT_NE(pt, nullptr) << error;

    const std::vector<std::pair<std::string, double>> jax_run{
        {"fusion_0", 100.0}, {"fusion_1", 50.0}};
    const std::vector<std::pair<std::string, double>> pt_run{
        {"volta_sgemm", 80.0}, {"elementwise", 20.0}};
    ingestNow(jax, "j0", namedProfile(jax_run));
    ingestNow(pt, "p0", namedProfile(pt_run));

    const auto top =
        manager.federatedTopKernels({"jax", "pytorch"}, 16, {},
                                    prof::metric_names::kGpuTime, &error);
    ASSERT_TRUE(top.has_value()) << error;
    const std::map<std::string, double> want =
        byNameTotals({jax_run, pt_run});
    ASSERT_EQ(top->size(), want.size());
    EXPECT_EQ((*top)[0].name, "fusion_0") << "sorted by total desc";
    for (const service::KernelAggregate &agg : *top) {
        ASSERT_EQ(want.count(agg.name), 1u) << agg.name;
        EXPECT_DOUBLE_EQ(agg.total, want.at(agg.name)) << agg.name;
        EXPECT_EQ(agg.runs, 1u) << agg.name;
    }
    EXPECT_GE(manager.stats().federated, 1u);
}

TEST(FederatedQuery, OverlappingNamesSumAcrossCorpora)
{
    WarehouseManager manager(volatileOptions());
    std::string error;
    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    CorpusHandle b = manager.create("b", &error);
    ASSERT_NE(b, nullptr) << error;

    // "shared" interns to *different* ids in the two corpora (b sees
    // other names first) — the name, not the id, must unify them.
    const std::vector<std::pair<std::string, double>> run_a{
        {"shared", 10.0}, {"only_a", 5.0}};
    const std::vector<std::pair<std::string, double>> run_b{
        {"only_b", 7.0}, {"warmup_b", 1.0}, {"shared", 20.0}};
    ingestNow(a, "a0", namedProfile(run_a));
    ingestNow(b, "b0", namedProfile(run_b));

    const auto top = manager.federatedTopKernels(
        {"a", "b"}, 16, {}, prof::metric_names::kGpuTime, &error);
    ASSERT_TRUE(top.has_value()) << error;
    const std::map<std::string, double> want =
        byNameTotals({run_a, run_b});
    ASSERT_EQ(top->size(), want.size());
    for (const service::KernelAggregate &agg : *top) {
        EXPECT_DOUBLE_EQ(agg.total, want.at(agg.name)) << agg.name;
        EXPECT_EQ(agg.runs, agg.name == "shared" ? 2u : 1u) << agg.name;
    }
    // Duplicate ids never double-count a leg.
    const auto deduped = manager.federatedTopKernels(
        {"a", "b", "a"}, 16, {}, prof::metric_names::kGpuTime, &error);
    ASSERT_TRUE(deduped.has_value()) << error;
    EXPECT_DOUBLE_EQ((*deduped)[0].total, 30.0);
}

TEST(FederatedQuery, MergeUnifiesNamesAfterCompactNamesRecycling)
{
    WarehouseManager manager(volatileOptions());
    std::string error;
    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    CorpusHandle b = manager.create("b", &error);
    ASSERT_NE(b, nullptr) << error;

    // Corpus a: churn its table — ingest high-cardinality names, erase
    // them, compact (freeing their ids for recycling), then ingest the
    // runs that matter. Their interned ids now collide with ids corpus
    // b assigned to *different* strings.
    std::vector<std::pair<std::string, double>> churn;
    for (int i = 0; i < 64; ++i)
        churn.emplace_back("churn_" + std::to_string(i), 1.0);
    ingestNow(a, "churn", namedProfile(churn));
    ASSERT_TRUE(a->store.erase("churn"));
    EXPECT_GT(a->store.compactNames(), 0u)
        << "compaction must reclaim the churned names";
    const std::vector<std::pair<std::string, double>> run_a{
        {"attn_fwd", 40.0}, {"shared", 10.0}};
    ingestNow(a, "a0", namedProfile(run_a));

    const std::vector<std::pair<std::string, double>> run_b{
        {"mlp_bwd", 30.0}, {"shared", 5.0}};
    ingestNow(b, "b0", namedProfile(run_b));

    // The federated merge must agree, kernel for kernel, with a manual
    // pairwise merge of the raw profiles (fresh tables, no recycling).
    const std::shared_ptr<const ProfileDb> federated =
        manager.federatedMerged({"a", "b"}, {}, &error);
    ASSERT_NE(federated, nullptr) << error;
    service::CctMerger reference;
    reference.addPrevalidated(*namedProfile(run_a), "a0");
    reference.addPrevalidated(*namedProfile(run_b), "b0");
    const std::unique_ptr<ProfileDb> manual = reference.finish();
    EXPECT_EQ(federated->cct().nodeCount(), manual->cct().nodeCount());

    const auto top = manager.federatedTopKernels(
        {"a", "b"}, 16, {}, prof::metric_names::kGpuTime, &error);
    ASSERT_TRUE(top.has_value()) << error;
    const std::map<std::string, double> want =
        byNameTotals({run_a, run_b});
    ASSERT_EQ(top->size(), want.size())
        << "recycled ids must not alias distinct kernel names";
    for (const service::KernelAggregate &agg : *top)
        EXPECT_DOUBLE_EQ(agg.total, want.at(agg.name)) << agg.name;
}

TEST(FederatedQuery, DiffMatchesManualPairwiseMerge)
{
    WarehouseManager manager(volatileOptions());
    std::string error;
    CorpusHandle jax = manager.create("jax", &error);
    ASSERT_NE(jax, nullptr) << error;
    CorpusHandle pt = manager.create("pytorch", &error);
    ASSERT_NE(pt, nullptr) << error;

    const Metadata jax_meta{{"framework", "jax"}, {"platform", "tpu"}};
    const Metadata pt_meta{{"framework", "pytorch"},
                           {"platform", "cuda"}};
    std::vector<std::unique_ptr<ProfileDb>> jax_profiles;
    std::vector<std::unique_ptr<ProfileDb>> pt_profiles;
    for (int salt = 0; salt < 3; ++salt) {
        jax_profiles.push_back(makeProfile(salt, jax_meta));
        pt_profiles.push_back(makeProfile(salt + 10, pt_meta));
        ingestNow(jax, "j" + std::to_string(salt),
                  makeProfile(salt, jax_meta));
        ingestNow(pt, "p" + std::to_string(salt),
                  makeProfile(salt + 10, pt_meta));
    }

    const auto federated =
        manager.federatedDiff({"jax"}, {"pytorch"}, {}, &error);
    ASSERT_TRUE(federated.has_value()) << error;

    const auto mergeAll =
        [](const std::vector<std::unique_ptr<ProfileDb>> &profiles) {
            service::CctMerger merger;
            for (std::size_t i = 0; i < profiles.size(); ++i)
                merger.addPrevalidated(*profiles[i],
                                       "r" + std::to_string(i));
            return merger.finish();
        };
    const std::unique_ptr<ProfileDb> manual_a = mergeAll(jax_profiles);
    const std::unique_ptr<ProfileDb> manual_b = mergeAll(pt_profiles);
    const analysis::ProfileComparison manual =
        analysis::compareProfiles(*manual_a, *manual_b);

    EXPECT_DOUBLE_EQ(federated->gpu_time_a, manual.gpu_time_a);
    EXPECT_DOUBLE_EQ(federated->gpu_time_b, manual.gpu_time_b);
    EXPECT_EQ(federated->kernel_launches_a, manual.kernel_launches_a);
    EXPECT_EQ(federated->kernel_launches_b, manual.kernel_launches_b);
    ASSERT_EQ(federated->kernels.size(), manual.kernels.size());
    for (std::size_t i = 0; i < manual.kernels.size(); ++i) {
        EXPECT_EQ(federated->kernels[i].name, manual.kernels[i].name);
        EXPECT_DOUBLE_EQ(federated->kernels[i].value_a,
                         manual.kernels[i].value_a);
        EXPECT_DOUBLE_EQ(federated->kernels[i].value_b,
                         manual.kernels[i].value_b);
    }

    // Metadata follows merge semantics: the agreeing keys survive into
    // each side, so the federated flame graph and merged views carry
    // the framework/platform provenance.
    const std::shared_ptr<const ProfileDb> merged_a =
        manager.federatedMerged({"jax"}, {}, &error);
    ASSERT_NE(merged_a, nullptr) << error;
    EXPECT_EQ(merged_a->metadata().at("framework"), "jax");
    EXPECT_EQ(merged_a->metadata().at("platform"), "tpu");
}

TEST(FederatedQuery, ErrorsAndDeadlines)
{
    WarehouseManager manager(volatileOptions());
    std::string error;
    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    ingestNow(a, "a0", makeProfile(1));

    EXPECT_FALSE(
        manager.federatedTopKernels({}, 8, {}, "gpu_time", &error)
            .has_value());
    EXPECT_NE(error.find("no corpora"), std::string::npos) << error;
    EXPECT_FALSE(manager
                     .federatedTopKernels({"a", "ghost"}, 8, {},
                                          "gpu_time", &error)
                     .has_value())
        << "an unknown corpus fails the whole query";
    EXPECT_NE(error.find("ghost"), std::string::npos) << error;

    // An already-expired deadline abandons the gather between legs.
    common::ScopedDeadline expired(common::Deadline::after(0));
    ASSERT_TRUE(common::deadlineExpired());
    EXPECT_FALSE(
        manager.federatedTopKernels({"a"}, 8, {}, "gpu_time", &error)
            .has_value());
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
    EXPECT_EQ(manager.federatedMerged({"a"}, {}, &error), nullptr);
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
}

TEST(FederatedQuery, LegsOverlapOnTheExecutor)
{
    // The scatter must fan legs out on the pool, not walk corpora
    // serially: with every leg stalled by the same failpoint delay,
    // two legs on a two-thread pool finish in ~one delay, while the
    // old serial walk needed the sum.
    struct FailpointGuard {
        ~FailpointGuard() { failpoint::clearAll(); }
    } guard;
    common::Executor executor({.threads = 2});
    WarehouseManager::Options options = volatileOptions();
    options.executor = &executor;
    WarehouseManager manager(options);
    std::string error;
    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    CorpusHandle b = manager.create("b", &error);
    ASSERT_NE(b, nullptr) << error;
    ingestNow(a, "a0", makeProfile(1));
    ingestNow(b, "b0", makeProfile(2));

    constexpr std::uint64_t kDelayMs = 300;
    ASSERT_TRUE(failpoint::set("mgr.federated.leg",
                               "delay(" + std::to_string(kDelayMs) +
                                   ")"));
    const auto start = std::chrono::steady_clock::now();
    const auto top =
        manager.federatedTopKernels({"a", "b"}, 8, {},
                                    prof::metric_names::kGpuTime,
                                    &error);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(top.has_value()) << error;
    EXPECT_FALSE(top->empty());
    EXPECT_EQ(failpoint::fireCount("mgr.federated.leg"), 2u)
        << "both legs ran through the failpoint";
    EXPECT_GE(elapsed.count(), static_cast<long>(kDelayMs));
    EXPECT_LT(elapsed.count(), static_cast<long>(2 * kDelayMs))
        << "legs serialized: " << elapsed.count() << "ms for two "
        << kDelayMs << "ms legs";
}

TEST(FederatedQuery, StalledLegYieldsDeadlineWhileOthersComplete)
{
    // One stalled corpus must not stall the query past its deadline:
    // the caller gets the deadline error within a bounded grace (the
    // stalled leg's delay, not some unbounded wait), and the legs
    // that did run have warmed their view caches for the retry.
    struct FailpointGuard {
        ~FailpointGuard() { failpoint::clearAll(); }
    } guard;
    common::Executor executor({.threads = 2});
    WarehouseManager::Options options = volatileOptions();
    options.executor = &executor;
    WarehouseManager manager(options);
    std::string error;
    CorpusHandle a = manager.create("a", &error);
    ASSERT_NE(a, nullptr) << error;
    CorpusHandle b = manager.create("b", &error);
    ASSERT_NE(b, nullptr) << error;
    ingestNow(a, "a0", makeProfile(1));
    ingestNow(b, "b0", makeProfile(2));

    // Exactly one leg (whichever evaluates the site first) stalls
    // well past the deadline; the other proceeds immediately.
    constexpr std::uint64_t kStallMs = 400;
    ASSERT_TRUE(failpoint::set("mgr.federated.leg",
                               "delay(" + std::to_string(kStallMs) +
                                   "):hit=1"));
    const auto start = std::chrono::steady_clock::now();
    {
        common::ScopedDeadline deadline(
            common::Deadline::afterMs(50));
        EXPECT_FALSE(manager
                         .federatedTopKernels(
                             {"a", "b"}, 8, {},
                             prof::metric_names::kGpuTime, &error)
                         .has_value());
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
    EXPECT_LT(elapsed.count(), static_cast<long>(3 * kStallMs))
        << "grace is bounded by the stalled leg, not an open wait";
    EXPECT_EQ(failpoint::fireCount("mgr.federated.leg"), 1u)
        << "exactly one leg stalled";

    // The legs that ran cached what they built: a deadline-free retry
    // serves at least one corpus from its warmed view.
    failpoint::clearAll();
    const auto retry =
        manager.federatedTopKernels({"a", "b"}, 8, {},
                                    prof::metric_names::kGpuTime,
                                    &error);
    ASSERT_TRUE(retry.has_value()) << error;
    const auto view_stats = [](const CorpusHandle &handle) {
        return handle->engine.corpusView().stats();
    };
    EXPECT_GE(view_stats(a).hits + view_stats(b).hits, 1u)
        << "no view survived the stalled federated call";
}

// ================================================================
// The close-vs-query drain race (satellite of the PR 4 shared-table
// work): queries run against refcounted handles while the registry
// closes, reopens, and drops the same corpora. The last reference
// regularly drops on a query thread mid-traffic, so ~ProfileStore's
// builder drain (profile_store.cc) is exercised for real. Run under
// TSan in CI (crash-torture-asan job's warehouse filter).
// ================================================================

TEST(ManagerDrainRace, CloseAndDropRaceColdRebuilds)
{
    WarehouseManager manager(volatileOptions());
    constexpr int kRounds = 60;
    for (int round = 0; round < kRounds; ++round) {
        const std::string id = "race";
        std::string error;
        CorpusHandle handle = manager.create(id, &error);
        ASSERT_NE(handle, nullptr) << error;
        for (int i = 0; i < 4; ++i) {
            handle->store.ingest("run-" + std::to_string(i),
                                 makeProfile(round + i));
        }
        handle->store.waitIdle();

        // Two query threads force cold CorpusView rebuilds (each
        // filter key is distinct, so nothing is cached) while the
        // registry closes the corpus under them. Whoever drops the
        // last handle runs ~Corpus — often a query thread that was
        // just inside the view builder.
        std::vector<std::thread> queries;
        for (int t = 0; t < 2; ++t) {
            queries.emplace_back([h = handle, t]() mutable {
                service::QueryFilter filter;
                filter.metadata["nonce"] =
                    std::to_string(t); // miss: matches no run
                const auto top = h->engine.topKernels(4);
                EXPECT_FALSE(top.empty());
                const auto none = h->engine.topKernels(4, filter);
                EXPECT_TRUE(none.empty());
                h.reset();
            });
        }
        handle.reset();
        if (round % 2 == 0)
            EXPECT_TRUE(manager.close(id));
        else
            EXPECT_TRUE(manager.drop(id));
        for (std::thread &query : queries)
            query.join();
        // drop() already waited; after close(), the next create()
        // waits out the retired incarnation internally.
    }
}

// ================================================================
// Wire integration: corpus routing, lifecycle + federated opcodes,
// the default corpus, per-corpus stats labels.
// ================================================================

/** Manager + server with test-friendly bounds. */
struct WarehouseHarness {
    WarehouseManager manager;
    WireServer server;

    explicit WarehouseHarness(
        WarehouseManager::Options manager_options = volatileOptions(),
        ServerOptions options = {})
        : manager(std::move(manager_options)), server(manager, options)
    {
    }

    bool
    start()
    {
        std::string error;
        const bool ok = server.start(&error);
        EXPECT_TRUE(ok) << error;
        return ok;
    }

    WireClient
    client()
    {
        WireClient c;
        std::string error;
        EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &error))
            << error;
        return c;
    }
};

/** Parse a kStats key=value payload. */
std::map<std::string, std::string>
parseStats(const std::string &payload)
{
    std::map<std::string, std::string> out;
    std::size_t start = 0;
    while (start < payload.size()) {
        std::size_t end = payload.find('\n', start);
        if (end == std::string::npos)
            end = payload.size();
        const std::string line = payload.substr(start, end - start);
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            out[line.substr(0, eq)] = line.substr(eq + 1);
        start = end + 1;
    }
    return out;
}

TEST(WireWarehouse, CorpusAddressedRoundTrip)
{
    WarehouseHarness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();

    ASSERT_EQ(client.corpusCreate("jax").status, Status::kOk);
    ASSERT_EQ(client.corpusCreate("pytorch").status, Status::kOk);

    client.setCorpus("jax");
    for (int salt = 0; salt < 2; ++salt) {
        const WireClient::Result ack =
            client.ingest("j" + std::to_string(salt), profileText(salt),
                          /*durable=*/true);
        ASSERT_TRUE(ack.ok) << ack.error;
        ASSERT_EQ(ack.status, Status::kOk) << ack.payload;
    }
    client.setCorpus("pytorch");
    const WireClient::Result ack =
        client.ingest("p0", profileText(7), /*durable=*/true);
    ASSERT_EQ(ack.status, Status::kOk) << ack.payload;

    // Queries are scoped: each corpus sees only its own runs.
    std::vector<server::KernelRow> rows;
    ASSERT_EQ(client.topKernels(16, "", {}, &rows).status, Status::kOk);
    const QueryEngine &pt_engine =
        h.manager.open("pytorch")->engine;
    EXPECT_EQ(rows.size(), pt_engine.topKernels(16).size());
    client.setCorpus("jax");
    rows.clear();
    ASSERT_EQ(client.topKernels(16, "", {}, &rows).status, Status::kOk);
    EXPECT_EQ(rows.size(), h.manager.open("jax")->engine.topKernels(16).size());
    EXPECT_EQ(client.diff("j0", "j1").status, Status::kOk);
    EXPECT_EQ(client.erase("j1").status, Status::kOk);
    EXPECT_EQ(client.erase("p0").status, Status::kNotFound)
        << "p0 lives in the pytorch corpus";

    // Stats carry per-corpus labels and manager counters.
    const WireClient::Result stats = client.stats();
    ASSERT_EQ(stats.status, Status::kOk);
    const std::map<std::string, std::string> parsed =
        parseStats(stats.payload);
    EXPECT_EQ(parsed.at("store.runs"), "1") << "scoped to jax";
    EXPECT_EQ(parsed.at("corpus.jax.open"), "1");
    EXPECT_EQ(parsed.at("corpus.jax.runs"), "1");
    EXPECT_EQ(parsed.at("corpus.pytorch.runs"), "1");
    EXPECT_EQ(parsed.at("manager.open_corpora"), "2");
    ASSERT_TRUE(parsed.count("manager.federated"));

    // Lifecycle over the wire.
    std::vector<server::CorpusInfo> corpora;
    ASSERT_EQ(client.corpusList(&corpora).status, Status::kOk);
    ASSERT_EQ(corpora.size(), 2u);
    EXPECT_EQ(corpora[0].id, "jax");
    EXPECT_TRUE(corpora[0].open);
    EXPECT_EQ(corpora[0].runs, 1u);
    EXPECT_EQ(client.corpusClose("pytorch").status, Status::kOk);
    EXPECT_FALSE(h.manager.isOpen("pytorch"));
    EXPECT_EQ(client.corpusDrop("jax").status, Status::kOk);
    EXPECT_EQ(client.corpusOpen("jax").status, Status::kNotFound);
}

TEST(WireWarehouse, DefaultCorpusServesUnscopedRequests)
{
    WarehouseHarness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();

    // An unscoped client lands in the default corpus, which springs
    // into being on first touch.
    ASSERT_EQ(client.ingest("r0", profileText(1), true).status,
              Status::kOk);
    EXPECT_TRUE(h.manager.isOpen(server::kDefaultCorpus));
    EXPECT_EQ(h.manager.open(server::kDefaultCorpus)->store.size(), 1u);
}

TEST(WireWarehouse, UnscopedReadsDoNotCreateDefaultCorpus)
{
    const std::string root = freshRoot("unscoped_reads");
    WarehouseHarness h(durableOptions(root));
    ASSERT_TRUE(h.start());
    WireClient client = h.client();

    // Only a write brings the default corpus into being: reads of a
    // missing one are NOT_FOUND and leave nothing on disk.
    std::vector<server::KernelRow> rows;
    EXPECT_EQ(client.topKernels(8, "", {}, &rows).status,
              Status::kNotFound);
    EXPECT_EQ(client.stats().status, Status::kNotFound);
    EXPECT_TRUE(h.manager.corpusIds().empty());
    EXPECT_FALSE(pathExists(root + "/" + server::kDefaultCorpus));
}

TEST(WireWarehouse, FederatedOpcodesRoundTrip)
{
    WarehouseHarness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    ASSERT_EQ(client.corpusCreate("jax").status, Status::kOk);
    ASSERT_EQ(client.corpusCreate("pytorch").status, Status::kOk);
    client.setCorpus("jax");
    ASSERT_EQ(client.ingest("j0", profileText(1), true).status,
              Status::kOk);
    client.setCorpus("pytorch");
    ASSERT_EQ(client.ingest("p0", profileText(2), true).status,
              Status::kOk);

    std::vector<server::KernelRow> rows;
    const WireClient::Result top = client.federatedTopKernels(
        {"jax", "pytorch"}, 16, "", {}, &rows);
    ASSERT_TRUE(top.ok) << top.error;
    ASSERT_EQ(top.status, Status::kOk) << top.payload;
    const auto direct = h.manager.federatedTopKernels(
        {"jax", "pytorch"}, 16);
    ASSERT_TRUE(direct.has_value());
    ASSERT_EQ(rows.size(), direct->size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, (*direct)[i].name);
        EXPECT_DOUBLE_EQ(rows[i].total, (*direct)[i].total);
    }

    const WireClient::Result merged =
        client.federatedMerged({"jax", "pytorch"});
    ASSERT_EQ(merged.status, Status::kOk);
    const std::unique_ptr<ProfileDb> db =
        ProfileDb::deserialize(merged.payload);
    ASSERT_NE(db, nullptr);
    EXPECT_GT(db->cct().nodeCount(), 1u);

    const WireClient::Result diff =
        client.federatedDiff({"jax"}, {"pytorch"});
    ASSERT_EQ(diff.status, Status::kOk) << diff.payload;
    EXPECT_NE(diff.payload.find("jax"), std::string::npos);
    EXPECT_NE(diff.payload.find("pytorch"), std::string::npos);

    const WireClient::Result flame = client.federatedFlame({"jax"});
    ASSERT_EQ(flame.status, Status::kOk);
    EXPECT_NE(flame.payload.find("<html"), std::string::npos);

    EXPECT_EQ(client.federatedMerged({"jax", "ghost"}).status,
              Status::kNotFound);
}

TEST(WireWarehouse, LifecycleErrorMapping)
{
    WarehouseHarness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    ASSERT_EQ(client.corpusCreate("a").status, Status::kOk);
    EXPECT_EQ(client.corpusCreate("a").status, Status::kError);
    EXPECT_EQ(client.corpusCreate("bad/id").status, Status::kError);
    EXPECT_EQ(client.corpusOpen("ghost").status, Status::kNotFound);
    EXPECT_EQ(client.corpusClose("ghost").status, Status::kNotFound);
    EXPECT_EQ(client.corpusDrop("ghost").status, Status::kNotFound);
    // Addressing a corpus that does not exist (and is not the default)
    // is NOT_FOUND, not an implicit create.
    client.setCorpus("ghost");
    EXPECT_EQ(client.ingest("r", profileText(1)).status,
              Status::kNotFound);
}

// ================================================================
// Multi-corpus crash torture: SIGKILL a serving process while two
// corpora ingest concurrently over the wire, restart a manager on the
// same root, and hold every corpus to the durable-ack contract
// independently — plus federated equivalence over the recovered set.
// ================================================================

ProfileStore::Options
tortureStoreOptions()
{
    ProfileStore::Options options;
    options.workers = 1;
    options.log_segment_bytes = 4000; // rollovers mid-stream
    options.log_compact_min_dead_bytes = 1ull << 40;
    options.log_checkpoint_bytes = 0;
    options.log_reattach_min_backoff_ms = 60'000;
    options.log_reattach_max_backoff_ms = 60'000;
    return options;
}

WarehouseManager::Options
tortureManagerOptions(const std::string &root)
{
    WarehouseManager::Options options;
    options.root_dir = root;
    options.store = tortureStoreOptions();
    return options;
}

/**
 * The child body: a multi-corpus server announced through a port
 * file, serving until the parent SIGKILLs it. Skips outside the
 * harness so a plain ctest run ignores it.
 */
TEST(WarehouseCrashTortureChild, Serve)
{
    const char *root = std::getenv("DC_WAREHOUSE_TORTURE_ROOT");
    const char *port_file =
        std::getenv("DC_WAREHOUSE_TORTURE_PORT_FILE");
    if (root == nullptr || port_file == nullptr) {
        GTEST_SKIP()
            << "warehouse torture child only runs under the harness";
    }
    WarehouseManager manager(tortureManagerOptions(root));
    WireServer server(manager);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_TRUE(atomicWriteFile(
        port_file, std::to_string(server.port()) + "\n", &error))
        << error;
    for (;;)
        ::usleep(20'000);
}

struct ChildServer {
    pid_t pid = -1;
    std::uint16_t port = 0;
};

ChildServer
spawnWarehouseChild(const std::string &root,
                    const std::string &port_file,
                    const std::string &self_exe)
{
    ChildServer child;
    removeFile(port_file);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("DC_WAREHOUSE_TORTURE_ROOT", root.c_str(), 1);
        ::setenv("DC_WAREHOUSE_TORTURE_PORT_FILE", port_file.c_str(),
                 1);
        const char *argv[] = {
            self_exe.c_str(),
            "--gtest_filter=WarehouseCrashTortureChild.Serve",
            "--gtest_brief=1", nullptr};
        ::execv(self_exe.c_str(), const_cast<char **>(argv));
        ::_exit(127);
    }
    child.pid = pid;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::string contents;
    while (std::chrono::steady_clock::now() < deadline) {
        if (readFile(port_file, &contents) && !contents.empty() &&
            contents.back() == '\n') {
            child.port = static_cast<std::uint16_t>(
                std::atoi(contents.c_str()));
            break;
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            child.pid = -1; // died before announcing (exec failure)
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return child;
}

void
killAndReap(pid_t pid)
{
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/**
 * One torture round: two corpora ingest durably in interleave over
 * two connections, SIGKILL after @p kill_after acks per corpus with
 * one more request in flight on each, then recover a manager on the
 * same root and require — per corpus — (a) every acked run
 * recovered, (b) nothing beyond acked + that corpus's in-flight run,
 * (c) exact query equivalence against a reference rebuilt from the
 * recovered id set, and (d) federated equivalence across both.
 */
void
warehouseTortureRound(int kill_after, const std::string &self_exe)
{
    SCOPED_TRACE("kill after " + std::to_string(kill_after) +
                 " acks per corpus");
    const std::string root = freshRoot("warehouse_crash_torture");
    // freshRoot only clears one level; wipe corpus dirs from previous
    // rounds via a throwaway manager drop.
    {
        WarehouseManager sweeper(tortureManagerOptions(root));
        for (const std::string &id : sweeper.corpusIds())
            sweeper.drop(id);
    }
    const std::string port_file =
        ::testing::TempDir() + "/warehouse_crash_torture.port";
    const ChildServer child =
        spawnWarehouseChild(root, port_file, self_exe);
    ASSERT_GT(child.pid, 0) << "child died before announcing its port";
    ASSERT_NE(child.port, 0);

    const std::vector<std::string> corpora{"jax", "pytorch"};
    std::map<std::string, WireClient> clients;
    std::string error;
    for (const std::string &corpus : corpora) {
        WireClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", child.port, &error))
            << error;
        ASSERT_EQ(client.corpusCreate(corpus).status, Status::kOk);
        client.setCorpus(corpus);
        clients[corpus] = std::move(client);
    }

    // Interleaved durable acks: corpus c's salt space is offset so the
    // two corpora hold different profiles for the same index.
    const auto salt = [&](const std::string &corpus, int index) {
        return index + (corpus == "jax" ? 0 : 100);
    };
    std::map<std::string, std::map<std::string, int>> acked;
    for (int index = 0; index < kill_after; ++index) {
        for (const std::string &corpus : corpora) {
            const std::string id =
                corpus + "-run-" + std::to_string(index);
            const int s = salt(corpus, index);
            const WireClient::Result ack = clients[corpus].ingest(
                id, profileText(s), /*durable=*/true);
            ASSERT_TRUE(ack.ok) << ack.error;
            ASSERT_EQ(ack.status, Status::kOk) << ack.payload;
            acked[corpus][id] = s;
        }
    }
    // One durable ingest *in flight* per corpus — pipelined, never
    // awaited — then the kill tears both streams at once.
    std::map<std::string, std::string> inflight;
    for (const std::string &corpus : corpora) {
        const std::string id =
            corpus + "-run-" + std::to_string(kill_after);
        inflight[corpus] = id;
        ASSERT_TRUE(clients[corpus].send(
            Opcode::kIngest, server::kFlagDurable,
            server::encodeIngestRequest(
                id, profileText(salt(corpus, kill_after)))));
    }
    killAndReap(child.pid);
    clients.clear();

    // Recover on the same root, one corpus at a time.
    WarehouseManager recovered(tortureManagerOptions(root));
    std::map<std::string, std::unique_ptr<ProfileStore>> references;
    for (const std::string &corpus : corpora) {
        SCOPED_TRACE("corpus " + corpus);
        CorpusHandle handle = recovered.open(corpus, &error);
        ASSERT_NE(handle, nullptr) << error;
        ASSERT_TRUE(handle->store.logHealthy())
            << handle->store.logError();
        std::set<std::string> got;
        for (const std::string &id : handle->store.runIds())
            got.insert(id);
        for (const auto &[id, s] : acked[corpus]) {
            EXPECT_EQ(got.count(id), 1u)
                << "acked durable ingest " << id << " lost by the crash";
        }
        for (const std::string &id : got) {
            EXPECT_TRUE(acked[corpus].count(id) == 1 ||
                        id == inflight[corpus])
                << "recovered unexpected run " << id;
        }
        // Exact per-corpus query equivalence against a reference
        // rebuilt from what recovery reports.
        std::map<std::string, int> model = acked[corpus];
        if (got.count(inflight[corpus]) == 1)
            model[inflight[corpus]] = salt(corpus, kill_after);
        auto reference =
            std::make_unique<ProfileStore>(memStoreOptions());
        for (const auto &[id, s] : model)
            reference->ingest(id, makeProfile(s));
        reference->waitIdle();
        QueryEngine rq(*reference);
        const auto rtop = handle->engine.topKernels(32);
        const auto mtop = rq.topKernels(32);
        ASSERT_EQ(rtop.size(), mtop.size());
        for (std::size_t i = 0; i < rtop.size(); ++i) {
            EXPECT_EQ(rtop[i].name, mtop[i].name);
            EXPECT_DOUBLE_EQ(rtop[i].total, mtop[i].total);
        }
        references[corpus] = std::move(reference);
    }

    // Federated equivalence across the recovered corpora: the
    // scatter-gather must agree with a by-name gather over the two
    // reference engines.
    const auto federated = recovered.federatedTopKernels(corpora, 64);
    ASSERT_TRUE(federated.has_value());
    std::map<std::string, double> want;
    for (const std::string &corpus : corpora) {
        QueryEngine rq(*references[corpus]);
        for (const service::KernelAggregate &agg : rq.topKernels(64))
            want[agg.name] += agg.total;
    }
    ASSERT_EQ(federated->size(), want.size());
    for (const service::KernelAggregate &agg : *federated)
        EXPECT_DOUBLE_EQ(agg.total, want.at(agg.name)) << agg.name;
}

TEST(WarehouseCrashTorture, KillMidMultiCorpusIngestStream)
{
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(n, 0);
    self[n] = '\0';
    const std::string self_exe(self);
    for (const int kill_after : {0, 3}) {
        warehouseTortureRound(kill_after, self_exe);
        if (::testing::Test::HasFatalFailure())
            break;
    }
}

} // namespace
} // namespace dc
