/**
 * @file
 * Fault-injection tests: the failpoint subsystem itself (spec grammar,
 * trigger policies, fire accounting), the fs/log/store edges it is
 * wired through, and the degraded-mode regressions — ENOSPC on the
 * atomic writer, failed appends and group-commit fsyncs, checkpoint
 * failures, orphan temp sweeping, and background re-attach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "common/executor.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/rng.h"
#include "profiler/profile_db.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_log.h"

namespace dc {
namespace {

using dlmon::Frame;
using prof::Cct;
using prof::CctNode;
using prof::MetricRegistry;
using prof::ProfileDb;
using service::ProfileStore;
using service::QueryEngine;

/** Disarms every failpoint when a test exits, pass or fail. */
struct FailpointGuard {
    ~FailpointGuard() { failpoint::clearAll(); }
};

std::unique_ptr<ProfileDb>
makeProfile(int salt)
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    Rng rng(2000 + static_cast<std::uint64_t>(salt));
    for (int i = 0; i < 3; ++i) {
        CctNode *leaf = cct->insert(
            {Frame::python("train.py", "main", 10),
             Frame::kernel("kernel_" + std::to_string((salt + i) % 4))});
        cct->addMetric(leaf, gpu, rng.uniform(10.0, 1000.0));
    }
    return std::make_unique<ProfileDb>(std::move(cct),
                                       std::move(metrics),
                                       std::map<std::string, std::string>{});
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::vector<std::string> entries;
    if (listDir(dir, &entries)) {
        for (const std::string &entry : entries)
            removeFile(dir + "/" + entry);
    }
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

// ------------------------------------------------------- the subsystem

TEST(Failpoint, SpecGrammarAcceptsActionsAndRejectsGarbage)
{
    FailpointGuard guard;
    std::string error;
    EXPECT_TRUE(failpoint::set("t", "error", &error));
    EXPECT_TRUE(failpoint::set("t", "error(ENOSPC)", &error));
    EXPECT_TRUE(failpoint::set("t", "enospc", &error));
    EXPECT_TRUE(failpoint::set("t", "torn(12)", &error));
    EXPECT_TRUE(failpoint::set("t", "torn-kill(3)", &error));
    EXPECT_TRUE(failpoint::set("t", "delay(5)", &error));
    EXPECT_TRUE(failpoint::set("t", "kill", &error));
    EXPECT_TRUE(failpoint::set("t", "error:hit=3", &error));
    EXPECT_TRUE(failpoint::set("t", "error:every=2", &error));
    EXPECT_TRUE(failpoint::set("t", "error:oneshot", &error));

    EXPECT_FALSE(failpoint::set("t", "explode", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(failpoint::set("t", "error(EWHAT)", &error));
    EXPECT_FALSE(failpoint::set("t", "torn(", &error));
    EXPECT_FALSE(failpoint::set("t", "torn(x)", &error));
    EXPECT_FALSE(failpoint::set("t", "error:hit=0", &error));
    EXPECT_FALSE(failpoint::set("t", "error:sometimes", &error));

    EXPECT_TRUE(failpoint::configure(
        "a=error(EIO); b = torn(4):oneshot ;", &error));
    EXPECT_FALSE(failpoint::configure("missing-equals", &error));
}

TEST(Failpoint, TriggerPoliciesSelectTheRightEvaluations)
{
    FailpointGuard guard;
    failpoint::Site site{"test.trigger"};
    ASSERT_TRUE(failpoint::set("test.trigger", "error:hit=3"));
    EXPECT_FALSE(site.eval().fired());
    EXPECT_FALSE(site.eval().fired());
    EXPECT_TRUE(site.eval().fired()); // exactly the 3rd
    EXPECT_FALSE(site.eval().fired());
    EXPECT_EQ(failpoint::fireCount("test.trigger"), 1u);

    ASSERT_TRUE(failpoint::set("test.trigger2", "error:every=2"));
    failpoint::Site site2{"test.trigger2"};
    int fired = 0;
    for (int i = 0; i < 6; ++i)
        fired += site2.eval().fired() ? 1 : 0;
    EXPECT_EQ(fired, 3);

    ASSERT_TRUE(failpoint::set("test.trigger3", "enospc:oneshot"));
    failpoint::Site site3{"test.trigger3"};
    const failpoint::Eval first = site3.eval();
    EXPECT_TRUE(first.fired());
    EXPECT_EQ(first.error_errno, ENOSPC);
    EXPECT_FALSE(site3.eval().fired());

    // clear() disarms but keeps the fire history; clearAll resets it.
    failpoint::clear("test.trigger");
    EXPECT_FALSE(site.eval().fired());
    EXPECT_EQ(failpoint::fireCount("test.trigger"), 1u);
}

TEST(Failpoint, RegisteredSitesEnumerateTheWiredEdges)
{
    // The crash-torture sweep iterates this list; the load-bearing
    // edges must all self-register.
    const std::vector<std::string> sites = failpoint::registeredSites();
    for (const char *expected :
         {"fs.atomic.create", "fs.atomic.write", "fs.atomic.fsync",
          "fs.atomic.rename", "fs.atomic.dirsync", "wal.open",
          "wal.append.write", "wal.append.fsync",
          "wal.checkpoint.write", "wal.checkpoint.commit",
          "wal.checkpoint.truncate", "store.ingest.published",
          "store.ingest.appended", "store.ingest.synced",
          "store.erase.tombstoned", "store.checkpoint.cut"}) {
        EXPECT_TRUE(std::find(sites.begin(), sites.end(), expected) !=
                    sites.end())
            << "site not registered: " << expected;
    }
}

// ------------------------------------------------- fs.atomic.* edges

TEST(Failpoint, AtomicWriteEnospcFailsCleanlyAndRecovers)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_atomic_enospc");
    const std::string path = dir + "/profile.dcp";
    auto profile = makeProfile(1);

    ASSERT_TRUE(failpoint::set("fs.atomic.write", "enospc"));
    std::string error;
    EXPECT_EQ(profile->save(path, &error), 0u);
    EXPECT_NE(error.find("cannot write"), std::string::npos);
    // No destination, no temp left behind.
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    EXPECT_TRUE(entries.empty());
    EXPECT_GE(failpoint::fireCount("fs.atomic.write"), 1u);

    // The fault clears: the same save succeeds.
    failpoint::clear("fs.atomic.write");
    error.clear();
    EXPECT_GT(profile->save(path, &error), 0u);
    EXPECT_TRUE(error.empty());
}

TEST(Failpoint, AtomicWriteTornAndFsyncAndRenameEdges)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_atomic_edges");
    const std::string path = dir + "/file.bin";
    std::string error;

    ASSERT_TRUE(failpoint::set("fs.atomic.create", "error(EACCES)"));
    EXPECT_FALSE(atomicWriteFile(path, "payload", &error));
    failpoint::clearAll();

    ASSERT_TRUE(failpoint::set("fs.atomic.fsync", "error"));
    EXPECT_FALSE(atomicWriteFile(path, "payload", &error));
    EXPECT_NE(error.find("cannot fsync"), std::string::npos);
    failpoint::clearAll();

    // An injected rename failure models a crash between temp write and
    // rename: the orphan temp stays for open()-time sweeps to collect.
    ASSERT_TRUE(failpoint::set("fs.atomic.rename", "error"));
    EXPECT_FALSE(atomicWriteFile(path, "payload", &error));
    failpoint::clearAll();
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_NE(entries[0].find(".tmp."), std::string::npos);
    EXPECT_FALSE(pathExists(path));
}

// ------------------------------ degraded log + re-attach (S1, S3)

TEST(Failpoint, AppendEnospcDegradesStoreAndReattachRestoresDurability)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_append_enospc");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        store.ingest("durable-0", makeProfile(0));
        store.waitIdle();
        EXPECT_TRUE(store.logHealthy());

        // Disk fills: the append fails, the run stays served from
        // memory, the store reports degraded — and nothing aborts.
        ASSERT_TRUE(failpoint::set("wal.append.write", "enospc"));
        store.ingest("memory-1", makeProfile(1));
        store.waitIdle();
        EXPECT_EQ(store.size(), 2u);
        EXPECT_NE(store.get("memory-1"), nullptr);
        EXPECT_FALSE(store.logHealthy());
        EXPECT_NE(store.logError().find("No space"),
                  std::string::npos);
        const service::StoreStats degraded = store.stats();
        // >= 1: the background supervisor may have retried (and
        // failed again) before the failpoint cleared.
        EXPECT_GE(degraded.log_append_failures, 1u);
        EXPECT_EQ(degraded.log_unlogged_runs, 1u);
        EXPECT_EQ(degraded.log_degraded, 1u);

        // Queries are unaffected while degraded.
        QueryEngine engine(store);
        EXPECT_FALSE(engine.topKernels(10).empty());

        // The fault clears; re-attach re-appends the unlogged run and
        // durable mode resumes (S1: a degraded store must not stay
        // degraded once the disk recovers).
        failpoint::clear("wal.append.write");
        EXPECT_TRUE(store.tryReattachNow());
        EXPECT_TRUE(store.logHealthy());
        EXPECT_EQ(store.stats().log_unlogged_runs, 0u);
        EXPECT_EQ(store.stats().log_reattached, 1u);
    }
    // The re-appended run is really on disk.
    ProfileStore recovered(options);
    EXPECT_EQ(recovered.runIds(), (std::vector<std::string>{
                                      "durable-0", "memory-1"}));
}

TEST(Failpoint, ConcurrentReattachReappendsEachRunOnce)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_concurrent_reattach");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    // Park the supervisor after its failed attempts so the two callers
    // below are what races.
    options.log_reattach_min_backoff_ms = 60'000;
    options.log_reattach_max_backoff_ms = 60'000;
    ProfileStore store(options);
    ASSERT_TRUE(failpoint::set("wal.append.write", "enospc"));
    for (int i = 0; i < 3; ++i)
        store.ingest("unlogged-" + std::to_string(i), makeProfile(i));
    store.waitIdle();
    const service::StoreStats degraded = store.stats();
    ASSERT_EQ(degraded.log_unlogged_runs, 3u);

    // Slow appends make the two attempts overlap: each must not copy
    // the same unlogged set and re-append it.
    ASSERT_TRUE(failpoint::set("wal.append.write", "delay(50)"));
    std::atomic<int> healthy{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < 2; ++i) {
        callers.emplace_back([&] {
            if (store.tryReattachNow())
                healthy.fetch_add(1);
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    const service::StoreStats after = store.stats();
    EXPECT_EQ(healthy.load(), 2);
    EXPECT_EQ(after.log_reattached, 1u);
    EXPECT_EQ(after.log_appends,
              degraded.log_appends + degraded.log_unlogged_runs);
    EXPECT_EQ(after.log_unlogged_runs, 0u);
}

TEST(Failpoint, GroupCommitFsyncFailureDegradesAndRecovers)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_fsync_fail");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        ASSERT_TRUE(failpoint::set("wal.append.fsync", "error(EIO)"));
        store.ingest("maybe-lost", makeProfile(3));
        store.waitIdle();
        // The write landed but its durability is unknown: degraded,
        // run marked unlogged, still served.
        EXPECT_FALSE(store.logHealthy());
        EXPECT_EQ(store.stats().log_unlogged_runs, 1u);
        EXPECT_NE(store.get("maybe-lost"), nullptr);

        failpoint::clear("wal.append.fsync");
        EXPECT_TRUE(store.tryReattachNow());
        EXPECT_TRUE(store.logHealthy());
    }
    // Replay folds the re-append over any remnant of the failed one.
    ProfileStore recovered(options);
    EXPECT_EQ(recovered.recovery().runs, 1u);
    EXPECT_NE(recovered.get("maybe-lost"), nullptr);
}

TEST(Failpoint, BackgroundReattachRecoversWithoutManualPoke)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_auto_reattach");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_reattach_min_backoff_ms = 5;
    options.log_reattach_max_backoff_ms = 20;
    ProfileStore store(options);
    ASSERT_TRUE(failpoint::set("wal.append.write", "enospc"));
    store.ingest("run-0", makeProfile(0));
    store.waitIdle();
    EXPECT_FALSE(store.logHealthy());
    failpoint::clear("wal.append.write");
    // The supervisor retries on its own (capped backoff); give it a
    // bounded window rather than poking tryReattachNow().
    for (int i = 0; i < 400 && !store.logHealthy(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(store.logHealthy());
    EXPECT_GE(store.stats().log_reattached, 1u);
}

TEST(Failpoint, EraseTombstoneFailureKeepsRunAndCorpusConsistent)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_erase_fail");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        store.ingest("victim", makeProfile(2));
        store.waitIdle();
        ASSERT_TRUE(failpoint::set("wal.append.write", "enospc"));
        // The tombstone cannot be made durable: the erase fails and
        // the run stays served — corpus and log never disagree.
        EXPECT_FALSE(store.erase("victim"));
        EXPECT_NE(store.get("victim"), nullptr);
        EXPECT_FALSE(store.logHealthy());
        failpoint::clear("wal.append.write");
        EXPECT_TRUE(store.tryReattachNow());
    }
    ProfileStore recovered(options);
    EXPECT_NE(recovered.get("victim"), nullptr);
}

TEST(Failpoint, CheckpointEnospcLeavesHistoryAuthoritative)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_ckpt_enospc");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_checkpoint_bytes = 0;
    {
        ProfileStore store(options);
        for (int i = 0; i < 4; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();

        ASSERT_TRUE(failpoint::set("wal.checkpoint.write", "enospc"));
        std::string error;
        EXPECT_FALSE(store.checkpoint(&error));
        EXPECT_FALSE(error.empty());
        EXPECT_FALSE(store.logHealthy());
        // The old segments were not touched; queries are unaffected.
        ASSERT_NE(store.log(), nullptr);
        EXPECT_EQ(store.log()->checkpointIndex(), 0u);
        EXPECT_EQ(store.size(), 4u);

        // Fault clears: the next checkpoint succeeds and clears the
        // degraded state.
        failpoint::clear("wal.checkpoint.write");
        EXPECT_TRUE(store.checkpoint(&error));
        EXPECT_TRUE(store.logHealthy());
        EXPECT_GT(store.log()->checkpointIndex(), 0u);
    }
    ProfileStore recovered(options);
    EXPECT_EQ(recovered.recovery().runs, 4u);
    EXPECT_EQ(recovered.recovery().checkpoint_records, 4u);
}

// ------------------------------------------- orphan temp sweep (S2)

TEST(Failpoint, OrphanedTempFilesAreSweptOnOpen)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_tmp_sweep");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        store.ingest("run-0", makeProfile(0));
        store.waitIdle();
    }
    // A crash mid-compaction/checkpoint leaves temp files that were
    // never renamed into place; plant both shapes.
    {
        std::ofstream a(dir + "/checkpoint-000004.dcck.tmp.99.0",
                        std::ios::binary);
        a << "half a checkpoint";
        std::ofstream b(dir + "/segment-000002.dclog.tmp.99.1",
                        std::ios::binary);
        b << "half a segment";
    }
    ProfileStore store(options);
    EXPECT_EQ(store.recovery().runs, 1u);
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    for (const std::string &entry : entries) {
        EXPECT_EQ(entry.find(".tmp."), std::string::npos)
            << "orphan temp not swept: " << entry;
    }
}

TEST(Failpoint, CrashedCheckpointCommitIsSweptAndReplaysConsistently)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_ckpt_crash_sweep");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_checkpoint_bytes = 0;
    std::vector<std::string> pre_ids;
    {
        ProfileStore store(options);
        for (int i = 0; i < 3; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        ASSERT_TRUE(store.checkpoint());
        store.ingest("run-3", makeProfile(3));
        store.waitIdle();
        // Crash between commit (rename) and the old files' deletion:
        // keep everything by injecting the rename as the *new* file
        // lands — here we simulate the overlap state directly by
        // taking a second checkpoint whose cleanup "crashes".
        ASSERT_TRUE(
            failpoint::set("wal.checkpoint.truncate", "error"));
        // The truncate site only marks the spot (kill point for the
        // torture harness); deletion proceeds in-process. Clear and
        // assert the overlap-replay invariant via a stale checkpoint
        // planted next to the current one instead.
        failpoint::clear("wal.checkpoint.truncate");
        pre_ids = store.runIds();
    }
    // Plant a stale older checkpoint: replay must prefer the newest
    // and open() must sweep the stale one away.
    {
        std::ofstream stale(dir + "/checkpoint-000001.dcck",
                            std::ios::binary);
        stale << service::WarehouseLog::frameRun("ghost", "gone");
    }
    ProfileStore store(options);
    EXPECT_EQ(store.runIds(), pre_ids);
    EXPECT_EQ(store.get("ghost"), nullptr);
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    int checkpoints = 0;
    for (const std::string &entry : entries)
        checkpoints += entry.find("checkpoint-") == 0 ? 1 : 0;
    EXPECT_EQ(checkpoints, 1);
}

// ------------------------------------- group commit under concurrency

TEST(Failpoint, GroupCommitBatchesFsyncsUnderConcurrentIngest)
{
    FailpointGuard guard;
    const std::string dir = freshDir("fp_group_commit");
    // Ingestion drains on the executor, so concurrent appends need a
    // pool at least as wide as the drainer cap — the host's core
    // count must not decide whether group commit gets exercised.
    common::Executor executor({.threads = 4});
    ProfileStore::Options options;
    options.workers = 4;
    options.executor = &executor;
    options.data_dir = dir;
    // Stretch each fsync so concurrent appends pile up behind the
    // leader — the batching is then deterministic, not a scheduling
    // accident.
    ASSERT_TRUE(failpoint::set("wal.append.fsync", "delay(20)"));
    ProfileStore store(options);
    for (int i = 0; i < 16; ++i)
        store.ingestText("run-" + std::to_string(i),
                         makeProfile(i)->serialize());
    store.waitIdle();
    const service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.log_appends, 16u);
    EXPECT_TRUE(store.logHealthy());
    // One fsync per append would be 16; group commit must do better.
    EXPECT_LT(stats.log_fsyncs, 16u);
    EXPECT_GE(stats.log_fsyncs, 1u);
}

} // namespace
} // namespace dc
