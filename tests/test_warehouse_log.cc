/**
 * @file
 * Durability tests: atomic profile saves, the warehouse run log, and
 * crash/restart recovery of the ProfileStore — including torn and
 * corrupt input end-to-end.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <thread>

#include "common/fs.h"
#include "common/rng.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_log.h"

namespace dc::service {
namespace {

using dlmon::Frame;
using prof::Cct;
using prof::CctNode;
using prof::MetricRegistry;
using prof::ProfileDb;

/** Deterministic synthetic profile (same recipe as test_service). */
std::unique_ptr<ProfileDb>
makeProfile(int salt, std::map<std::string, std::string> metadata = {})
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    const int count = metrics.intern(prof::metric_names::kKernelCount);

    Rng rng(1000 + static_cast<std::uint64_t>(salt));
    for (int i = 0; i < 3 + salt % 3; ++i) {
        const std::string kernel =
            "kernel_" + std::to_string((salt + i) % 5);
        CctNode *leaf = cct->insert(
            {Frame::python("train.py", "main", 10),
             Frame::op("aten::op" + std::to_string(i % 2)),
             Frame::kernel(kernel)});
        for (int s = 0; s < 2; ++s) {
            cct->addMetric(leaf, gpu, rng.uniform(10.0, 1000.0));
            cct->addMetric(leaf, count, 1.0);
        }
    }
    return std::make_unique<ProfileDb>(
        std::move(cct), std::move(metrics), std::move(metadata));
}

double
rootSum(const ProfileDb &db, const char *metric)
{
    const int id = db.metrics().find(metric);
    if (id < 0)
        return 0.0;
    const RunningStat *stat = db.cct().root().findMetric(id);
    return stat == nullptr ? 0.0 : stat->sum();
}

/** Fresh empty per-test directory under the gtest temp root. */
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

/** Path of the single log segment file in @p dir (asserts exactly 1). */
std::string
onlySegment(const std::string &dir)
{
    std::vector<std::string> entries;
    EXPECT_TRUE(listDir(dir, &entries));
    std::vector<std::string> segments;
    for (const std::string &entry : entries) {
        if (entry.find("segment-") == 0)
            segments.push_back(entry);
    }
    EXPECT_EQ(segments.size(), 1u);
    return dir + "/" + segments.front();
}

void
expectSameFlame(const gui::FlameNode &a, const gui::FlameNode &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_NEAR(a.value, b.value, 1e-6);
    ASSERT_EQ(a.children.size(), b.children.size());
    for (std::size_t i = 0; i < a.children.size(); ++i)
        expectSameFlame(a.children[i], b.children[i]);
}

// ---------------------------------------------------------- atomic save

TEST(AtomicSave, RoundTripsAndLeavesNoTempFiles)
{
    const std::string dir = freshDir("atomic_save");
    const std::string path = dir + "/profile.dcp";
    auto profile = makeProfile(3);
    std::string error;
    const std::uint64_t bytes = profile->save(path, &error);
    EXPECT_GT(bytes, 0u);
    EXPECT_TRUE(error.empty());

    auto loaded = ProfileDb::tryLoad(path, &error);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->cct().nodeCount(), profile->cct().nodeCount());

    // The temp file was renamed into place, not left behind.
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    EXPECT_EQ(entries, (std::vector<std::string>{"profile.dcp"}));

    // Overwrite is atomic too: the file is replaced, still one entry.
    EXPECT_GT(makeProfile(4)->save(path, &error), 0u);
    ASSERT_TRUE(listDir(dir, &entries));
    EXPECT_EQ(entries.size(), 1u);
}

TEST(AtomicSave, UnwritablePathReportsErrorInsteadOfPanicking)
{
    auto profile = makeProfile(1);
    std::string error;
    // Parent directory does not exist.
    EXPECT_EQ(profile->save("/nonexistent-dc-dir/run.dcp", &error), 0u);
    EXPECT_FALSE(error.empty());
    // Target is a directory: the rename step fails, temp is cleaned.
    const std::string dir = freshDir("save_onto_dir");
    error.clear();
    EXPECT_EQ(profile->save(dir, &error), 0u);
    EXPECT_FALSE(error.empty());
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    EXPECT_TRUE(entries.empty());
}

// ------------------------------------------------- torn input end-to-end

TEST(TornInput, TruncatedProfileFileFailsLoadAndIngestWithoutAborting)
{
    const std::string dir = freshDir("torn_profile");
    const std::string path = dir + "/torn.dcp";
    std::string text = makeProfile(2)->serialize();
    // Cut mid-record: a few bytes into the third node line, the
    // signature of a crash mid-write on a non-atomic writer.
    std::size_t cut = text.find("node\t");
    cut = text.find("node\t", cut + 1);
    cut = text.find("node\t", cut + 1);
    ASSERT_NE(cut, std::string::npos);
    text.resize(cut + 7);
    {
        std::ofstream out(path, std::ios::binary);
        out << text;
    }

    std::string error;
    EXPECT_EQ(ProfileDb::tryLoad(path, &error), nullptr);
    EXPECT_FALSE(error.empty());

    ProfileStore store;
    store.ingestFile("torn-run", path);
    store.ingestText("torn-text", text);
    store.waitIdle();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().failed, 2u);
    ASSERT_EQ(store.failures().size(), 2u);
    // The two rejections finish in either order on a multi-worker
    // drain; failures() promises the most recent, not submission order.
    std::set<std::string> failed;
    for (const auto &[run_id, why] : store.failures())
        failed.insert(run_id);
    EXPECT_EQ(failed, (std::set<std::string>{"torn-run", "torn-text"}));
}

// ------------------------------------------------------ warehouse log

TEST(WarehouseLog, AppendReplayRoundTripWithHostileRunIds)
{
    const std::string dir = freshDir("wlog_roundtrip");
    WarehouseLog log;
    ASSERT_TRUE(log.open({.dir = dir}));
    ASSERT_TRUE(log.replay([](WarehouseLog::Record) {}));
    // Run ids are length-prefixed, so framing metacharacters in them
    // cannot break the record framing.
    const std::string hostile_id = "run\twith\ttabs\nand newlines";
    ASSERT_TRUE(log.appendRun(hostile_id, "payload-a"));
    ASSERT_TRUE(log.appendRun("plain", "payload-b"));
    ASSERT_TRUE(log.appendErase("plain"));

    WarehouseLog reader;
    ASSERT_TRUE(reader.open({.dir = dir}));
    std::vector<WarehouseLog::Record> records;
    WarehouseLog::ReplayStats stats;
    ASSERT_TRUE(reader.replay(
        [&](WarehouseLog::Record record) {
            records.push_back(std::move(record));
        },
        &stats));
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].run_id, hostile_id);
    EXPECT_EQ(records[0].text, "payload-a");
    EXPECT_EQ(records[2].kind, WarehouseLog::Record::Kind::kErase);
    EXPECT_EQ(stats.run_records, 2u);
    EXPECT_EQ(stats.erase_records, 1u);
    EXPECT_EQ(stats.corrupt_records, 0u);
    EXPECT_FALSE(stats.torn_tail);
    // "plain" was tombstoned: only the hostile run is live.
    EXPECT_GT(reader.liveBytes(), 0u);
    EXPECT_GT(reader.deadBytes(), 0u);
}

TEST(WarehouseLog, GroupCommitOneFsyncCoversABatch)
{
    const std::string dir = freshDir("wlog_group_commit");
    WarehouseLog log;
    ASSERT_TRUE(log.open({.dir = dir}));
    ASSERT_TRUE(log.replay([](WarehouseLog::Record) {}));
    std::uint64_t last = 0;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(log.appendRunAsync("run-" + std::to_string(i),
                                       "payload", &last));
    }
    // Writes alone do not fsync; one sync() retires the whole batch.
    EXPECT_EQ(log.fsyncCount(), 0u);
    ASSERT_TRUE(log.sync(last));
    EXPECT_EQ(log.fsyncCount(), 1u);
    // Earlier sequences are already durable: no further fsync.
    ASSERT_TRUE(log.sync(1));
    EXPECT_EQ(log.fsyncCount(), 1u);

    WarehouseLog reader;
    ASSERT_TRUE(reader.open({.dir = dir}));
    std::size_t replayed = 0;
    ASSERT_TRUE(
        reader.replay([&](WarehouseLog::Record) { ++replayed; }));
    EXPECT_EQ(replayed, 8u);
}

TEST(WarehouseLog, CheckpointRetiresSegmentsAndReplaysFirst)
{
    const std::string dir = freshDir("wlog_checkpoint");
    WarehouseLog log;
    ASSERT_TRUE(log.open({.dir = dir}));
    ASSERT_TRUE(log.replay([](WarehouseLog::Record) {}));
    ASSERT_TRUE(log.appendRun("a", "one"));
    ASSERT_TRUE(log.appendRun("b", "two"));
    EXPECT_GT(log.tailBytes(), 0u);

    const std::uint64_t cut = log.beginCheckpointCut();
    ASSERT_GT(cut, 0u);
    const std::string frames = WarehouseLog::frameRun("a", "one") +
                               WarehouseLog::frameRun("b", "two");
    ASSERT_TRUE(log.commitCheckpoint(cut, frames));
    EXPECT_EQ(log.segmentCount(), 0u);
    EXPECT_EQ(log.checkpointIndex(), cut);
    EXPECT_EQ(log.tailBytes(), 0u);

    // Post-cut records land in segments past the cut and replay after
    // the checkpoint (last-wins), so the tombstone below sticks.
    ASSERT_TRUE(log.appendRun("c", "three"));
    ASSERT_TRUE(log.appendErase("a"));

    WarehouseLog reader;
    ASSERT_TRUE(reader.open({.dir = dir}));
    std::vector<WarehouseLog::Record> records;
    WarehouseLog::ReplayStats stats;
    ASSERT_TRUE(reader.replay(
        [&](WarehouseLog::Record record) {
            records.push_back(std::move(record));
        },
        &stats));
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].run_id, "a"); // checkpoint frames first
    EXPECT_EQ(records[1].run_id, "b");
    EXPECT_EQ(records[2].run_id, "c");
    EXPECT_EQ(records[3].kind, WarehouseLog::Record::Kind::kErase);
    EXPECT_EQ(stats.checkpoint_records, 2u);
    EXPECT_EQ(stats.run_records, 3u);
    EXPECT_EQ(stats.erase_records, 1u);
}

TEST(WarehouseLog, AppendBeforeReplayRefused)
{
    const std::string dir = freshDir("wlog_order");
    WarehouseLog log;
    ASSERT_TRUE(log.open({.dir = dir}));
    std::string error;
    EXPECT_FALSE(log.appendRun("early", "text", &error));
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------- store restart cycle

TEST(StoreRecovery, RestartRoundTripIsExact)
{
    const std::string dir = freshDir("store_roundtrip");
    ProfileStore::Options options;
    options.workers = 2;
    options.data_dir = dir;

    std::vector<std::string> pre_ids;
    std::vector<KernelAggregate> pre_top;
    double pre_merged_sum = 0.0;
    std::size_t pre_merged_nodes = 0;
    std::shared_ptr<const gui::FlameNode> pre_flame;
    std::uint64_t pre_text_bytes = 0;
    std::uint64_t pre_live = 0;
    {
        ProfileStore store(options);
        // Mixed ingestion: in-process handoffs and serialized text,
        // plus the failure modes the log must *not* record — a
        // rejected parse and an erased run.
        store.ingest("handoff-0",
                     makeProfile(0, {{"framework", "PyTorch"}}));
        store.ingestText("text-1",
                         makeProfile(1, {{"framework", "JAX"}})
                             ->serialize());
        store.ingest("handoff-2", makeProfile(2));
        store.ingestText("doomed", makeProfile(3)->serialize());
        store.ingestText("rejected", "this is not a profile");
        store.waitIdle();
        EXPECT_TRUE(store.erase("doomed"));
        EXPECT_EQ(store.stats().failed, 1u);
        EXPECT_TRUE(store.logHealthy());

        QueryEngine engine(store);
        pre_ids = store.runIds();
        pre_top = engine.topKernels(10);
        auto merged = engine.merged();
        pre_merged_sum = rootSum(*merged, prof::metric_names::kGpuTime);
        pre_merged_nodes = merged->cct().nodeCount();
        pre_flame = engine.flameGraph();
        pre_live = store.size();

        // Compact: reclaims the erased/rejected name text and folds
        // the log's dead records, so the restarted store replays
        // exactly the live corpus and the budget accounting matches.
        store.compactNames();
        pre_text_bytes = store.names()->textBytes();
    }

    ProfileStore recovered(options);
    EXPECT_TRUE(recovered.logHealthy());
    const ProfileStore::RecoveryStats recovery = recovered.recovery();
    EXPECT_TRUE(recovery.attempted);
    EXPECT_EQ(recovery.runs, pre_live);
    EXPECT_EQ(recovery.rejected, 0u);
    EXPECT_FALSE(recovery.torn_tail);
    EXPECT_EQ(recovered.runIds(), pre_ids);
    EXPECT_EQ(recovered.stats().recovered, pre_live);
    EXPECT_EQ(recovered.stats().ingested, 0u);

    // Budget accounting: the recovered table holds exactly the live
    // corpus's name text, and the stats charge equals it.
    EXPECT_EQ(recovered.names()->textBytes(), pre_text_bytes);
    EXPECT_EQ(recovered.stats().interned_bytes, pre_text_bytes);

    QueryEngine engine(recovered);
    const auto top = engine.topKernels(10);
    ASSERT_EQ(top.size(), pre_top.size());
    for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].name, pre_top[i].name);
        EXPECT_NEAR(top[i].total, pre_top[i].total, 1e-6);
        EXPECT_EQ(top[i].samples, pre_top[i].samples);
        EXPECT_EQ(top[i].runs, pre_top[i].runs);
    }
    auto merged = engine.merged();
    EXPECT_EQ(merged->cct().nodeCount(), pre_merged_nodes);
    EXPECT_NEAR(rootSum(*merged, prof::metric_names::kGpuTime),
                pre_merged_sum, 1e-6);
    expectSameFlame(*engine.flameGraph(), *pre_flame);

    // The recovered store is a full citizen: it keeps ingesting and
    // its appends keep accumulating durably.
    recovered.ingest("post-restart", makeProfile(7));
    recovered.waitIdle();
    EXPECT_EQ(recovered.size(), pre_live + 1);
    EXPECT_TRUE(recovered.logHealthy());
}

TEST(StoreRecovery, TornFinalRecordRecoversEveryPrecedingRun)
{
    const std::string dir = freshDir("store_torn");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        for (int i = 0; i < 3; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        EXPECT_EQ(store.stats().log_appends, 3u);
    }
    // Crash mid-append: a complete header promising more payload than
    // the file holds.
    {
        std::ofstream out(onlySegment(dir),
                          std::ios::binary | std::ios::app);
        out << "rec\trun\t5\t100000\t0123456789abcdef\ntorn-partial";
    }
    {
        ProfileStore store(options);
        EXPECT_EQ(store.recovery().runs, 3u);
        EXPECT_TRUE(store.recovery().torn_tail);
        EXPECT_EQ(store.size(), 3u);
        // The torn tail was truncated away; appends continue cleanly.
        store.ingest("run-3", makeProfile(3));
        store.waitIdle();
    }
    ProfileStore store(options);
    EXPECT_EQ(store.recovery().runs, 4u);
    EXPECT_FALSE(store.recovery().torn_tail);

    // An incomplete *header* (no newline) is the other torn shape.
    {
        std::ofstream out(onlySegment(dir),
                          std::ios::binary | std::ios::app);
        out << "rec\trun\t4";
    }
    ProfileStore again(options);
    EXPECT_EQ(again.recovery().runs, 4u);
    EXPECT_TRUE(again.recovery().torn_tail);
}

TEST(StoreRecovery, CorruptChecksumRecordSkippedOthersRecovered)
{
    const std::string dir = freshDir("store_corrupt");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    {
        ProfileStore store(options);
        for (int i = 0; i < 3; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
    }
    // Flip one payload byte of the middle record on disk.
    const std::string path = onlySegment(dir);
    std::string data;
    ASSERT_TRUE(readFile(path, &data));
    std::size_t second = data.find("rec\trun", 1);
    ASSERT_NE(second, std::string::npos);
    const std::size_t header_end = data.find('\n', second);
    ASSERT_NE(header_end, std::string::npos);
    data[header_end + 20] ^= 0x1;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << data;
    }

    ProfileStore store(options);
    EXPECT_EQ(store.recovery().runs, 2u);
    EXPECT_EQ(store.recovery().corrupt_records, 1u);
    EXPECT_FALSE(store.recovery().torn_tail);
    EXPECT_EQ(store.runIds(),
              (std::vector<std::string>{"run-0", "run-2"}));
}

TEST(StoreRecovery, EraseTombstoneAndReingestSurviveRestart)
{
    const std::string dir = freshDir("store_tombstone");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    const double replacement_sum =
        rootSum(*makeProfile(9), prof::metric_names::kGpuTime);
    {
        ProfileStore store(options);
        store.ingest("a", makeProfile(0));
        store.ingest("b", makeProfile(1));
        store.waitIdle();
        EXPECT_TRUE(store.erase("a"));
        // Re-ingest under the same id with different content: the log
        // must recover the latest version, not the tombstoned one.
        store.ingest("a", makeProfile(9));
        store.waitIdle();
    }
    ProfileStore store(options);
    EXPECT_EQ(store.runIds(), (std::vector<std::string>{"a", "b"}));
    EXPECT_NEAR(rootSum(*store.get("a"), prof::metric_names::kGpuTime),
                replacement_sum, 1e-6);
}

TEST(StoreRecovery, CompactionFoldsDeadRecordsAndSurvivesRestart)
{
    const std::string dir = freshDir("store_compact");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    // Auto-compaction armed at the first dead byte that outweighs the
    // live ones.
    options.log_compact_min_dead_bytes = 1;
    {
        ProfileStore store(options);
        for (int i = 0; i < 4; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        for (int i = 1; i < 4; ++i)
            store.erase("run-" + std::to_string(i));
        // Three of four runs tombstoned: dead outweighs live, so the
        // erase-triggered auto-compaction folded them away — into a
        // snapshot checkpoint that retires every segment.
        ASSERT_NE(store.log(), nullptr);
        EXPECT_EQ(store.log()->deadBytes(), 0u);
        EXPECT_GE(store.stats().log_compactions, 1u);
        EXPECT_EQ(store.log()->segmentCount(), 0u);
        EXPECT_GT(store.log()->checkpointIndex(), 0u);
    }
    {
        ProfileStore store(options);
        EXPECT_EQ(store.recovery().runs, 1u);
        EXPECT_EQ(store.recovery().checkpoint_records, 1u);
        EXPECT_EQ(store.runIds(), (std::vector<std::string>{"run-0"}));
    }

    // compactNames() is the explicit trigger: with the auto floor out
    // of reach, dead records persist until the store-level compaction.
    ProfileStore::Options manual = options;
    manual.log_compact_min_dead_bytes = 1ull << 40;
    ProfileStore store(manual);
    store.ingest("extra", makeProfile(5));
    store.waitIdle();
    store.erase("extra");
    EXPECT_GT(store.log()->deadBytes(), 0u);
    store.compactNames();
    EXPECT_EQ(store.log()->deadBytes(), 0u);
}

TEST(StoreRecovery, SegmentRolloverSplitsAndRecoversAcrossFiles)
{
    const std::string dir = freshDir("store_rollover");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_segment_bytes = 1; // every append rolls over
    {
        ProfileStore store(options);
        for (int i = 0; i < 5; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        ASSERT_NE(store.log(), nullptr);
        EXPECT_EQ(store.log()->segmentCount(), 5u);
    }
    ProfileStore store(options);
    EXPECT_EQ(store.recovery().runs, 5u);
    EXPECT_EQ(store.size(), 5u);
}

TEST(StoreRecovery, UnwritableDataDirDegradesToMemoryOnly)
{
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = "/proc/definitely/not/writable";
    ProfileStore store(options);
    EXPECT_FALSE(store.logHealthy());
    EXPECT_FALSE(store.logError().empty());
    EXPECT_FALSE(store.recovery().attempted);
    // The service still ingests and serves — it just is not durable.
    store.ingest("volatile", makeProfile(0));
    store.waitIdle();
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().log_appends, 0u);
}

TEST(StoreRecovery, StoreCheckpointRetiresHistoryAndRecoveryIsExact)
{
    const std::string dir = freshDir("store_checkpoint");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_checkpoint_bytes = 0; // manual checkpoints only
    {
        ProfileStore store(options);
        for (int i = 0; i < 5; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        EXPECT_TRUE(store.erase("run-1"));
        ASSERT_TRUE(store.checkpoint());
        EXPECT_EQ(store.stats().log_checkpoints, 1u);
        ASSERT_NE(store.log(), nullptr);
        EXPECT_EQ(store.log()->segmentCount(), 0u);
        EXPECT_EQ(store.log()->tailBytes(), 0u);
        EXPECT_GT(store.log()->checkpointIndex(), 0u);
        // Post-checkpoint churn lands in the tail past the cut.
        store.ingest("run-5", makeProfile(5));
        store.waitIdle();
        EXPECT_TRUE(store.erase("run-2"));
        EXPECT_GT(store.log()->tailBytes(), 0u);
    }
    ProfileStore store(options);
    EXPECT_TRUE(store.logHealthy());
    EXPECT_EQ(store.recovery().checkpoint_records, 4u);
    EXPECT_EQ(store.recovery().runs, 4u);
    EXPECT_EQ(store.runIds(), (std::vector<std::string>{
                                  "run-0", "run-3", "run-4", "run-5"}));
}

TEST(StoreRecovery, AutoCheckpointKeepsRecoveryFlatUnderChurn)
{
    const std::string dir = freshDir("store_auto_checkpoint");
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = dir;
    options.log_checkpoint_bytes = 1; // every append outgrows the tail
    {
        ProfileStore store(options);
        for (int i = 0; i < 6; ++i)
            store.ingest("run-" + std::to_string(i), makeProfile(i));
        store.waitIdle();
        EXPECT_GE(store.stats().log_checkpoints, 1u);
        ASSERT_NE(store.log(), nullptr);
        EXPECT_EQ(store.log()->tailBytes(), 0u);
    }
    ProfileStore store(options);
    // Replay parsed the corpus snapshot, not the append history.
    EXPECT_EQ(store.recovery().runs, 6u);
    EXPECT_EQ(store.recovery().checkpoint_records, 6u);
    EXPECT_TRUE(store.logHealthy());
}

TEST(StoreRecovery, ConcurrentDurableIngestAndEraseRecoverConsistently)
{
    const std::string dir = freshDir("store_stress");
    ProfileStore::Options options;
    options.workers = 4;
    options.shards = 4;
    options.data_dir = dir;
    std::vector<std::string> survivors;
    {
        ProfileStore store(options);
        std::vector<std::thread> frontends;
        for (int t = 0; t < 3; ++t) {
            frontends.emplace_back([&, t] {
                for (int i = t; i < 24; i += 3) {
                    store.ingestText(
                        "run-" + std::to_string(i),
                        makeProfile(i)->serialize());
                }
            });
        }
        // Concurrent erases of runs that may or may not have landed
        // yet — the shard-lock append ordering keeps log and corpus
        // consistent either way.
        std::thread eraser([&] {
            for (int i = 0; i < 24; i += 4)
                store.erase("run-" + std::to_string(i));
        });
        for (std::thread &f : frontends)
            f.join();
        eraser.join();
        store.waitIdle();
        survivors = store.runIds();
        EXPECT_TRUE(store.logHealthy());
    }
    ProfileStore store(options);
    EXPECT_EQ(store.runIds(), survivors);
}

} // namespace
} // namespace dc::service
