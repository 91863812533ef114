/**
 * @file
 * Tests for the query-serving fast path: materialized corpus views,
 * generation-based invalidation, incremental + parallel merges, and
 * the interned-id kernel aggregation behind topKernels.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/string_table.h"
#include "service/cct_merger.h"
#include "service/corpus_view.h"
#include "service/profile_store.h"
#include "service/query_engine.h"

namespace dc::service {
namespace {

using dlmon::Frame;
using prof::Cct;
using prof::CctNode;
using prof::MetricRegistry;
using prof::ProfileDb;

/**
 * A small synthetic profile: python main -> op -> one of several
 * kernels, with gpu_time_ns / kernel_count metrics and run metadata.
 * @p salt varies which kernels appear and their timings.
 */
std::unique_ptr<ProfileDb>
makeProfile(int salt, std::map<std::string, std::string> metadata = {})
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    const int count = metrics.intern(prof::metric_names::kKernelCount);

    Rng rng(4000 + static_cast<std::uint64_t>(salt));
    for (int i = 0; i < 3 + salt % 4; ++i) {
        const std::string kernel =
            "view_kernel_" + std::to_string((salt + i) % 6);
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

/**
 * Order-independent equivalence of two merged profiles: same
 * structure (children matched by FrameKey, not insertion order), same
 * counts, double-typed stats equal up to the FP rounding freedom the
 * merge documents, metrics resolved by *name* (parallel and serial
 * merges may intern registry ids in different orders).
 */
void
expectEquivalentSubtree(const CctNode &a, const MetricRegistry &reg_a,
                        const CctNode &b, const MetricRegistry &reg_b)
{
    ASSERT_EQ(a.metrics().size(), b.metrics().size());
    for (const auto &[id, stat] : a.metrics()) {
        const std::string &name = reg_a.name(id);
        const int id_b = reg_b.find(name);
        ASSERT_GE(id_b, 0) << name;
        const RunningStat *other = b.findMetric(id_b);
        ASSERT_NE(other, nullptr) << name;
        EXPECT_EQ(stat.count(), other->count()) << name;
        // Sums/means reassociate across merge orders; min/max do not.
        EXPECT_NEAR(stat.sum(), other->sum(),
                    1e-9 * std::abs(stat.sum()) + 1e-6)
            << name;
        EXPECT_DOUBLE_EQ(stat.min(), other->min()) << name;
        EXPECT_DOUBLE_EQ(stat.max(), other->max()) << name;
        EXPECT_NEAR(stat.m2(), other->m2(),
                    1e-9 * std::abs(stat.m2()) + 1e-3)
            << name;
    }
    ASSERT_EQ(a.childCount(), b.childCount());
    for (const CctNode *child = a.firstChild(); child != nullptr;
         child = child->nextSibling()) {
        const CctNode *match = b.findChild(child->key());
        ASSERT_NE(match, nullptr) << child->label();
        expectEquivalentSubtree(*child, reg_a, *match, reg_b);
    }
}

void
expectEquivalentProfile(const ProfileDb &a, const ProfileDb &b)
{
    EXPECT_EQ(a.cct().nodeCount(), b.cct().nodeCount());
    EXPECT_EQ(a.metadata(), b.metadata());
    expectEquivalentSubtree(a.cct().root(), a.metrics(), b.cct().root(),
                            b.metrics());
}

/** Serial from-scratch reference merge of the store's whole corpus. */
std::unique_ptr<ProfileDb>
scratchMerge(const ProfileStore &store)
{
    const auto entries = store.snapshot();
    std::vector<const ProfileDb *> profiles;
    std::vector<std::string> run_ids;
    for (const auto &[run_id, profile] : entries) {
        profiles.push_back(profile.get());
        run_ids.push_back(run_id);
    }
    return CctMerger::mergeAll(profiles, run_ids);
}

TEST(FlatIdTable, PackFindAndGrowth)
{
    FlatIdTable<int> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(FlatIdTable<int>::pack(1, 2)), nullptr);
    // Insert enough to force several growths past the initial slab.
    for (StringTable::Id id = 0; id < 100; ++id) {
        for (int low = 0; low < 3; ++low)
            table.slot(FlatIdTable<int>::pack(id, low)) =
                static_cast<int>(id) * 10 + low;
    }
    EXPECT_EQ(table.size(), 300u);
    for (StringTable::Id id = 0; id < 100; ++id) {
        for (int low = 0; low < 3; ++low) {
            const std::uint64_t key = FlatIdTable<int>::pack(id, low);
            ASSERT_NE(table.find(key), nullptr);
            EXPECT_EQ(*table.find(key),
                      static_cast<int>(id) * 10 + low);
            EXPECT_EQ(FlatIdTable<int>::packedId(key), id);
            EXPECT_EQ(FlatIdTable<int>::packedLow(key), low);
        }
    }
    std::size_t visited = 0;
    table.forEach([&](std::uint64_t key, const int &value) {
        (void)key;
        (void)value;
        ++visited;
    });
    EXPECT_EQ(visited, 300u);
    // Copy (the incremental view refresh copies the base index).
    FlatIdTable<int> copy = table;
    copy.slot(FlatIdTable<int>::pack(7, 0)) = -1;
    EXPECT_EQ(*table.find(FlatIdTable<int>::pack(7, 0)), 70);
    EXPECT_EQ(*copy.find(FlatIdTable<int>::pack(7, 0)), -1);
}

TEST(Cct, CloneIsExactCopy)
{
    auto original = makeProfile(3);
    const std::unique_ptr<Cct> copy = original->cct().clone();
    EXPECT_EQ(copy->nodeCount(), original->cct().nodeCount());
    // Clone preserves metric ids and child order exactly, so the
    // strict name-free comparison applies (same registry both sides).
    expectEquivalentSubtree(original->cct().root(),
                            original->metrics(), copy->root(),
                            original->metrics());
    // Deep copy: mutating the clone leaves the original untouched.
    const double before =
        original->cct().root().findMetric(0)->sum();
    copy->addMetric(&copy->root(), 0, 123.0, false);
    EXPECT_DOUBLE_EQ(original->cct().root().findMetric(0)->sum(),
                     before);
}

TEST(CctMerger, ParallelReductionMatchesSerialFold)
{
    std::vector<std::unique_ptr<ProfileDb>> owned;
    std::vector<const ProfileDb *> profiles;
    std::vector<std::string> run_ids;
    for (int i = 0; i < 17; ++i) { // odd count: exercises carry chunks
        owned.push_back(makeProfile(
            i, {{"framework", "PyTorch"},
                {"host", "node-" + std::to_string(i % 3)}}));
        profiles.push_back(owned.back().get());
        run_ids.push_back("run-" + std::to_string(i));
    }
    const auto serial = CctMerger::mergeAll(profiles, run_ids);
    for (std::size_t workers : {2u, 4u, 7u}) {
        const auto parallel = CctMerger::mergeAllPrevalidated(
            profiles, run_ids, workers, /*grain=*/1);
        expectEquivalentProfile(*serial, *parallel);
    }
    // Degenerate inputs go through the serial path unchanged.
    const auto empty =
        CctMerger::mergeAllPrevalidated({}, {}, 4, 1);
    EXPECT_EQ(empty->metadata().at("merged_runs"), "");
    const auto single = CctMerger::mergeAllPrevalidated(
        {profiles[0]}, {"solo"}, 4, 1);
    EXPECT_EQ(single->metadata().at("merged_runs"), "solo");
}

TEST(ProfileStore, GenerationAdvancesOnIngestAndErase)
{
    ProfileStore store;
    const auto g0 = store.generation();
    EXPECT_EQ(g0.ingested, 0u);
    EXPECT_EQ(g0.erased, 0u);

    store.ingest("a", makeProfile(0));
    store.ingest("b", makeProfile(1));
    store.waitIdle();
    const auto g1 = store.generation();
    EXPECT_EQ(g1.ingested, 2u);
    EXPECT_EQ(g1.erased, 0u);
    EXPECT_FALSE(g1 == g0);
    EXPECT_EQ(store.snapshotRange(0, g1.ingested).size(), 2u);

    store.ingest("c", makeProfile(2));
    store.waitIdle();
    const auto g2 = store.generation();
    EXPECT_EQ(g2.ingested, 3u);
    const auto fresh = store.snapshotRange(g1.ingested, g2.ingested);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].first, "c");

    // A duplicate burns a sequence number without publishing a run:
    // the digest moves, the range stays empty (readers refresh to a
    // no-op instead of missing anything).
    store.ingest("c", makeProfile(3));
    store.waitIdle();
    const auto g3 = store.generation();
    EXPECT_EQ(g3.ingested, 4u);
    EXPECT_TRUE(store.snapshotRange(g2.ingested, g3.ingested).empty());

    EXPECT_TRUE(store.erase("a"));
    EXPECT_EQ(store.generation().erased, 1u);
    EXPECT_FALSE(store.erase("a"));
    EXPECT_EQ(store.generation().erased, 1u);
}

TEST(CorpusView, CachedViewServedUntilGenerationChanges)
{
    ProfileStore store;
    for (int i = 0; i < 4; ++i)
        store.ingest("run-" + std::to_string(i), makeProfile(i));
    store.waitIdle();

    QueryEngine engine(store);
    const auto first = engine.merged();
    const auto second = engine.merged();
    EXPECT_EQ(first.get(), second.get()); // literally the same view
    EXPECT_EQ(engine.corpusView().stats().rebuilds, 1u);
    EXPECT_GE(engine.corpusView().stats().hits, 1u);

    // Repeated topKernels on the unchanged corpus only hit the cache.
    const auto top_a = engine.topKernels(3);
    const auto top_b = engine.topKernels(3);
    ASSERT_FALSE(top_a.empty());
    EXPECT_EQ(top_a.size(), top_b.size());
    EXPECT_EQ(engine.corpusView().stats().rebuilds, 1u);

    // An erase makes merged stats non-recoverable -> full rebuild.
    store.erase("run-3");
    const auto rebuilt = engine.merged();
    EXPECT_NE(rebuilt.get(), first.get());
    EXPECT_EQ(engine.corpusView().stats().rebuilds, 2u);
    expectEquivalentProfile(*rebuilt, *scratchMerge(store));
}

TEST(CorpusView, AbandonedPooledRebuildNeverCached)
{
    ProfileStore store;
    for (int i = 0; i < 32; ++i)
        store.ingest("run-" + std::to_string(i), makeProfile(i));
    store.waitIdle();

    service::CorpusView view(store);
    {
        common::ScopedDeadline expired(common::Deadline::after(0));
        EXPECT_EQ(view.acquire({}), nullptr)
            << "an expired deadline must abandon the pooled rebuild";
    }
    EXPECT_EQ(view.stats().hits, 0u);

    // The abandoned build left nothing behind: a deadline-free
    // acquire runs a full cold rebuild and only then caches.
    const auto built = view.acquire({});
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(view.stats().hits, 0u);
    EXPECT_GE(view.stats().rebuilds, 1u);
    EXPECT_EQ(view.acquire({}).get(), built.get());
    EXPECT_EQ(view.stats().hits, 1u);
}

TEST(CorpusView, IncrementalRefreshMatchesScratchMerge)
{
    ProfileStore store;
    QueryEngine engine(store);
    // Interleave ingest batches with queries; after the first build
    // every refresh must take the incremental path and still match a
    // from-scratch serial merge of the whole corpus.
    int next_run = 0;
    for (int phase = 0; phase < 4; ++phase) {
        for (int i = 0; i < 3 + phase; ++i) {
            store.ingest("run-" + std::to_string(next_run),
                         makeProfile(next_run));
            ++next_run;
        }
        store.waitIdle();
        const auto view = engine.merged();
        expectEquivalentProfile(*view, *scratchMerge(store));

        // topKernels from the id-keyed index vs. a per-run string-map
        // reference aggregation.
        const auto top = engine.topKernels(1000);
        std::map<std::string, double> reference_totals;
        std::map<std::string, std::size_t> reference_runs;
        for (const auto &[run_id, profile] : store.snapshot()) {
            (void)run_id;
            const int gpu = profile->metrics().find(
                prof::metric_names::kGpuTime);
            ASSERT_GE(gpu, 0);
            std::map<std::string, bool> seen;
            profile->cct().visit([&](const CctNode &node) {
                if (node.kind() != dlmon::FrameKind::kKernel)
                    return;
                const RunningStat *stat = node.findMetric(gpu);
                if (stat == nullptr || stat->count() == 0)
                    return;
                reference_totals[node.name()] += stat->sum();
                if (!seen[node.name()]) {
                    seen[node.name()] = true;
                    ++reference_runs[node.name()];
                }
            });
        }
        ASSERT_EQ(top.size(), reference_totals.size());
        for (const KernelAggregate &agg : top) {
            ASSERT_EQ(reference_totals.count(agg.name), 1u) << agg.name;
            EXPECT_NEAR(agg.total, reference_totals[agg.name],
                        1e-9 * std::abs(agg.total) + 1e-6)
                << agg.name;
            EXPECT_EQ(agg.runs, reference_runs[agg.name]) << agg.name;
        }
    }
    const auto stats = engine.corpusView().stats();
    EXPECT_EQ(stats.rebuilds, 1u);      // only the first touch
    EXPECT_EQ(stats.incremental, 3u);   // every later phase
}

TEST(CorpusView, FilteredViewsRefreshIndependently)
{
    ProfileStore store;
    store.ingest("torch-0", makeProfile(0, {{"framework", "PyTorch"}}));
    store.ingest("jax-0", makeProfile(1, {{"framework", "JAX"}}));
    store.waitIdle();

    QueryEngine engine(store);
    QueryFilter torch;
    torch.framework = "PyTorch";
    const auto torch_view = engine.merged(torch);
    EXPECT_EQ(torch_view->metadata().at("merged_runs"), "torch-0");

    // A new JAX run advances the generation; the torch view's refresh
    // finds nothing matching and stays materialized as-is.
    store.ingest("jax-1", makeProfile(2, {{"framework", "JAX"}}));
    store.waitIdle();
    const auto torch_again = engine.merged(torch);
    EXPECT_EQ(torch_again.get(), torch_view.get());

    // A new torch run lands in the torch view incrementally.
    store.ingest("torch-1", makeProfile(3, {{"framework", "PyTorch"}}));
    store.waitIdle();
    const auto torch_grown = engine.merged(torch);
    EXPECT_EQ(torch_grown->metadata().at("merged_runs"),
              "torch-0,torch-1");
    EXPECT_EQ(torch_grown->metadata().at("framework"), "PyTorch");

    QueryFilter jax;
    jax.framework = "JAX";
    EXPECT_EQ(engine.merged(jax)->metadata().at("merged_runs"),
              "jax-0,jax-1");
}

TEST(CorpusView, DiffAgainstCorpusExcludesRunAndCaches)
{
    ProfileStore store;
    store.ingest("a", makeProfile(0));
    store.ingest("b", makeProfile(1));
    store.ingest("c", makeProfile(2));
    store.waitIdle();

    QueryEngine engine(store);
    const auto diff = engine.diffAgainstCorpus("a");
    ASSERT_TRUE(diff.has_value());
    const auto diff_again = engine.diffAgainstCorpus("a");
    ASSERT_TRUE(diff_again.has_value());
    EXPECT_DOUBLE_EQ(diff->gpu_time_b, diff_again->gpu_time_b);
    // Two acquires of the corpus-minus-a view, one materialization.
    EXPECT_EQ(engine.corpusView().stats().rebuilds, 1u);
    EXPECT_GE(engine.corpusView().stats().hits, 1u);
}

TEST(CorpusView, LruEvictionBoundsCachedViews)
{
    ProfileStore store;
    store.ingest("a", makeProfile(0, {{"model", "m0"}}));
    store.ingest("b", makeProfile(1, {{"model", "m1"}}));
    store.waitIdle();

    QueryEngine::Options options;
    options.view.max_views = 2;
    QueryEngine engine(store, options);
    for (int i = 0; i < 6; ++i) {
        QueryFilter filter;
        filter.metadata["model"] = "m" + std::to_string(i % 3);
        engine.merged(filter); // 3 distinct signatures, capacity 2
    }
    const auto stats = engine.corpusView().stats();
    EXPECT_GE(stats.evictions, 1u);
    // Evicted signatures rebuild on return; nothing is ever wrong,
    // just re-materialized.
    EXPECT_GT(stats.rebuilds, 3u);
}

/** Acceptance: queries concurrent with ingestion and invalidation are
 *  race-free (run under TSan) and converge to the scratch merge. */
TEST(CorpusView, ConcurrentQueriesDuringIngestAndInvalidation)
{
    ProfileStore::Options store_options;
    store_options.workers = 2;
    store_options.shards = 4;
    ProfileStore store(store_options);
    for (int i = 0; i < 4; ++i) {
        store.ingest("seed-" + std::to_string(i),
                     makeProfile(i, {{"framework", "PyTorch"}}));
    }
    store.waitIdle();

    QueryEngine engine(store);
    std::atomic<bool> stop{false};
    std::thread ingester([&] {
        for (int i = 0; i < 24; ++i) {
            store.ingestText(
                "live-" + std::to_string(i),
                makeProfile(i % 7, {{"framework",
                                     i % 2 ? "PyTorch" : "JAX"}})
                    ->serialize());
            if (i % 8 == 7) {
                store.waitIdle();
                store.erase("live-" + std::to_string(i - 4));
            }
        }
        store.waitIdle();
        stop.store(true);
    });

    std::vector<std::thread> queriers;
    for (int t = 0; t < 2; ++t) {
        queriers.emplace_back([&, t] {
            QueryFilter filter;
            if (t == 1)
                filter.framework = "PyTorch";
            while (!stop.load()) {
                const auto top = engine.topKernels(5, filter);
                if (!top.empty()) {
                    EXPECT_GT(top.front().total, 0.0);
                }
                const auto merged = engine.merged(filter);
                EXPECT_NE(merged, nullptr);
                (void)engine.runIds(filter);
            }
        });
    }
    ingester.join();
    for (std::thread &querier : queriers)
        querier.join();

    // Quiesced: the refreshed view equals a from-scratch merge.
    expectEquivalentProfile(*engine.merged(), *scratchMerge(store));
}

} // namespace
} // namespace dc::service
