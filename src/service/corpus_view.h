#pragma once

/**
 * @file
 * Materialized corpus views: the warehouse's query-serving fast path.
 *
 * Every read query over a run selection ultimately wants the same two
 * artifacts — the merged ProfileDb of the selection and an id-keyed
 * per-kernel aggregate table. Before this layer, the QueryEngine
 * rebuilt both from scratch on every call: O(corpus) per query, which
 * cannot serve repeated fleet-level queries. CorpusView materializes
 * them once per filter signature and keeps them fresh cheaply:
 *
 *  - **Cache keying.** A view is keyed by the canonical signature of
 *    its QueryFilter (named fields + sorted metadata constraints) plus
 *    an optional excluded run id (for run-vs-corpus diffs). Entries are
 *    evicted least-recently-used beyond Options::max_views. The entry
 *    map is striped by signature hash — the hot lookup takes one
 *    stripe mutex (wait-metered into "view.lock.stripe.wait_us"), and
 *    only the rare over-capacity eviction sweeps all stripes — so
 *    concurrent queries for distinct signatures never serialize on
 *    one cache lock.
 *
 *  - **Generation invalidation.** ProfileStore keeps a monotonic
 *    Generation digest (publication low-water mark + erase count).
 *    acquire() compares the digest against the one the cached view was
 *    built at — equal means "corpus unchanged, serve the cached view"
 *    with no snapshotting at all.
 *
 *  - **Incremental refresh.** When only new runs arrived, the cached
 *    merged tree is cloned and *only the newly-published runs* are
 *    merged in (CctMerger's operation is associative and commutative,
 *    so folding late arrivals onto the materialized prefix yields the
 *    same result as re-merging everything). The kernel table is copied
 *    flat and the new runs' kernels folded on top. Cost scales with
 *    the delta, not the corpus.
 *
 *  - **Parallel full rebuild.** First touch, eviction, or an erase
 *    (merged stats are not invertible) rebuilds from scratch via
 *    CctMerger::mergeAllPrevalidated's pairwise tree reduction on the
 *    shared executor, and the per-kernel flat-table aggregation fans
 *    out the same way (chunked partial tables, reduced once at the
 *    end) — a cold topKernels uses every core twice over.
 *
 * Views are immutable once published and handed out as shared_ptr, so
 * queries hold a consistent view while ingestion, invalidation, and
 * eviction proceed concurrently.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/string_table.h"
#include "profiler/profile_db.h"
#include "service/profile_store.h"
#include "service/query_filter.h"

namespace dc::gui {
struct FlameNode;
} // namespace dc::gui

namespace dc::service {

/** Materialized-view cache over a ProfileStore. */
class CorpusView
{
  public:
    struct Options {
        /// Cached views kept before least-recently-used eviction.
        std::size_t max_views = 8;
        /// Chunk-width cap for parallel full rebuilds; 0 = the
        /// executor's pool width.
        std::size_t merge_workers = 0;
        /// Minimum runs per reduction chunk (below 2x this, rebuilds
        /// fold serially; CctMerger::kSerialNodeCutover also applies).
        std::size_t merge_grain = 4;
        /// Mutex stripes for the entry map (clamped to >= 1).
        std::size_t stripes = 8;
        /// Minimum runs per parallel kernel-aggregation chunk; below
        /// 2x this a cold build indexes runs serially.
        std::size_t index_grain = 8;
        /// Pool rebuild work fans out on; null = Executor::global().
        common::Executor *executor = nullptr;
    };

    /**
     * One kernel's aggregate for one metric, keyed in View::kernels by
     * FlatIdTable::pack(kernel name id, view metric id).
     */
    struct KernelStat {
        double total = 0.0;        ///< Summed metric over paths/runs.
        std::uint64_t samples = 0; ///< Aggregated sample count.
        std::uint32_t runs = 0;    ///< Runs the kernel appeared in
                                   ///< (with this metric).
        /// Build-internal run dedup mark (a kernel name recurs across
        /// call paths within one run); ordinals keep increasing across
        /// incremental refreshes, so copied tables never need resets.
        std::uint32_t last_run_mark = 0;
    };

    /**
     * One materialized selection; immutable once published, except the
     * internally-synchronized flame cache (filled lazily by the
     * QueryEngine's flame-graph exports).
     */
    struct View {
        /// Merged profile of the selection (CctMerger semantics:
        /// agreeing metadata kept, "merged_runs" sorted id list).
        std::shared_ptr<const prof::ProfileDb> db;
        /// Sorted ids of the merged runs.
        std::vector<std::string> run_ids;
        /// Per-(kernel name id, metric id) aggregates over the
        /// selection — metric ids are db->metrics() ids.
        FlatIdTable<KernelStat> kernels;
        /// Rendered flame graphs keyed by a FlameGraphOptions
        /// signature, built once per (view, options): repeated GUI
        /// exports of an unchanged corpus skip the FlameNode rebuild.
        /// Invalidation rides the view lifecycle — any generation or
        /// compaction change replaces the whole view. Guarded by
        /// flame_mutex.
        mutable std::mutex flame_mutex;
        mutable std::map<std::string,
                         std::shared_ptr<const gui::FlameNode>>
            flame_cache;
    };

    /** Cache behavior counters (testing and bench visibility). */
    struct Stats {
        std::uint64_t hits = 0;        ///< Served without rebuilding.
        std::uint64_t incremental = 0; ///< Refreshed with new runs only.
        std::uint64_t rebuilds = 0;    ///< Full (cold) materializations.
        std::uint64_t evictions = 0;   ///< LRU evictions.
    };

    explicit CorpusView(const ProfileStore &store)
        : CorpusView(store, Options{})
    {
    }
    CorpusView(const ProfileStore &store, Options options);

    CorpusView(const CorpusView &) = delete;
    CorpusView &operator=(const CorpusView &) = delete;

    /**
     * The materialized view for @p filter (minus @p exclude_run if
     * non-empty), fresh as of some store generation at or after entry.
     * Builds, refreshes, or serves the cache as needed; concurrent
     * acquires of the same signature serialize on the entry (one
     * build, everyone shares it) while distinct signatures proceed
     * independently.
     *
     * Honors the calling thread's ScopedDeadline (common/deadline.h): a
     * rebuild or refresh that outlives the deadline is abandoned and
     * acquire returns nullptr — the partial result is never cached,
     * and any previously cached view stays untouched for callers
     * without a deadline. Cache hits never return null.
     */
    std::shared_ptr<const View>
    acquire(const QueryFilter &filter,
            const std::string &exclude_run = {}) const;

    /** Drop every cached view (bench cold-path measurement). */
    void invalidateAll() const;

    Stats stats() const;

    /** Canonical cache key for (@p filter, @p exclude_run). */
    static std::string signature(const QueryFilter &filter,
                                 const std::string &exclude_run);

  private:
    /// One cache slot; the entry mutex serializes builders for the
    /// signature and guards view/generation. last_used is atomic so
    /// touches never take more than the owning stripe's lock while
    /// the eviction sweep reads it under all stripes' locks.
    struct Entry {
        std::mutex mutex;
        std::shared_ptr<const View> view;
        ProfileStore::Generation generation{};
        std::atomic<std::uint64_t> last_used{0};
    };

    /// One shard of the entry map; keyed lookups lock exactly one.
    struct Stripe {
        mutable std::mutex mutex;
        std::map<std::string, std::shared_ptr<Entry>> entries;
    };

    Stripe &stripeFor(const std::string &key) const;
    std::shared_ptr<Entry> entryFor(const std::string &key) const;
    /// Evict global-LRU entries (never @p keep) until the cache fits
    /// max_views again; locks every stripe, in index order.
    void evictOverflow(const Entry *keep) const;
    common::Executor &executor() const
    {
        return options_.executor != nullptr
                   ? *options_.executor
                   : common::Executor::global();
    }

    std::shared_ptr<const View>
    buildFull(const QueryFilter &filter, const std::string &exclude_run,
              const ProfileStore::Generation &generation) const;

    std::shared_ptr<const View>
    buildIncremental(
        const View &base,
        const std::vector<
            std::pair<std::string,
                      std::shared_ptr<const prof::ProfileDb>>> &fresh)
        const;

    /** Fold one run's kernel aggregates into @p kernels. */
    static void
    indexRun(FlatIdTable<KernelStat> &kernels,
             const prof::ProfileDb &run,
             const prof::MetricRegistry &view_metrics,
             std::uint32_t run_mark);

    const ProfileStore &store_;
    Options options_;

    mutable std::vector<std::unique_ptr<Stripe>> stripes_;
    mutable std::atomic<std::uint64_t> use_counter_{0};
    /// Entries across all stripes (capacity check without locking).
    mutable std::atomic<std::size_t> entry_count_{0};
    // Stats cells are atomics so the hot path never shares a cache
    // lock just to count a hit.
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> incremental_{0};
    mutable std::atomic<std::uint64_t> rebuilds_{0};
    mutable std::atomic<std::uint64_t> evictions_{0};
};

} // namespace dc::service
