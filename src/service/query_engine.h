#pragma once

/**
 * @file
 * The warehouse's analysis frontend: queries over the profiles held in a
 * ProfileStore.
 *
 *  - top-k kernels by an aggregate metric across every (or a filtered
 *    subset of) stored run,
 *  - per-run vs. merged-corpus diff and run-vs-run diff (reusing
 *    analyzer/diff),
 *  - metadata filtering (framework / platform / model / arbitrary keys),
 *  - flame-graph export of any query's merged profile through
 *    gui/flamegraph.
 *
 * Queries are served through the engine's CorpusView cache: the merged
 * selection and its id-keyed kernel aggregates are materialized once
 * per filter signature, invalidated by the store's generation digest,
 * refreshed incrementally when only new runs arrived, and rebuilt with
 * a parallel tree reduction when they cannot be (first touch, erase,
 * eviction). Repeated queries over a stable corpus touch no profile —
 * top-k is a scan of a flat interned-id table with a bounded k-heap,
 * and merged()/flame queries reuse the cached merged tree. Everything
 * stays safe to call concurrently with ingestion.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/diff.h"
#include "gui/flamegraph.h"
#include "profiler/profile_db.h"
#include "service/corpus_view.h"
#include "service/profile_store.h"
#include "service/query_filter.h"

namespace dc::service {

/** One kernel's aggregate across the selected runs. */
struct KernelAggregate {
    std::string name;
    double total = 0.0;        ///< Summed metric over all call paths/runs.
    std::uint64_t samples = 0; ///< Aggregated sample count.
    std::size_t runs = 0;      ///< Runs the kernel appeared in.

    double mean() const
    {
        return samples > 0 ? total / static_cast<double>(samples) : 0.0;
    }
};

/** Read-side query service over a ProfileStore. */
class QueryEngine
{
  public:
    struct Options {
        /// Materialized-view cache behavior (capacity, merge workers).
        CorpusView::Options view;
    };

    explicit QueryEngine(const ProfileStore &store)
        : QueryEngine(store, Options{})
    {
    }
    QueryEngine(const ProfileStore &store, Options options)
        : store_(store), view_(store, options.view)
    {
    }

    /**
     * Sorted run ids matching @p filter — via the store's lightweight
     * id-listing path, no per-run shared_ptr snapshots.
     */
    std::vector<std::string> runIds(const QueryFilter &filter = {}) const;

    /**
     * Top-@p k kernels by summed @p metric across the selected runs,
     * sorted by total descending (ties broken by name so results are
     * deterministic under any ingestion order; totals are exact up to
     * the FP rounding freedom CctMerger documents).
     */
    std::vector<KernelAggregate>
    topKernels(std::size_t k, const QueryFilter &filter = {},
               const std::string &metric =
                   prof::metric_names::kGpuTime) const;

    /**
     * Merged profile of every run matching @p filter — the cached
     * materialized view's tree, shared with concurrent readers (hence
     * const). Holding the pointer keeps that view's merge alive
     * regardless of later ingestion. Null only when the calling
     * thread's ScopedDeadline (common/deadline.h) expired mid-rebuild.
     */
    std::shared_ptr<const prof::ProfileDb>
    merged(const QueryFilter &filter = {}) const;

    /**
     * Diff two stored runs (analyzer/diff). Run ids come from callers
     * (and can vanish under a concurrent erase), so an unknown id
     * yields nullopt rather than taking the service down.
     */
    std::optional<analysis::ProfileComparison>
    diffRuns(const std::string &run_a, const std::string &run_b) const;

    /**
     * Diff one run against the merged rest of the corpus — "how does
     * this run deviate from the fleet". nullopt when @p run_id is
     * unknown. The corpus-minus-run merge is a cached view of its own
     * (keyed by filter + excluded id), so repeated fleet diffs of the
     * same run don't re-merge.
     */
    std::optional<analysis::ProfileComparison>
    diffAgainstCorpus(const std::string &run_id,
                      const QueryFilter &filter = {}) const;

    /**
     * Flame graph of the merged selection. Served from the view's
     * flame cache: repeated exports of an unchanged corpus (same
     * filter, same options) return the same shared rendering without
     * rebuilding a FlameNode tree; any ingest/erase/compaction
     * replaces the view and with it the cache.
     */
    std::shared_ptr<const gui::FlameNode>
    flameGraph(const QueryFilter &filter = {},
               const gui::FlameGraphOptions &options = {}) const;

    /** Self-contained HTML flame graph of the merged selection. */
    std::string
    flameGraphHtml(const std::string &title,
                   const QueryFilter &filter = {},
                   const gui::FlameGraphOptions &options = {}) const;

    /** The engine's view cache (stats, explicit invalidation). */
    const CorpusView &corpusView() const { return view_; }

  private:
    const ProfileStore &store_;
    /// Mutable: queries are logically const but maintain the cache.
    mutable CorpusView view_;
};

} // namespace dc::service
