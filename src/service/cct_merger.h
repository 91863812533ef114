#pragma once

/**
 * @file
 * Structural merge of calling-context trees across runs.
 *
 * The warehouse stores one ProfileDb per run; fleet-level analysis wants
 * one tree. CctMerger unifies frames under Frame::sameLocation (the same
 * collapsing rule the profiler applies within a run, extended across
 * runs — realized as direct FrameKey equality, since every tree interns
 * names through the process-wide StringTable), remaps metric ids
 * through a combined MetricRegistry, and merges
 * per-node RunningStat accumulators with the parallel-Welford combine —
 * so the merged tree is exactly what a single profiler observing all the
 * runs would have built. The operation is associative and commutative up
 * to floating-point rounding, which lets ingestion merge in any order.
 */

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "profiler/profile_db.h"

namespace dc::common {
class Executor;
} // namespace dc::common

namespace dc::service {

/**
 * Fold one profile's metadata into a running agreement intersection:
 * a key survives iff every folded profile carried it with one value —
 * exactly CctMerger::finish()'s rule, factored out so the parallel
 * reduction and the corpus view's incremental refresh share it. Seed
 * @p agreed with the first profile's metadata, then fold the rest.
 */
void intersectMetadataWith(
    std::map<std::string, std::string> &agreed,
    const std::map<std::string, std::string> &meta);

/** Incremental multi-run CCT/profile merger. */
class CctMerger
{
  public:
    CctMerger();

    /**
     * Merge one run's profile into the accumulated result. Panics on a
     * profile that fails ProfileDb::validate (its stats could silently
     * land on the wrong metric otherwise).
     * @param run_id Recorded into the result's "merged_runs" metadata.
     */
    void add(const prof::ProfileDb &profile, const std::string &run_id);

    /**
     * add() minus the validation walk, for profiles already validated
     * at a trust boundary — the QueryEngine uses this for store-held
     * profiles (every ingestion path validates), so read queries do
     * not revalidate the corpus on every merge.
     */
    void addPrevalidated(const prof::ProfileDb &profile,
                         const std::string &run_id);

    /** Number of profiles merged so far. */
    std::size_t runCount() const { return run_ids_.size(); }

    /**
     * Build the merged ProfileDb and reset the merger. Metadata keys
     * whose values agreed across every input are kept; disagreeing keys
     * are dropped; "merged_runs" holds a comma-joined sorted run-id list.
     */
    std::unique_ptr<prof::ProfileDb> finish();

    /** One-shot convenience over add()+finish(). */
    static std::unique_ptr<prof::ProfileDb>
    mergeAll(const std::vector<const prof::ProfileDb *> &profiles,
             const std::vector<std::string> &run_ids);

    /// Total tree nodes across the inputs below which
    /// mergeAllPrevalidated folds serially regardless of worker count:
    /// task handoff and partial-table reduction cost more than they
    /// save on small merges (the old per-rebuild thread pools lost
    /// ~13% on 1-run merges before this cutover existed).
    static constexpr std::size_t kSerialNodeCutover = 4096;

    /**
     * Merge pre-validated profiles (warehouse trust boundary — every
     * store ingestion path validates) with a parallel tree reduction
     * on the shared executor: the run list is split into contiguous
     * chunks, each chunk is folded into a partial CCT as one pool
     * task, and partials are merged pairwise in parallel rounds until
     * one remains. The merge is associative and commutative up to
     * floating-point rounding, so the result is equivalent to the
     * serial fold — structure and counts identical, double-typed
     * stats equal up to rounding; metric ids and child insertion
     * order may differ (resolve metrics by name when comparing).
     *
     * Adaptive cutover: merges totalling fewer than kSerialNodeCutover
     * tree nodes (or fewer than 2*grain runs) fold serially on the
     * calling thread.
     *
     * @param workers Chunk-width cap; 0 = the executor's pool width.
     * @param grain   Minimum runs per chunk.
     * @param deadline Optional cancellation token, passed explicitly
     *                because pool workers do not inherit the caller's
     *                thread-local ScopedDeadline. Polled at run
     *                granularity; once expired the merge is abandoned
     *                and nullptr returned (callers must treat null as
     *                "no result", never cache it).
     * @param executor Pool to fan out on; null = Executor::global().
     */
    static std::unique_ptr<prof::ProfileDb> mergeAllPrevalidated(
        const std::vector<const prof::ProfileDb *> &profiles,
        const std::vector<std::string> &run_ids, std::size_t workers = 0,
        std::size_t grain = 4, const common::Deadline *deadline = nullptr,
        common::Executor *executor = nullptr);

  private:
    /// The accumulator tree, created on the first add() so it adopts
    /// that profile's string table — within-store merges then unify
    /// frames by direct id equality with no translation; a later
    /// foreign-table profile goes through mergeFrom's translating
    /// path. finish() on an empty merger falls back to the global
    /// table.
    std::unique_ptr<prof::Cct> cct_;
    prof::MetricRegistry metrics_;
    std::map<std::string, std::string> metadata_;
    /// Keys that disagreed between inputs (dropped at finish()).
    std::set<std::string> metadata_conflict_;
    std::vector<std::string> run_ids_;
};

} // namespace dc::service
