#include "service/cct_merger.h"

#include <algorithm>
#include <atomic>

#include "common/executor.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dc::service {

void
intersectMetadataWith(std::map<std::string, std::string> &agreed,
                      const std::map<std::string, std::string> &meta)
{
    for (auto it = agreed.begin(); it != agreed.end();) {
        auto found = meta.find(it->first);
        if (found == meta.end() || found->second != it->second)
            it = agreed.erase(it);
        else
            ++it;
    }
}

namespace {

/**
 * Metadata agreement across profiles, matching CctMerger::finish():
 * pure intersection, so it composes across partial merges in any
 * grouping — the parallel reduction computes it flat instead.
 */
std::map<std::string, std::string>
intersectMetadata(const std::vector<const prof::ProfileDb *> &profiles)
{
    std::map<std::string, std::string> agreed;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (i == 0)
            agreed = profiles[i]->metadata();
        else
            intersectMetadataWith(agreed, profiles[i]->metadata());
    }
    return agreed;
}

} // namespace

CctMerger::CctMerger() = default;

void
CctMerger::add(const prof::ProfileDb &profile, const std::string &run_id)
{
    // An invalid profile (e.g. node metric ids not covered by its
    // registry) would merge stats into the wrong metric: with an empty
    // source registry the remap below is empty, which mergeFrom takes
    // as "ids already agree".
    std::string error;
    DC_CHECK(profile.validate(&error), "unmergeable profile: ", error);
    addPrevalidated(profile, run_id);
}

void
CctMerger::addPrevalidated(const prof::ProfileDb &profile,
                           const std::string &run_id)
{
    if (cct_ == nullptr)
        cct_ = std::make_unique<prof::Cct>(profile.cct().namesShared());
    const std::vector<int> remap = metrics_.mergeFrom(profile.metrics());
    cct_->mergeFrom(profile.cct(), remap);

    for (const auto &[key, value] : profile.metadata()) {
        auto it = metadata_.find(key);
        if (it == metadata_.end() && run_ids_.empty())
            metadata_[key] = value;
        else if (it == metadata_.end() || it->second != value)
            metadata_conflict_.insert(key);
    }
    // Keys present before but absent from this profile also conflict.
    for (const auto &[key, value] : metadata_) {
        (void)value;
        if (profile.metadata().count(key) == 0)
            metadata_conflict_.insert(key);
    }
    run_ids_.push_back(run_id);
}

std::unique_ptr<prof::ProfileDb>
CctMerger::finish()
{
    for (const std::string &key : metadata_conflict_)
        metadata_.erase(key);
    if (cct_ == nullptr) // nothing merged: an empty global-table tree
        cct_ = std::make_unique<prof::Cct>();
    std::sort(run_ids_.begin(), run_ids_.end());
    metadata_["merged_runs"] = join(run_ids_, ",");
    auto db = std::make_unique<prof::ProfileDb>(
        std::move(cct_), std::move(metrics_), std::move(metadata_));
    *this = CctMerger();
    return db;
}

std::unique_ptr<prof::ProfileDb>
CctMerger::mergeAll(const std::vector<const prof::ProfileDb *> &profiles,
                    const std::vector<std::string> &run_ids)
{
    DC_CHECK(profiles.size() == run_ids.size(),
             "mergeAll needs one run id per profile");
    CctMerger merger;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        DC_CHECK(profiles[i] != nullptr, "null profile in mergeAll");
        merger.add(*profiles[i], run_ids[i]);
    }
    return merger.finish();
}

std::unique_ptr<prof::ProfileDb>
CctMerger::mergeAllPrevalidated(
    const std::vector<const prof::ProfileDb *> &profiles,
    const std::vector<std::string> &run_ids, std::size_t workers,
    std::size_t grain, const common::Deadline *deadline,
    common::Executor *executor)
{
    DC_CHECK(profiles.size() == run_ids.size(),
             "mergeAllPrevalidated needs one run id per profile");
    std::size_t total_nodes = 0;
    for (const prof::ProfileDb *profile : profiles) {
        DC_CHECK(profile != nullptr,
                 "null profile in mergeAllPrevalidated");
        total_nodes += profile->cct().nodeCount();
    }
    common::Executor &exec =
        executor != nullptr ? *executor : common::Executor::global();
    if (workers == 0)
        workers = exec.threads();
    grain = std::max<std::size_t>(grain, 1);

    const std::size_t n = profiles.size();
    // Adaptive serial cutover: below the node threshold the fan-out's
    // overhead (task handoff, partial reduction) exceeds the merge
    // itself, so small selections fold inline even on wide pools.
    if (workers <= 1 || n < 2 * grain ||
        total_nodes < kSerialNodeCutover) {
        CctMerger merger;
        for (std::size_t i = 0; i < n; ++i) {
            if (deadline != nullptr && deadline->expired())
                return nullptr;
            merger.addPrevalidated(*profiles[i], run_ids[i]);
        }
        return merger.finish();
    }

    /// One worker's fold of a contiguous run chunk.
    struct Partial {
        std::unique_ptr<prof::Cct> cct;
        prof::MetricRegistry metrics;
    };
    const std::size_t chunks =
        std::min(workers, (n + grain - 1) / grain);
    std::vector<Partial> partials(chunks);
    // Cooperative cancellation across the fan-out: every fold loop
    // polls the shared flag so one expired deadline stops all chunks
    // within a run's worth of work each.
    std::atomic<bool> aborted{false};

    // Phase 1: fold each chunk into a partial CCT, one pool task each
    // (the submitting thread helps via wait()). The first merge into
    // an empty partial hits Cct::mergeFrom's block-copy path, so
    // per-chunk cost is dominated by the colliding merges — the work
    // the reduction spreads across cores.
    common::TaskGroup group(
        exec, deadline != nullptr ? *deadline : common::Deadline{});
    for (std::size_t c = 0; c < chunks; ++c) {
        group.submit([&, c] {
            Partial &partial = partials[c];
            const std::size_t begin = c * n / chunks;
            const std::size_t end = (c + 1) * n / chunks;
            // Adopt the chunk's first profile's table: within one
            // store every profile shares it, so the whole
            // reduction merges by direct id equality.
            partial.cct = std::make_unique<prof::Cct>(
                profiles[begin]->cct().namesShared());
            for (std::size_t i = begin; i < end; ++i) {
                if (aborted.load(std::memory_order_relaxed))
                    return;
                if (deadline != nullptr && deadline->expired()) {
                    aborted.store(true, std::memory_order_relaxed);
                    return;
                }
                const std::vector<int> remap =
                    partial.metrics.mergeFrom(profiles[i]->metrics());
                partial.cct->mergeFrom(profiles[i]->cct(), remap);
            }
        });
    }
    group.wait();

    // A cancelled group may have skipped whole chunk tasks (their
    // partials stay null), so an expired deadline — the only way a
    // skip happens here — abandons the merge exactly like a mid-chunk
    // abort.
    if (aborted.load() || group.cancelled())
        return nullptr;

    // Phase 2: pairwise tree reduction — log2(chunks) rounds, each
    // merging disjoint partial pairs concurrently on the pool.
    for (std::size_t step = 1; step < chunks; step *= 2) {
        if (deadline != nullptr && deadline->expired())
            return nullptr;
        for (std::size_t i = 0; i + step < chunks; i += 2 * step) {
            group.submit([&, i, step] {
                Partial &dst = partials[i];
                Partial &src = partials[i + step];
                const std::vector<int> remap =
                    dst.metrics.mergeFrom(src.metrics);
                dst.cct->mergeFrom(*src.cct, remap);
                src.cct.reset();
            });
        }
        group.wait();
        if (group.cancelled())
            return nullptr;
    }

    std::map<std::string, std::string> metadata =
        intersectMetadata(profiles);
    std::vector<std::string> sorted_ids = run_ids;
    std::sort(sorted_ids.begin(), sorted_ids.end());
    metadata["merged_runs"] = join(sorted_ids, ",");
    return std::make_unique<prof::ProfileDb>(
        std::move(partials[0].cct), std::move(partials[0].metrics),
        std::move(metadata));
}

} // namespace dc::service
