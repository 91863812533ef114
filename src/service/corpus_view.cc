#include "service/corpus_view.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/deadline.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/lock_wait.h"
#include "obs/trace_span.h"
#include "service/cct_merger.h"

namespace dc::service {

namespace {

obs::SpanSite s_rebuild_span{"view.rebuild"};
obs::SpanSite s_refresh_span{"view.refresh"};

obs::Counter &
viewHitCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("view.hit");
    return counter;
}

obs::Histogram &
stripeWaitHistogram()
{
    static obs::Histogram hist = obs::MetricsRegistry::global().histogram(
        "view.lock.stripe.wait_us");
    return hist;
}

obs::Histogram &
entryWaitHistogram()
{
    static obs::Histogram hist = obs::MetricsRegistry::global().histogram(
        "view.lock.entry.wait_us");
    return hist;
}

/**
 * Metric-id translation from a run's registry into the view's merged
 * registry (index = run id). Every run metric is present in the view
 * registry by construction — the view registry was built by merging
 * the runs' registries.
 */
std::vector<int>
remapInto(const prof::MetricRegistry &view_metrics,
          const prof::MetricRegistry &run_metrics)
{
    std::vector<int> remap;
    remap.reserve(run_metrics.size());
    for (const std::string &name : run_metrics.allNames()) {
        const int id = view_metrics.find(name);
        DC_CHECK(id >= 0, "view registry is missing run metric '", name,
                 "' — view and run set are out of sync");
        remap.push_back(id);
    }
    return remap;
}

/// Escaped key/value append for signature(): separators cannot be
/// forged from user metadata values.
void
appendSigField(std::string &sig, const std::string &text)
{
    for (char c : text) {
        if (c == '\\' || c == '\x1e' || c == '\x1f')
            sig.push_back('\\');
        sig.push_back(c);
    }
    sig.push_back('\x1f');
}

} // namespace

CorpusView::CorpusView(const ProfileStore &store, Options options)
    : store_(store), options_(options)
{
    DC_CHECK(options_.max_views > 0, "view cache needs capacity");
    const std::size_t stripes =
        std::max<std::size_t>(options_.stripes, 1);
    stripes_.reserve(stripes);
    for (std::size_t i = 0; i < stripes; ++i)
        stripes_.push_back(std::make_unique<Stripe>());
}

std::string
CorpusView::signature(const QueryFilter &filter,
                      const std::string &exclude_run)
{
    std::string sig;
    appendSigField(sig, filter.framework);
    appendSigField(sig, filter.platform);
    appendSigField(sig, filter.model);
    for (const auto &[key, value] : filter.metadata) { // sorted (map)
        appendSigField(sig, key);
        appendSigField(sig, value);
    }
    sig.push_back('\x1e');
    appendSigField(sig, exclude_run);
    return sig;
}

CorpusView::Stripe &
CorpusView::stripeFor(const std::string &key) const
{
    return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
}

std::shared_ptr<CorpusView::Entry>
CorpusView::entryFor(const std::string &key) const
{
    Stripe &stripe = stripeFor(key);
    std::shared_ptr<Entry> entry;
    {
        obs::WaitMeteredLock<std::mutex> lock(stripe.mutex,
                                              stripeWaitHistogram());
        auto it = stripe.entries.find(key);
        if (it == stripe.entries.end()) {
            it = stripe.entries.emplace(key, std::make_shared<Entry>())
                     .first;
            entry_count_.fetch_add(1, std::memory_order_relaxed);
        }
        entry = it->second;
    }
    entry->last_used.store(
        use_counter_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    // LRU eviction beyond capacity (never the entry just requested) —
    // outside the stripe lock, since the sweep locks every stripe. A
    // builder still holding an evicted entry's shared_ptr finishes
    // harmlessly on the orphan; its result is simply rebuilt next time.
    if (entry_count_.load(std::memory_order_relaxed) >
        options_.max_views) {
        evictOverflow(entry.get());
    }
    return entry;
}

void
CorpusView::evictOverflow(const Entry *keep) const
{
    // All-stripe lock in index order (the only multi-stripe path, so
    // no ordering conflicts). Eviction is rare — the cache has to be
    // over capacity — so the global sweep never sits on the hot path.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(stripes_.size());
    for (const auto &stripe : stripes_)
        locks.emplace_back(stripe->mutex);
    std::size_t count = 0;
    for (const auto &stripe : stripes_)
        count += stripe->entries.size();
    while (count > options_.max_views) {
        Stripe *victim_stripe = nullptr;
        std::map<std::string, std::shared_ptr<Entry>>::iterator victim;
        std::uint64_t oldest = ~0ull;
        for (const auto &stripe : stripes_) {
            for (auto cur = stripe->entries.begin();
                 cur != stripe->entries.end(); ++cur) {
                if (cur->second.get() == keep)
                    continue;
                const std::uint64_t used =
                    cur->second->last_used.load(
                        std::memory_order_relaxed);
                if (victim_stripe == nullptr || used < oldest) {
                    victim_stripe = stripe.get();
                    victim = cur;
                    oldest = used;
                }
            }
        }
        if (victim_stripe == nullptr)
            break;
        victim_stripe->entries.erase(victim);
        entry_count_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        --count;
    }
}

std::shared_ptr<const CorpusView::View>
CorpusView::acquire(const QueryFilter &filter,
                    const std::string &exclude_run) const
{
    const std::shared_ptr<Entry> entry =
        entryFor(signature(filter, exclude_run));
    // Builder serialization per signature: waits here mean concurrent
    // queries stacked behind one cold rebuild — the histogram makes
    // that visible.
    obs::WaitMeteredLock<std::mutex> entry_lock(entry->mutex,
                                                entryWaitHistogram());

    // Read the digest before snapshotting: runs published after this
    // read are deliberately left for the next acquire, which will see
    // a larger generation and refresh incrementally.
    const ProfileStore::Generation generation = store_.generation();
    if (entry->view != nullptr && entry->generation == generation) {
        viewHitCounter().add();
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry->view;
    }

    const bool can_refresh =
        entry->view != nullptr && !entry->view->run_ids.empty() &&
        entry->generation.erased == generation.erased &&
        entry->generation.compacted == generation.compacted &&
        generation.ingested >= entry->generation.ingested;
    if (can_refresh) {
        auto fresh = store_.snapshotRange(entry->generation.ingested,
                                          generation.ingested);
        std::erase_if(fresh, [&](const auto &run) {
            return run.first == exclude_run ||
                   !filter.matches(run.second->metadata());
        });
        if (fresh.empty()) {
            // Generation moved but nothing new matches this view —
            // record the new digest so the next acquire is a pure hit.
            entry->generation = generation;
            viewHitCounter().add();
            hits_.fetch_add(1, std::memory_order_relaxed);
            return entry->view;
        }
        auto refreshed = buildIncremental(*entry->view, fresh);
        if (refreshed == nullptr)
            return nullptr; // deadline expired; stale view kept as-is
        entry->view = std::move(refreshed);
        entry->generation = generation;
        incremental_.fetch_add(1, std::memory_order_relaxed);
        return entry->view;
    }

    auto built = buildFull(filter, exclude_run, generation);
    if (built == nullptr) {
        // Deadline expired mid-build. The entry keeps whatever it had
        // (possibly nothing); the abandoned partial is never cached,
        // so a later acquire rebuilds from a clean slate.
        return nullptr;
    }
    entry->view = std::move(built);
    entry->generation = generation;
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    return entry->view;
}

std::shared_ptr<const CorpusView::View>
CorpusView::buildFull(const QueryFilter &filter,
                      const std::string &exclude_run,
                      const ProfileStore::Generation &generation) const
{
    obs::ObsSpan span(s_rebuild_span, generation.ingested);
    // The merge interns (at least "<root>") into the store's table;
    // hold the guard its compactNames() quiesces interning with.
    const auto intern_guard = store_.internGuard();
    auto selected = store_.snapshotRange(0, generation.ingested);
    std::erase_if(selected, [&](const auto &run) {
        return run.first == exclude_run ||
               !filter.matches(run.second->metadata());
    });

    std::vector<const prof::ProfileDb *> profiles;
    std::vector<std::string> run_ids;
    profiles.reserve(selected.size());
    run_ids.reserve(selected.size());
    for (const auto &[run_id, profile] : selected) {
        profiles.push_back(profile.get());
        run_ids.push_back(run_id);
    }

    // The caller's deadline token (unset outside a server request).
    // Pool workers cannot see the thread-local, so it crosses by
    // pointer (the merge) and via TaskGroup (the aggregation below).
    const common::Deadline deadline = common::ScopedDeadline::current();
    common::Executor &exec = executor();
    auto view = std::make_shared<View>();
    view->db = CctMerger::mergeAllPrevalidated(
        profiles, run_ids, options_.merge_workers, options_.merge_grain,
        deadline.valid() ? &deadline : nullptr, &exec);
    if (view->db == nullptr)
        return nullptr; // merge abandoned at the deadline
    view->run_ids = std::move(run_ids);

    // Parallel flat-table aggregation: chunks build partial kernel
    // tables on the pool, then one reduction folds them together.
    // Chunks keep the serial path's global run ordinals (i + 1) as
    // their dedup marks, so marks stay globally unique and a later
    // incremental refresh (which continues from run_ids.size()) can
    // never collide with them.
    const std::size_t index_grain =
        std::max<std::size_t>(options_.index_grain, 1);
    const std::size_t chunks =
        std::min(exec.threads() + 1, selected.size() / index_grain);
    if (chunks >= 2) {
        std::vector<FlatIdTable<KernelStat>> parts(chunks);
        common::TaskGroup group(exec, deadline);
        for (std::size_t c = 0; c < chunks; ++c) {
            group.submit([&, c] {
                const std::size_t begin = c * selected.size() / chunks;
                const std::size_t end =
                    (c + 1) * selected.size() / chunks;
                for (std::size_t i = begin; i < end; ++i) {
                    if (group.cancelled())
                        return;
                    if (deadline.expired()) {
                        // A chunk abandoned mid-run would leave a
                        // partial table; cancelling the group makes
                        // the whole build abandon below.
                        group.cancel();
                        return;
                    }
                    indexRun(parts[c], *selected[i].second,
                             view->db->metrics(),
                             static_cast<std::uint32_t>(i + 1));
                }
            });
        }
        group.wait();
        if (group.cancelled() || deadline.expired())
            return nullptr;
        for (const FlatIdTable<KernelStat> &part : parts) {
            part.forEach([&](std::uint64_t key,
                             const KernelStat &stat) {
                KernelStat &agg = view->kernels.slot(key);
                agg.total += stat.total;
                agg.samples += stat.samples;
                agg.runs += stat.runs;
                // Keep the largest mark so refresh ordinals stay
                // strictly above every mark already in the table.
                agg.last_run_mark =
                    std::max(agg.last_run_mark, stat.last_run_mark);
            });
        }
        return view;
    }

    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (deadline.expired())
            return nullptr;
        indexRun(view->kernels, *selected[i].second,
                 view->db->metrics(),
                 static_cast<std::uint32_t>(i + 1));
    }
    return view;
}

std::shared_ptr<const CorpusView::View>
CorpusView::buildIncremental(
    const View &base,
    const std::vector<std::pair<
        std::string, std::shared_ptr<const prof::ProfileDb>>> &fresh)
    const
{
    obs::ObsSpan span(s_refresh_span, fresh.size());
    // Clone the materialized prefix, then fold only the new runs onto
    // it — the merge is associative/commutative, so this equals a
    // from-scratch merge of the whole selection (up to FP rounding).
    const auto intern_guard = store_.internGuard();
    std::unique_ptr<prof::Cct> cct = base.db->cct().clone();
    prof::MetricRegistry metrics = base.db->metrics();
    std::map<std::string, std::string> metadata = base.db->metadata();
    metadata.erase("merged_runs"); // recomputed below

    const common::Deadline deadline = common::ScopedDeadline::current();
    for (const auto &[run_id, profile] : fresh) {
        (void)run_id;
        if (deadline.expired())
            return nullptr; // abandoned; caller keeps the stale view
        const std::vector<int> remap =
            metrics.mergeFrom(profile->metrics());
        cct->mergeFrom(profile->cct(), remap);
        intersectMetadataWith(metadata, profile->metadata());
    }

    auto view = std::make_shared<View>();
    view->run_ids = base.run_ids;
    for (const auto &[run_id, profile] : fresh) {
        (void)profile;
        view->run_ids.push_back(run_id);
    }
    std::sort(view->run_ids.begin(), view->run_ids.end());
    metadata["merged_runs"] = join(view->run_ids, ",");
    view->db = std::make_shared<prof::ProfileDb>(
        std::move(cct), std::move(metrics), std::move(metadata));

    view->kernels = base.kernels; // one flat vector copy
    std::uint32_t run_mark =
        static_cast<std::uint32_t>(base.run_ids.size());
    for (const auto &[run_id, profile] : fresh) {
        (void)run_id;
        if (deadline.expired())
            return nullptr;
        indexRun(view->kernels, *profile, view->db->metrics(),
                 ++run_mark);
    }
    return view;
}

void
CorpusView::indexRun(FlatIdTable<KernelStat> &kernels,
                     const prof::ProfileDb &run,
                     const prof::MetricRegistry &view_metrics,
                     std::uint32_t run_mark)
{
    const std::vector<int> remap =
        remapInto(view_metrics, run.metrics());

    // Direct child-chain recursion: this walks every node of every
    // selected run on (re)build, so no per-node std::function.
    const auto walk = [&](const auto &self,
                          const prof::CctNode &node) -> void {
        if (node.kind() == dlmon::FrameKind::kKernel) {
            for (const auto &[metric_id, stat] : node.metrics()) {
                if (stat.count() == 0)
                    continue;
                const std::uint64_t key = FlatIdTable<KernelStat>::pack(
                    node.key().name_id,
                    remap[static_cast<std::size_t>(metric_id)]);
                KernelStat &agg = kernels.slot(key);
                agg.total += stat.sum();
                agg.samples += stat.count();
                if (agg.last_run_mark != run_mark) {
                    agg.last_run_mark = run_mark;
                    ++agg.runs;
                }
            }
        }
        for (const prof::CctNode *child = node.firstChild();
             child != nullptr; child = child->nextSibling()) {
            self(self, *child);
        }
    };
    walk(walk, run.cct().root());
}

void
CorpusView::invalidateAll() const
{
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(stripes_.size());
    for (const auto &stripe : stripes_)
        locks.emplace_back(stripe->mutex);
    for (const auto &stripe : stripes_)
        stripe->entries.clear();
    entry_count_.store(0, std::memory_order_relaxed);
}

CorpusView::Stats
CorpusView::stats() const
{
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.incremental = incremental_.load(std::memory_order_relaxed);
    out.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    return out;
}

} // namespace dc::service
