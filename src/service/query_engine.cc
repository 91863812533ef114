#include "service/query_engine.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/trace_span.h"
#include "service/cct_merger.h"

namespace dc::service {

namespace {

/// Query sites sample 1 in 16 spans: the cached paths run in
/// microseconds, so timing every call would eat the overhead budget;
/// the .count counters stay exact regardless.
obs::SpanSite s_topk_span{"query.topk", 4};
obs::SpanSite s_merged_span{"query.merged", 4};
obs::SpanSite s_diff_span{"query.diff", 4};
obs::SpanSite s_flame_span{"query.flame", 4};

} // namespace

std::vector<std::string>
QueryEngine::runIds(const QueryFilter &filter) const
{
    return store_.runIdsMatching(
        [&](const std::string &run_id, const prof::ProfileDb &profile) {
            (void)run_id;
            return filter.matches(profile.metadata());
        });
}

std::vector<KernelAggregate>
QueryEngine::topKernels(std::size_t k, const QueryFilter &filter,
                        const std::string &metric) const
{
    obs::ObsSpan span(s_topk_span, k);
    const std::shared_ptr<const CorpusView::View> view =
        view_.acquire(filter);
    if (view == nullptr) // rebuild abandoned at the caller's deadline
        return {};
    const int metric_id = view->db->metrics().find(metric);
    if (metric_id < 0 || k == 0)
        return {};

    // Bounded k-heap over the view's flat interned-id table: no string
    // keys, no per-query tree walk. `better` orders by (total desc,
    // name asc); the heap keeps the worst kept candidate on top so a
    // corpus of K kernels costs O(K log k).
    struct Candidate {
        double total;
        std::uint64_t samples;
        std::uint32_t runs;
        StringTable::Id name_id;
    };
    // Ids in the view's aggregate table were issued by the store's
    // per-corpus name table; resolve ties and result names through it.
    const StringTable &names = view->db->names();
    const auto better = [&names](const Candidate &a, const Candidate &b) {
        if (a.total != b.total)
            return a.total > b.total;
        return names.str(a.name_id) < names.str(b.name_id);
    };

    std::vector<Candidate> heap;
    heap.reserve(k + 1);
    view->kernels.forEach([&](std::uint64_t key,
                              const CorpusView::KernelStat &stat) {
        if (FlatIdTable<CorpusView::KernelStat>::packedLow(key) !=
            metric_id) {
            return;
        }
        const Candidate candidate{
            stat.total, stat.samples, stat.runs,
            FlatIdTable<CorpusView::KernelStat>::packedId(key)};
        if (heap.size() < k) {
            heap.push_back(candidate);
            std::push_heap(heap.begin(), heap.end(), better);
            return;
        }
        if (better(candidate, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), better);
            heap.back() = candidate;
            std::push_heap(heap.begin(), heap.end(), better);
        }
    });
    // sort_heap with `better`-as-less yields best-first directly.
    std::sort_heap(heap.begin(), heap.end(), better);

    std::vector<KernelAggregate> ranked;
    ranked.reserve(heap.size());
    for (const Candidate &candidate : heap) {
        KernelAggregate agg;
        agg.name = names.str(candidate.name_id);
        agg.total = candidate.total;
        agg.samples = candidate.samples;
        agg.runs = candidate.runs;
        ranked.push_back(std::move(agg));
    }
    return ranked;
}

std::shared_ptr<const prof::ProfileDb>
QueryEngine::merged(const QueryFilter &filter) const
{
    obs::ObsSpan span(s_merged_span);
    const std::shared_ptr<const CorpusView::View> view =
        view_.acquire(filter);
    // Null only when the calling thread's deadline expired mid-build
    // (common/deadline.h); plain callers always get a view.
    return view != nullptr ? view->db : nullptr;
}

std::optional<analysis::ProfileComparison>
QueryEngine::diffRuns(const std::string &run_a,
                      const std::string &run_b) const
{
    obs::ObsSpan span(s_diff_span);
    std::shared_ptr<const prof::ProfileDb> a = store_.get(run_a);
    std::shared_ptr<const prof::ProfileDb> b = store_.get(run_b);
    if (a == nullptr || b == nullptr)
        return std::nullopt;
    return analysis::compareProfiles(*a, *b);
}

std::optional<analysis::ProfileComparison>
QueryEngine::diffAgainstCorpus(const std::string &run_id,
                               const QueryFilter &filter) const
{
    obs::ObsSpan span(s_diff_span);
    std::shared_ptr<const prof::ProfileDb> run = store_.get(run_id);
    if (run == nullptr)
        return std::nullopt;
    const std::shared_ptr<const CorpusView::View> corpus =
        view_.acquire(filter, run_id);
    if (corpus == nullptr) // deadline expired mid-rebuild
        return std::nullopt;
    // An empty corpus would produce a degenerate all-zero comparison
    // indistinguishable from "the rest of the fleet ran in zero time".
    if (corpus->run_ids.empty())
        return std::nullopt;
    return analysis::compareProfiles(*run, *corpus->db);
}

namespace {

/// Cache key for a view's flame cache: every FlameGraphOptions field
/// that affects the rendering.
std::string
flameSignature(const gui::FlameGraphOptions &options)
{
    return strformat("%s|%d|%d|%.17g", options.metric.c_str(),
                     options.include_native ? 1 : 0,
                     options.include_instructions ? 1 : 0,
                     options.min_fraction);
}

} // namespace

std::shared_ptr<const gui::FlameNode>
QueryEngine::flameGraph(const QueryFilter &filter,
                        const gui::FlameGraphOptions &options) const
{
    obs::ObsSpan span(s_flame_span);
    const std::shared_ptr<const CorpusView::View> view =
        view_.acquire(filter);
    if (view == nullptr) // deadline expired mid-rebuild
        return nullptr;
    const std::string key = flameSignature(options);
    // Serialize builders per view: concurrent exporters of the same
    // fresh view build once and share the node tree.
    std::lock_guard<std::mutex> lock(view->flame_mutex);
    auto it = view->flame_cache.find(key);
    if (it != view->flame_cache.end())
        return it->second;
    auto flame = std::make_shared<gui::FlameNode>(
        gui::FlameGraph::topDown(*view->db, options));
    view->flame_cache.emplace(key, flame);
    return flame;
}

std::string
QueryEngine::flameGraphHtml(const std::string &title,
                            const QueryFilter &filter,
                            const gui::FlameGraphOptions &options) const
{
    const std::shared_ptr<const gui::FlameNode> flame =
        flameGraph(filter, options);
    if (flame == nullptr) // deadline expired mid-rebuild
        return {};
    return gui::FlameGraph::toHtml(*flame, title);
}

} // namespace dc::service
