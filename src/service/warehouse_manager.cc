#include "service/warehouse_manager.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include <unistd.h>

#include "common/deadline.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "service/cct_merger.h"

namespace dc::service {

namespace {

constexpr const char *kDropPrefix = ".drop-";

/// Fires at the start of every federated leg, on the pool thread that
/// runs it — delay() specs here stall one leg without touching the
/// others (leg-overlap and stalled-leg tests).
failpoint::Site s_fp_federated_leg{"mgr.federated.leg"};

obs::Counter &
openedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("manager.corpus.opened");
    return counter;
}

obs::Counter &
closedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("manager.corpus.closed");
    return counter;
}

obs::Counter &
lruClosedCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "manager.corpus.lru_closed");
    return counter;
}

obs::Counter &
droppedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("manager.corpus.dropped");
    return counter;
}

obs::Counter &
federatedCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "manager.query.federated");
    return counter;
}

void
setError(std::string *error, std::string message)
{
    if (error != nullptr)
        *error = std::move(message);
}

/// Best-effort recursive removal of a destaged corpus dir. Failure is
/// only a space leak — the .drop-* name is already out of the
/// registry and will be swept again at the next manager construction.
void
deleteTree(const std::string &path, int depth = 0)
{
    if (depth > 8) // a corpus dir is flat; cycles/bombs stop here
        return;
    std::vector<std::string> names;
    if (!listDir(path, &names))
        return;
    for (const std::string &name : names) {
        const std::string child = path + "/" + name;
        if (!removeFile(child)) {
            deleteTree(child, depth + 1);
            ::rmdir(child.c_str());
        }
    }
    ::rmdir(path.c_str());
}

} // namespace

WarehouseManager::WarehouseManager(Options options)
    : options_(std::move(options))
{
    if (durable()) {
        std::string error;
        if (!ensureDir(options_.root_dir, &error)) {
            DC_WARN("warehouse manager root '", options_.root_dir,
                    "' unusable: ", error);
        }
        sweepDropStaging();
    }
}

WarehouseManager::~WarehouseManager()
{
    // Close everything, then wait for outstanding handles to drain —
    // their deleters lock mutex_, so the manager must stay alive until
    // every incarnation has retired.
    std::vector<CorpusHandle> held;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[id, state] : corpora_) {
            if (state.handle != nullptr)
                held.push_back(std::move(state.handle));
        }
    }
    held.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
        return std::all_of(corpora_.begin(), corpora_.end(),
                           [](const auto &entry) {
                               return entry.second.retired == 0 &&
                                      !entry.second.opening;
                           });
    });
}

bool
WarehouseManager::validCorpusId(const std::string &id)
{
    if (id.empty() || id.size() > kMaxCorpusIdBytes || id[0] == '.')
        return false;
    for (const char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
WarehouseManager::dirFor(const std::string &id) const
{
    return options_.root_dir + "/" + id;
}

void
WarehouseManager::sweepDropStaging()
{
    std::vector<std::string> names;
    if (!listDir(options_.root_dir, &names))
        return;
    for (const std::string &name : names) {
        if (name.rfind(kDropPrefix, 0) == 0)
            deleteTree(options_.root_dir + "/" + name);
    }
}

CorpusHandle
WarehouseManager::create(const std::string &id, std::string *error)
{
    return openImpl(id, /*create=*/true, error);
}

CorpusHandle
WarehouseManager::open(const std::string &id, std::string *error)
{
    return openImpl(id, /*create=*/false, error);
}

CorpusHandle
WarehouseManager::openImpl(const std::string &id, bool create,
                           std::string *error)
{
    if (!validCorpusId(id)) {
        setError(error, strformat("invalid corpus id '%s'", id.c_str()));
        return nullptr;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        State &state = corpora_[id];
        if (state.handle != nullptr) {
            if (create) {
                setError(error, strformat("corpus '%s' already exists",
                                          id.c_str()));
                return nullptr;
            }
            state.last_used = ++use_counter_;
            return state.handle;
        }
        if (state.opening || state.retired > 0) {
            // A concurrent open is constructing, or a prior
            // incarnation's last reader has not drained yet — its
            // store may still hold the WAL dir. Wait; never two
            // stores on one data dir.
            if (state.retired > 0)
                ++stats_.drain_waits;
            cv_.wait(lock);
            continue;
        }
        // Closed and fully drained: this thread owns the transition.
        const bool exists = durable() && pathExists(dirFor(id));
        if (create && exists) {
            setError(error,
                     strformat("corpus '%s' already exists", id.c_str()));
            return nullptr;
        }
        if (!create && !exists) {
            setError(error,
                     durable()
                         ? strformat("unknown corpus '%s'", id.c_str())
                         : strformat("unknown corpus '%s' (volatile "
                                     "manager: create() it first)",
                                     id.c_str()));
            if (state.last_used == 0) // never opened: drop the slot
                corpora_.erase(id);
            return nullptr;
        }
        state.opening = true;
        break;
    }
    lock.unlock();

    // Construction — mkdir for a create, WAL replay for a reopen —
    // runs outside the lock so other corpora stay serviceable.
    std::string fail;
    if (create && durable()) {
        if (!ensureDir(dirFor(id), &fail) ||
            !syncDir(options_.root_dir, &fail)) {
            fail = strformat("creating corpus '%s': %s", id.c_str(),
                             fail.c_str());
        }
    }
    CorpusHandle handle;
    if (fail.empty()) {
        ProfileStore::Options store_options = options_.store;
        store_options.data_dir = durable() ? dirFor(id) : std::string();
        Corpus *corpus =
            new Corpus(id, std::move(store_options), options_.engine);
        handle = CorpusHandle(corpus, [this, id](Corpus *p) {
            delete p;
            onCorpusDestroyed(id);
        });
    }

    std::vector<CorpusHandle> evicted;
    lock.lock();
    State &state = corpora_[id];
    state.opening = false;
    if (handle == nullptr) {
        if (state.last_used == 0)
            corpora_.erase(id);
        cv_.notify_all();
        lock.unlock();
        setError(error, std::move(fail));
        return nullptr;
    }
    state.handle = handle;
    state.retired = 1;
    state.last_used = ++use_counter_;
    ++stats_.opened;
    openedCounter().add();
    if (create) {
        ++stats_.created;
    }
    enforceBudgetsLocked(&evicted, id);
    cv_.notify_all();
    lock.unlock();
    evicted.clear(); // handle deleters re-lock mutex_; never inline
    return handle;
}

void
WarehouseManager::onCorpusDestroyed(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = corpora_.find(id);
    if (it != corpora_.end() && it->second.retired > 0)
        --it->second.retired;
    cv_.notify_all();
}

void
WarehouseManager::enforceBudgetsLocked(std::vector<CorpusHandle> *evicted,
                                       const std::string &keep)
{
    if (!durable()) // closing a volatile corpus destroys it; never lazily
        return;
    const auto openCount = [this] {
        std::size_t n = 0;
        for (const auto &[id, state] : corpora_)
            n += state.handle != nullptr ? 1 : 0;
        return n;
    };
    const auto internedSum = [this] {
        std::uint64_t sum = 0;
        for (const auto &[id, state] : corpora_) {
            if (state.handle != nullptr)
                sum += state.handle->store.stats().interned_bytes;
        }
        return sum;
    };
    for (;;) {
        const bool over_count =
            options_.max_open > 0 && openCount() > options_.max_open;
        const bool over_bytes = options_.max_open_interned_bytes > 0 &&
                                internedSum() >
                                    options_.max_open_interned_bytes;
        if (!over_count && !over_bytes)
            return;
        State *coldest = nullptr;
        for (auto &[id, state] : corpora_) {
            if (state.handle == nullptr || id == keep)
                continue;
            if (coldest == nullptr ||
                state.last_used < coldest->last_used) {
                coldest = &state;
            }
        }
        if (coldest == nullptr) // only `keep` is open; budget must yield
            return;
        evicted->push_back(std::move(coldest->handle));
        coldest->handle = nullptr;
        ++stats_.lru_closed;
        lruClosedCounter().add();
    }
}

bool
WarehouseManager::close(const std::string &id)
{
    CorpusHandle handle;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = corpora_.find(id);
        if (it == corpora_.end() || it->second.handle == nullptr)
            return false;
        handle = std::move(it->second.handle);
        it->second.handle = nullptr;
        ++stats_.closed;
    }
    closedCounter().add();
    handle.reset(); // teardown now unless queries still hold it
    return true;
}

bool
WarehouseManager::drop(const std::string &id, std::string *error)
{
    if (!validCorpusId(id)) {
        setError(error, strformat("invalid corpus id '%s'", id.c_str()));
        return false;
    }
    CorpusHandle handle;
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = corpora_.find(id);
    const bool was_open = it != corpora_.end() &&
                          (it->second.handle != nullptr ||
                           it->second.opening || it->second.retired > 0);
    if (!was_open && !(durable() && pathExists(dirFor(id)))) {
        setError(error, strformat("unknown corpus '%s'", id.c_str()));
        return false;
    }
    if (it != corpora_.end() && it->second.handle != nullptr) {
        handle = std::move(it->second.handle);
        it->second.handle = nullptr;
    }
    lock.unlock();
    handle.reset(); // outside the lock: the deleter re-locks mutex_
    lock.lock();
    // Wait out any concurrent open and the incarnation's last reader:
    // the store must be gone before its directory is destaged.
    cv_.wait(lock, [&] {
        auto entry = corpora_.find(id);
        if (entry == corpora_.end())
            return true;
        if (entry->second.handle != nullptr) // re-opened concurrently
            return true;
        return !entry->second.opening && entry->second.retired == 0;
    });
    it = corpora_.find(id);
    if (it != corpora_.end() && it->second.handle != nullptr) {
        setError(error, strformat("corpus '%s' re-opened during drop",
                                  id.c_str()));
        return false;
    }
    if (it != corpora_.end())
        corpora_.erase(it);

    std::string staged;
    if (durable()) {
        // Destage under the lock (cheap rename) so a concurrent
        // open() cannot resurrect the dir mid-drop; the (slow)
        // recursive delete runs outside.
        const std::string dir = dirFor(id);
        staged = options_.root_dir + "/" + kDropPrefix + id;
        if (pathExists(staged))
            deleteTree(staged); // leftover from a crashed drop
        if (::rename(dir.c_str(), staged.c_str()) != 0) {
            setError(error, strformat("drop '%s': rename failed",
                                      id.c_str()));
            return false;
        }
        std::string sync_error;
        if (!syncDir(options_.root_dir, &sync_error)) {
            DC_WARN("drop '", id,
                    "': root fsync failed: ", sync_error);
        }
    }
    ++stats_.dropped;
    droppedCounter().add();
    cv_.notify_all();
    lock.unlock();
    if (!staged.empty())
        deleteTree(staged);
    return true;
}

bool
WarehouseManager::isOpen(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = corpora_.find(id);
    return it != corpora_.end() && it->second.handle != nullptr;
}

std::vector<std::string>
WarehouseManager::corpusIds() const
{
    std::set<std::string> ids;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, state] : corpora_) {
            if (state.handle != nullptr)
                ids.insert(id);
        }
    }
    if (durable()) {
        std::vector<std::string> names;
        if (listDir(options_.root_dir, &names)) {
            for (const std::string &name : names) {
                if (validCorpusId(name))
                    ids.insert(name);
            }
        }
    }
    return {ids.begin(), ids.end()};
}

void
WarehouseManager::waitIdle()
{
    std::vector<CorpusHandle> handles;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, state] : corpora_) {
            if (state.handle != nullptr)
                handles.push_back(state.handle);
        }
    }
    for (const CorpusHandle &handle : handles)
        handle->store.waitIdle();
}

ManagerStats
WarehouseManager::stats() const
{
    ManagerStats out;
    std::vector<CorpusHandle> handles;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = stats_;
        for (const auto &[id, state] : corpora_) {
            if (state.handle != nullptr) {
                ++out.open_corpora;
                handles.push_back(state.handle);
            }
        }
    }
    for (const CorpusHandle &handle : handles)
        out.open_interned_bytes += handle->store.stats().interned_bytes;
    return out;
}

bool
WarehouseManager::resolveAll(const std::vector<std::string> &corpora,
                             std::vector<CorpusHandle> *out,
                             std::string *error)
{
    if (corpora.empty()) {
        setError(error, "federated query names no corpora");
        return false;
    }
    std::set<std::string> seen;
    for (const std::string &id : corpora) {
        if (!seen.insert(id).second)
            continue; // a duplicated leg would double-count its runs
        CorpusHandle handle = open(id, error);
        if (handle == nullptr)
            return false;
        out->push_back(std::move(handle));
    }
    return true;
}

std::optional<std::vector<KernelAggregate>>
WarehouseManager::federatedTopKernels(
    const std::vector<std::string> &corpora, std::size_t k,
    const QueryFilter &filter, const std::string &metric,
    std::string *error)
{
    std::vector<CorpusHandle> handles;
    if (!resolveAll(corpora, &handles, error))
        return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.federated;
    }
    federatedCounter().add();

    // Scatter: each leg walks its own corpus's view on the pool and
    // aggregates by *name* into a private map — each corpus's view
    // keys kernels by its own table's interned ids, which do not
    // unify across stores, so the string is the only cross-corpus
    // identity. Legs skipped at an expired deadline set expired; the
    // gather also re-checks the group for bodies skipped wholesale.
    struct Leg {
        std::map<std::string, KernelAggregate> by_name;
        bool expired = false;
    };
    std::vector<Leg> legs(handles.size());
    common::TaskGroup group(executor());
    for (std::size_t i = 0; i < handles.size(); ++i) {
        group.submit([&, i] {
            s_fp_federated_leg.eval();
            const CorpusHandle &handle = handles[i];
            const std::shared_ptr<const CorpusView::View> view =
                handle->engine.corpusView().acquire(filter);
            if (view == nullptr) { // rebuild abandoned at the deadline
                legs[i].expired = true;
                return;
            }
            const int metric_id = view->db->metrics().find(metric);
            if (metric_id < 0)
                return; // corpus never recorded this metric
            const StringTable &names = view->db->names();
            view->kernels.forEach(
                [&](std::uint64_t key,
                    const CorpusView::KernelStat &stat) {
                    if (FlatIdTable<CorpusView::KernelStat>::packedLow(
                            key) != metric_id) {
                        return;
                    }
                    const StringTable::Id name_id =
                        FlatIdTable<CorpusView::KernelStat>::packedId(
                            key);
                    KernelAggregate &agg =
                        legs[i].by_name[std::string(names.str(name_id))];
                    agg.total += stat.total;
                    agg.samples += stat.samples;
                    agg.runs += stat.runs;
                });
        });
    }
    group.wait();

    // Gather in handle order: the first failed leg names its corpus;
    // a deadline that expired mid-scatter (legs skipped, or it ran
    // out while a stalled leg finished) abandons the whole query.
    std::map<std::string, KernelAggregate> by_name;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        if (legs[i].expired) {
            setError(error,
                     strformat("deadline expired building corpus '%s'",
                               handles[i]->id.c_str()));
            return std::nullopt;
        }
    }
    if (group.cancelled() || common::deadlineExpired()) {
        setError(error, "deadline expired mid-federation");
        return std::nullopt;
    }
    for (Leg &leg : legs) {
        for (auto &[name, partial] : leg.by_name) {
            KernelAggregate &agg = by_name[name];
            agg.total += partial.total;
            agg.samples += partial.samples;
            agg.runs += partial.runs;
        }
    }

    std::vector<KernelAggregate> ranked;
    ranked.reserve(by_name.size());
    for (auto &[name, agg] : by_name) {
        agg.name = name;
        ranked.push_back(std::move(agg));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const KernelAggregate &a, const KernelAggregate &b) {
                  if (a.total != b.total)
                      return a.total > b.total;
                  return a.name < b.name;
              });
    if (ranked.size() > k)
        ranked.resize(k);
    return ranked;
}

std::shared_ptr<const prof::ProfileDb>
WarehouseManager::federatedMerged(const std::vector<std::string> &corpora,
                                  const QueryFilter &filter,
                                  std::string *error)
{
    std::vector<CorpusHandle> handles;
    if (!resolveAll(corpora, &handles, error))
        return nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.federated;
    }
    federatedCounter().add();

    // Scatter: every corpus materializes its merged view on the pool.
    struct Leg {
        std::shared_ptr<const prof::ProfileDb> db;
        bool empty = false;
        bool expired = false;
    };
    std::vector<Leg> legs(handles.size());
    common::TaskGroup group(executor());
    for (std::size_t i = 0; i < handles.size(); ++i) {
        group.submit([&, i] {
            s_fp_federated_leg.eval();
            const CorpusHandle &handle = handles[i];
            // A corpus with no matching runs contributes nothing;
            // folding its empty merged view in anyway would wipe the
            // metadata agreement (empty metadata intersects
            // everything away).
            if (handle->engine.runIds(filter).empty()) {
                legs[i].empty = true;
                return;
            }
            legs[i].db = handle->engine.merged(filter);
            if (legs[i].db == nullptr) // abandoned at the deadline
                legs[i].expired = true;
        });
    }
    group.wait();

    // Gather in handle order, so the merged result is byte-identical
    // to the old serial walk regardless of leg completion order.
    CctMerger merger;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        if (legs[i].expired) {
            setError(error,
                     strformat("deadline expired merging corpus '%s'",
                               handles[i]->id.c_str()));
            return nullptr;
        }
    }
    if (group.cancelled() || common::deadlineExpired()) {
        setError(error, "deadline expired mid-federation");
        return nullptr;
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        if (legs[i].empty)
            continue;
        // Per-corpus trees intern through different StringTables; the
        // merger adopts the first leg's table and every later leg
        // takes Cct::mergeFrom's NameTranslator path. Store-held
        // profiles were validated at ingestion and the views merged
        // them unchanged, so the legs stay prevalidated.
        merger.addPrevalidated(*legs[i].db, "corpus:" + handles[i]->id);
    }
    return merger.finish();
}

std::optional<analysis::ProfileComparison>
WarehouseManager::federatedDiff(const std::vector<std::string> &corpora_a,
                                const std::vector<std::string> &corpora_b,
                                const QueryFilter &filter,
                                std::string *error)
{
    const std::shared_ptr<const prof::ProfileDb> a =
        federatedMerged(corpora_a, filter, error);
    if (a == nullptr)
        return std::nullopt;
    const std::shared_ptr<const prof::ProfileDb> b =
        federatedMerged(corpora_b, filter, error);
    if (b == nullptr)
        return std::nullopt;
    return analysis::compareProfiles(*a, *b);
}

std::shared_ptr<const gui::FlameNode>
WarehouseManager::federatedFlameGraph(
    const std::vector<std::string> &corpora, const QueryFilter &filter,
    const gui::FlameGraphOptions &options, std::string *error)
{
    const std::shared_ptr<const prof::ProfileDb> merged =
        federatedMerged(corpora, filter, error);
    if (merged == nullptr)
        return nullptr;
    return std::make_shared<gui::FlameNode>(
        gui::FlameGraph::topDown(*merged, options));
}

std::string
WarehouseManager::federatedFlameHtml(const std::string &title,
                                     const std::vector<std::string> &corpora,
                                     const QueryFilter &filter,
                                     const gui::FlameGraphOptions &options,
                                     std::string *error)
{
    const std::shared_ptr<const gui::FlameNode> flame =
        federatedFlameGraph(corpora, filter, options, error);
    if (flame == nullptr)
        return {};
    return gui::FlameGraph::toHtml(*flame, title);
}

} // namespace dc::service
