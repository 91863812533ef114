#pragma once

/**
 * @file
 * The multi-corpus warehouse: a registry owning many ProfileStores
 * keyed by corpus id, plus federated queries spanning a set of them.
 *
 * One ProfileStore serves one corpus. Production means many teams x
 * many models x many platforms, so the WarehouseManager:
 *
 *  - **owns the registry.** A corpus id maps to a per-corpus data dir
 *    under Options::root_dir (the filesystem is the durable registry:
 *    a corpus exists iff its directory does, and create/drop commit
 *    with the same fsync discipline as every other durable artifact).
 *    With an empty root_dir the manager is volatile — corpora live
 *    only while open, for tests and ephemeral aggregation.
 *
 *  - **opens lazily, closes cold.** open() replays the corpus's WAL on
 *    first touch; handles are refcounted shared_ptrs, so closing is a
 *    registry removal and the store tears down when its last query
 *    drains — a corpus closed while a cold CorpusView rebuild is in
 *    flight drains cleanly instead of racing destruction. Reopening
 *    (or dropping) waits for the prior incarnation to finish
 *    destructing so two stores can never share one WAL directory.
 *    Beyond Options::max_open (or max_open_interned_bytes), the
 *    least-recently-used open corpus is closed automatically.
 *
 *  - **budgets per corpus.** Every store gets the per-corpus
 *    interned-name/byte budgets from the Options template (the PR 4
 *    accounting, generalized: one tenant's high-cardinality kernel
 *    names cannot starve another's corpus).
 *
 *  - **federates queries.** federatedTopKernels / federatedMerged /
 *    federatedDiff / federatedFlameGraph scatter over each corpus's
 *    cached CorpusView and gather across stores. The per-corpus legs
 *    fan out on the shared executor (common/executor.h) — one slow or
 *    cold corpus no longer serializes the rest — and the gather folds
 *    leg results in deterministic corpus order, so federated answers
 *    are byte-identical to the old serial walk. Per-corpus trees
 *    intern through *different* StringTables, so the gather leg goes
 *    through CctMerger's cross-table NameTranslator path (and the
 *    aggregate gather unifies kernels by name). The calling thread's
 *    ScopedDeadline (common/deadline.h) propagates into every leg via the
 *    TaskGroup: cold rebuilds poll it, legs not yet started are
 *    skipped once it expires, and the gather re-checks it — an
 *    expired deadline abandons the query within a bounded grace
 *    while already-running legs finish and warm their view caches.
 */

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/diff.h"
#include "common/executor.h"
#include "gui/flamegraph.h"
#include "profiler/profile_db.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/query_filter.h"

namespace dc::service {

/**
 * One open corpus: its store and the query engine serving it. The
 * engine is declared after the store so it is destroyed first —
 * destruction order is the single place that invariant lives.
 */
struct Corpus {
    Corpus(std::string corpus_id, ProfileStore::Options store_options,
           QueryEngine::Options engine_options)
        : id(std::move(corpus_id)), store(std::move(store_options)),
          engine(store, engine_options)
    {
    }

    const std::string id;
    ProfileStore store;
    QueryEngine engine;
};

/**
 * Refcounted handle to an open corpus. Holding it keeps the store and
 * engine alive across close()/LRU eviction/drop — in-flight queries
 * drain before teardown. Handles must not outlive the manager (its
 * destructor waits for them to drop).
 */
using CorpusHandle = std::shared_ptr<Corpus>;

/** Manager-level lifecycle counters. */
struct ManagerStats {
    std::uint64_t created = 0;    ///< Corpora created.
    std::uint64_t opened = 0;     ///< Store constructions (WAL replays).
    std::uint64_t closed = 0;     ///< Explicit close() removals.
    std::uint64_t lru_closed = 0; ///< Budget-driven LRU closes.
    std::uint64_t dropped = 0;    ///< Corpora dropped (data deleted).
    std::uint64_t drain_waits = 0; ///< open()/drop() calls that had to
                                   ///< wait for a prior incarnation's
                                   ///< last reader to drain.
    std::uint64_t federated = 0;   ///< Federated queries served.
    std::uint64_t open_corpora = 0; ///< Currently open.
    /// Summed interned-name bytes across open corpora (the global
    /// budget max_open_interned_bytes is enforced against this).
    std::uint64_t open_interned_bytes = 0;
};

/** Registry of ProfileStores keyed by corpus id. Thread-safe. */
class WarehouseManager
{
  public:
    struct Options {
        /// Root of the per-corpus data dirs (root_dir/<corpus id>).
        /// Empty = volatile manager: corpora exist only while open,
        /// and the LRU budget is not enforced (closing would destroy
        /// data, not merely cool it).
        std::string root_dir;
        /// Open-corpus budget before LRU close (0 = unlimited;
        /// durable managers only). The corpus being opened is never
        /// the one evicted.
        std::size_t max_open = 8;
        /// Global budget on summed interned-name bytes across open
        /// corpora (0 = unlimited; durable managers only). Checked at
        /// open: cold LRU corpora are closed until the sum fits.
        std::uint64_t max_open_interned_bytes = 0;
        /// Per-corpus store template. data_dir is ignored (the
        /// manager assigns root_dir/<id>); max_interned_bytes et al.
        /// apply to every corpus individually.
        ProfileStore::Options store;
        /// Per-corpus query-engine (view cache) template.
        QueryEngine::Options engine;
        /// Pool federated legs scatter on; null = Executor::global().
        common::Executor *executor = nullptr;
    };

    WarehouseManager() : WarehouseManager(Options{}) {}
    explicit WarehouseManager(Options options);
    /** Closes every corpus and waits for outstanding handles. */
    ~WarehouseManager();

    WarehouseManager(const WarehouseManager &) = delete;
    WarehouseManager &operator=(const WarehouseManager &) = delete;

    /**
     * Whether @p id is a legal corpus id: nonempty, at most
     * kMaxCorpusIdBytes, chars from [A-Za-z0-9._-], no leading dot.
     * Doubling as the path-safety gate — an id can never traverse out
     * of root_dir or collide with the manager's .drop-* staging names.
     */
    static bool validCorpusId(const std::string &id);
    static constexpr std::size_t kMaxCorpusIdBytes = 128;

    /**
     * Create a new corpus and open it. Fails (null + @p error) when
     * the id is invalid or the corpus already exists. Durable
     * managers persist the creation (dir + parent fsync) before
     * returning.
     */
    CorpusHandle create(const std::string &id,
                        std::string *error = nullptr);

    /**
     * Open (or return the already-open) corpus @p id, replaying its
     * WAL on first touch. Fails when the corpus does not exist. An
     * open that collides with a closing incarnation waits for the old
     * store to drain first — never two stores on one data dir.
     */
    CorpusHandle open(const std::string &id,
                      std::string *error = nullptr);

    /**
     * Remove @p id from the open set. The store tears down once the
     * last outstanding handle drops (queries in flight drain
     * cleanly). @return Whether it was open. Data survives on durable
     * managers; on a volatile manager close discards the corpus.
     */
    bool close(const std::string &id);

    /**
     * Delete corpus @p id: close it, wait for every handle to drain,
     * and (durable) destage its directory — renamed to a .drop-*
     * staging name and fsynced out of the registry first, so a crash
     * mid-delete can never leave a half-deleted corpus that looks
     * live; leftovers are swept at construction. Fails on an unknown
     * corpus.
     */
    bool drop(const std::string &id, std::string *error = nullptr);

    /** Whether @p id is currently open. */
    bool isOpen(const std::string &id) const;

    /**
     * Sorted ids of every corpus: open ones plus (durable) every
     * per-corpus directory under root_dir.
     */
    std::vector<std::string> corpusIds() const;

    /** waitIdle() every open corpus's store. */
    void waitIdle();

    ManagerStats stats() const;

    // ------------------------------------------------------------------
    // Federated queries. Each resolves (lazily opening) every named
    // corpus, scatters the per-corpus leg over its cached CorpusView,
    // and gathers across stores. Duplicate ids are deduplicated; an
    // unknown corpus fails the whole query (error set). The calling
    // thread's ScopedDeadline is honored per leg: expiry abandons the
    // query (null/nullopt, error mentions the deadline).
    // ------------------------------------------------------------------

    /**
     * Top-@p k kernels by summed @p metric across every run matching
     * @p filter in all of @p corpora, unified *by kernel name* across
     * the per-corpus string tables, sorted (total desc, name asc).
     */
    std::optional<std::vector<KernelAggregate>> federatedTopKernels(
        const std::vector<std::string> &corpora, std::size_t k,
        const QueryFilter &filter = {},
        const std::string &metric = prof::metric_names::kGpuTime,
        std::string *error = nullptr);

    /**
     * One merged profile spanning @p corpora: each corpus's cached
     * merged view folded through CctMerger's cross-table translating
     * path. Metadata follows merge semantics (agreeing keys kept), and
     * "merged_runs" lists corpus:<id> provenance entries.
     */
    std::shared_ptr<const prof::ProfileDb>
    federatedMerged(const std::vector<std::string> &corpora,
                    const QueryFilter &filter = {},
                    std::string *error = nullptr);

    /**
     * Diff the merged selection of @p corpora_a against that of
     * @p corpora_b — the paper's AMD-vs-Nvidia / JAX-vs-PyTorch
     * cross-corpus comparison as one request.
     */
    std::optional<analysis::ProfileComparison>
    federatedDiff(const std::vector<std::string> &corpora_a,
                  const std::vector<std::string> &corpora_b,
                  const QueryFilter &filter = {},
                  std::string *error = nullptr);

    /** Flame graph of the federated merged selection. */
    std::shared_ptr<const gui::FlameNode>
    federatedFlameGraph(const std::vector<std::string> &corpora,
                        const QueryFilter &filter = {},
                        const gui::FlameGraphOptions &options = {},
                        std::string *error = nullptr);

    /** Self-contained HTML flame graph of the federated selection. */
    std::string
    federatedFlameHtml(const std::string &title,
                       const std::vector<std::string> &corpora,
                       const QueryFilter &filter = {},
                       const gui::FlameGraphOptions &options = {},
                       std::string *error = nullptr);

  private:
    /// Registry slot for one corpus id. `handle` is non-null while
    /// open; `opening` marks a construction (WAL replay) in flight
    /// outside the lock; `retired` counts published incarnations not
    /// yet destructed (0 or 1) — open/drop wait on it so a data dir
    /// never has two stores.
    struct State {
        CorpusHandle handle;
        std::uint64_t last_used = 0;
        bool opening = false;
        int retired = 0;
    };

    std::string dirFor(const std::string &id) const;
    bool durable() const { return !options_.root_dir.empty(); }
    /// Remove .drop-* staging leftovers under root_dir (constructor).
    void sweepDropStaging();
    /// Shared open/create body; see the public wrappers.
    CorpusHandle openImpl(const std::string &id, bool create,
                          std::string *error);
    /// The handle deleter's registry callback.
    void onCorpusDestroyed(const std::string &id);
    /// Close LRU corpora beyond the budgets; evicted handles are
    /// appended to @p evicted for destruction outside the lock.
    /// Requires mutex_ held; never evicts @p keep.
    void enforceBudgetsLocked(std::vector<CorpusHandle> *evicted,
                              const std::string &keep);
    /// Resolve (lazily opening, deduplicating) every id for a
    /// federated query.
    bool resolveAll(const std::vector<std::string> &corpora,
                    std::vector<CorpusHandle> *out, std::string *error);
    common::Executor &executor() const
    {
        return options_.executor != nullptr
                   ? *options_.executor
                   : common::Executor::global();
    }

    Options options_;
    mutable std::mutex mutex_;
    /// Signals: incarnation destructed (retired drained) or opening
    /// finished.
    mutable std::condition_variable cv_;
    std::map<std::string, State> corpora_;
    std::uint64_t use_counter_ = 0;
    ManagerStats stats_;
};

} // namespace dc::service
