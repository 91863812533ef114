#pragma once

/**
 * @file
 * The profile warehouse's storage tier: a sharded in-memory store of
 * finished profiles keyed by run id, fed by an ingestion queue drained
 * on the shared executor (common/executor.h).
 *
 * Profiles arrive three ways: an in-process handoff of a ProfileDb (the
 * path a resident Profiler uses), serialized text, or a file path read
 * via ProfileDb::tryLoad (never the panicking load() — one corrupt file
 * must not abort the service). Parsing happens on pool drain tasks, off
 * the caller's thread, so a frontend can enqueue a fleet of runs and
 * overlap the (CPU-bound) deserialization across cores: an enqueue
 * schedules a drainer (up to Options::workers concurrent ones), each
 * drainer processes tasks until the queue is empty and exits — the
 * store holds no idle ingestion threads of its own, and ingestion
 * shares cores with query rebuilds under one process-wide pool. The
 * drains form one TaskGroup per store, so waitIdle() and the
 * destructor help run this store's queued drains instead of sleeping
 * on them — safe to call from a pool thread. Shards keep lock
 * contention flat as the corpus and the reader count grow; readers
 * receive shared_ptr snapshots so queries never block ingestion of
 * other runs.
 *
 * An asynchronous caller (the wire server) ingests with a per-run
 * completion (IngestDone) instead of waiting for the whole store: it
 * reports this run's own outcome — rejected, stored but not durable,
 * or stored — from the drain task that processed it.
 *
 * Malformed files are counted and recorded (run id + error) rather than
 * panicking the process — warehouse input is untrusted.
 *
 * With Options::data_dir set the store is durable: accepted runs are
 * appended to a checksummed segment log (warehouse_log.h), erases
 * append tombstones, and construction replays the log — rebinding
 * recovered profiles onto the per-corpus StringTable and restoring the
 * budget accounting — so CorpusView/QueryEngine serve a recovered
 * corpus unchanged after a restart or crash. Appends group-commit:
 * each operation writes its record, releases the log turn, and then
 * waits on its commit sequence, so one leader fsync retires every
 * record queued while the previous fsync was in flight. Snapshot
 * checkpoints (checkpoint(), auto-triggered by
 * Options::log_checkpoint_bytes) retire the log's history so recovery
 * replays O(corpus) records, and a store degraded to memory-only by a
 * transient disk error re-attaches in the background — re-appending
 * the affected runs — instead of staying silently non-durable.
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/string_table.h"
#include "profiler/profile_db.h"
#include "service/warehouse_log.h"

namespace dc::service {

/** Ingestion counters (queried after waitIdle() for exact totals). */
struct StoreStats {
    std::uint64_t enqueued = 0;  ///< Ingestion requests accepted.
    std::uint64_t ingested = 0;  ///< Profiles stored successfully
                                 ///< this lifetime (excludes runs
                                 ///< recovered from the log).
    std::uint64_t failed = 0;    ///< Rejected (parse error, bad file,
                                 ///< duplicate run id, interned-name
                                 ///< budget).
    /// Runs restored by log replay at construction.
    std::uint64_t recovered = 0;
    /// Run/tombstone records durably appended to the log.
    std::uint64_t log_appends = 0;
    /// Appends that failed (disk full, unwritable dir). A failed
    /// ingest append keeps the run served from memory (it just is
    /// not durable); a failed erase tombstone makes the erase()
    /// itself fail so the corpus and the log never disagree. The
    /// error is warned and the last one kept in logError().
    std::uint64_t log_append_failures = 0;
    /// Log compactions that folded dead records away.
    std::uint64_t log_compactions = 0;
    /// Record fsyncs the log completed (0 with log_sync off or no
    /// log). With appends > 0 and fsyncs == 0 the corpus is only
    /// process-crash-safe, not power-failure-safe. Group commit makes
    /// this grow sublinearly in log_appends under concurrent ingest.
    std::uint64_t log_fsyncs = 0;
    /// Snapshot checkpoints committed (checkpoint() calls plus the
    /// automatic ones Options::log_checkpoint_bytes triggers).
    std::uint64_t log_checkpoints = 0;
    /// Healthy -> degraded transitions: an append/fsync/checkpoint
    /// failure made the store memory-only until re-attach.
    std::uint64_t log_degraded = 0;
    /// Successful re-attaches: every unlogged run re-appended durably
    /// and the log error cleared (see tryReattachNow()).
    std::uint64_t log_reattached = 0;
    /// Runs currently served from memory whose log record is not
    /// known durable (their append or group-commit fsync failed).
    /// The re-attach path drains this back to 0.
    std::uint64_t log_unlogged_runs = 0;
    /// Nanoseconds since the most recent append failure, or 0 when no
    /// append has ever failed. A small value means the store is
    /// actively degraded to memory-only; a large one records a past
    /// incident that has not recurred.
    std::uint64_t log_last_error_age_ns = 0;
    // Re-attach supervisor state — enough for a remote stats endpoint
    // to tell a healthy store from one mid-backoff:
    /// Nanoseconds the store has been in its *current* degraded
    /// episode (0 = not degraded; clamped >= 1 while degraded).
    std::uint64_t log_degraded_since_ns = 0;
    /// Lifetime re-attach attempts that found unlogged runs to
    /// re-append (successful or not; includes tryReattachNow()).
    std::uint64_t log_reattach_attempts = 0;
    /// The supervisor's current backoff wait (ms); 0 when it is not
    /// backing off (healthy, or first attempt still pending).
    std::uint64_t log_reattach_backoff_ms = 0;
    /// Nanoseconds until the next scheduled background retry (clamped
    /// >= 1 when overdue); 0 when none is scheduled.
    std::uint64_t log_reattach_next_retry_ns = 0;
    /// Name-text growth of the store's own StringTable caused by this
    /// store's ingestion (parses and handoff rebinds). Exact: each
    /// worker meters the entries *it* creates inside the owning table
    /// (StringTable::GrowthMeter), so concurrent parses can never
    /// observe — and double-charge — each other's growth.
    std::uint64_t interned_bytes = 0;
    /// Total name text reclaimed by compactNames().
    std::uint64_t reclaimed_bytes = 0;
    /// compactNames() calls (including no-op ones).
    std::uint64_t compactions = 0;
};

/** One ingest's own outcome, as its IngestDone reports it. */
enum class IngestOutcome {
    /// Stored and visible to queries; on a store with a run log, its
    /// record's group-commit sync succeeded (durable).
    kStored,
    /// Stored and served from memory, but its own log append or sync
    /// failed — a restart may lose it until re-attach re-appends it.
    kNotDurable,
    /// Not stored: parse error, duplicate run id, interned-name budget,
    /// or the store shutting down.
    kRejected,
};

/**
 * Per-run ingest completion: fires exactly once with the run's outcome
 * and, unless kStored, the reason. It runs on whichever thread settled
 * the run and must not call back into that store's ingest or
 * waitIdle().
 */
using IngestDone =
    std::function<void(IngestOutcome outcome, std::string error)>;

/**
 * Sharded, concurrently-ingesting profile store.
 *
 * Destruction: ingest calls already in flight (including producers
 * blocked on backpressure) complete safely — rejected and recorded —
 * before teardown. Starting a new call on a store being destroyed is
 * undefined behavior, as for any C++ object.
 */
class ProfileStore
{
  public:
    struct Options {
        /// Concurrent executor drain tasks processing the ingestion
        /// queue; 0 = one per thread of the executor the drains run
        /// on (Options::executor, or the global pool).
        std::size_t workers = 0;
        /// Pool the drain tasks run on; null = Executor::global().
        common::Executor *executor = nullptr;
        /// Shard count for the run-id keyed map.
        std::size_t shards = 16;
        /// Backpressure: enqueueing blocks while this many tasks are
        /// pending, so a frontend outrunning the parsers cannot pile
        /// the whole corpus's serialized text into memory.
        std::size_t max_queue = 1024;
        /// Backpressure high-water mark on queued payload bytes
        /// (serialized text), since a task count alone would still let
        /// 1024 large texts sit in memory at once.
        std::uint64_t max_queue_bytes = 256ull << 20;
        /// Budget on the store's name-table text (0 = unlimited). A
        /// fleet of runs with high-cardinality generated kernel names
        /// (JIT- or shape-specialized) grows the table without bound;
        /// once names() holds more than this many bytes, further
        /// growth-causing profiles are rejected (recorded as failures)
        /// while profiles made of already-known names keep ingesting.
        /// The decision reads the owning table's exact accounting, so
        /// a profile whose growth lands the table exactly on the
        /// budget still fits, and compactNames() frees budget back.
        std::uint64_t max_interned_bytes = 1ull << 30;
        /// Name table the store's profiles intern into; null = the
        /// store creates a private table (the normal case: exact
        /// accounting and reclamation per corpus). Sharing one table
        /// across stores makes their trees id-compatible, but then
        /// compactNames() callers must quiesce every sharer's
        /// ingestion themselves.
        std::shared_ptr<StringTable> names;
        /// Directory for the store's durable run log; empty = a
        /// volatile in-memory store (the default). When set, every
        /// successful ingest appends the run's serialized text to a
        /// checksummed segment log, erases append tombstones, and
        /// construction replays the log — so the corpus survives a
        /// service restart, tolerating a torn final record from a
        /// crash. An unopenable or unwritable directory degrades the
        /// store to memory-only with a warning (see logHealthy()),
        /// never an abort.
        std::string data_dir;
        /// Segment rollover threshold for the run log.
        std::uint64_t log_segment_bytes = 64ull << 20;
        /// fsync each log append (durable against host failure, not
        /// just process crash).
        bool log_sync = true;
        /// Auto-compaction floor: the log folds dead records (erase
        /// tombstones, superseded appends, corrupt skips) away once
        /// they exceed this many bytes and outweigh the live ones.
        std::uint64_t log_compact_min_dead_bytes = 8ull << 20;
        /// Snapshot-checkpoint trigger: once the log's replay tail
        /// (segment bytes past the newest checkpoint) exceeds this,
        /// the store writes a fresh checkpoint so recovery stays
        /// O(corpus) no matter how much append/erase churn the log
        /// has absorbed. 0 disables the trigger (checkpoint() still
        /// works on demand).
        std::uint64_t log_checkpoint_bytes = 256ull << 20;
        /// Re-attach backoff bounds: a store degraded by a transient
        /// append/fsync failure retries in the background, doubling
        /// the wait from min to max between attempts, and rejoins
        /// durable mode on success.
        std::uint64_t log_reattach_min_backoff_ms = 100;
        std::uint64_t log_reattach_max_backoff_ms = 10'000;
    };

    /** What log replay recovered at construction. */
    struct RecoveryStats {
        bool attempted = false; ///< data_dir was set and the log opened.
        std::uint64_t runs = 0; ///< Runs restored into the corpus.
        std::uint64_t tombstones = 0;    ///< Erase records applied.
        std::uint64_t rejected = 0;      ///< Replayed records whose
                                         ///< profile no longer parses
                                         ///< or fits the budget.
        std::uint64_t corrupt_records = 0; ///< Checksum/framing skips.
        /// Runs streamed from the snapshot checkpoint (the rest came
        /// from the segment tail past its cut).
        std::uint64_t checkpoint_records = 0;
        bool torn_tail = false; ///< Final record was torn (dropped).
    };

    /**
     * Monotonic corpus version. `ingested` is a publication low-water
     * mark: every profile published with sequence <= ingested is
     * visible to snapshotRange(); later publications may still be in
     * flight. `erased` counts erase() calls that removed a run.
     * `compacted` counts compactNames() passes that reclaimed text —
     * cached views are invalidated across a compaction so stale views
     * (whose trees pin reclaimable names) get dropped and rebuilt.
     * Readers (the corpus-view cache) compare digests to detect
     * "corpus unchanged since last query" without snapshotting, and
     * use `ingested` deltas to fetch only newly-published runs.
     */
    struct Generation {
        std::uint64_t ingested = 0;
        std::uint64_t erased = 0;
        std::uint64_t compacted = 0;
        bool operator==(const Generation &) const = default;
    };

    ProfileStore() : ProfileStore(Options{}) {}
    explicit ProfileStore(Options options);
    ~ProfileStore();

    ProfileStore(const ProfileStore &) = delete;
    ProfileStore &operator=(const ProfileStore &) = delete;

    /** Queue an in-process profile handoff. */
    void ingest(std::string run_id,
                std::unique_ptr<prof::ProfileDb> profile);

    /** Queue serialized profile text; parsed on a worker. */
    void ingestText(std::string run_id, std::string text);

    /**
     * Non-blocking ingestText() with a per-run completion. A full
     * queue (max_queue or max_queue_bytes) returns false at once and
     * @p done is not called. Otherwise @p done (when set) fires exactly
     * once: inline when a shutting-down store rejects the run, else on
     * the drain task that settled it — after the run is visible
     * through generation() and snapshotRange(), and on a store with a
     * log after its own commit is synced.
     */
    bool ingestText(std::string run_id, std::string text, IngestDone done);

    /** Queue a profile file; read and parsed on a worker. */
    void ingestFile(std::string run_id, std::string path);

    /**
     * Block until every queued ingestion — including in-flight ingest
     * calls blocked on backpressure — has been processed. Helps run
     * this store's queued drains while waiting.
     */
    void waitIdle();

    /** Snapshot of a stored profile; nullptr when absent. */
    std::shared_ptr<const prof::ProfileDb>
    get(const std::string &run_id) const;

    /**
     * Remove a run. @return Whether it was removed. On a durable
     * store the erase tombstone is appended first and the run is
     * removed only when that append succeeds — an erase the log
     * cannot record returns false (and counts a log_append_failure)
     * rather than serving a deletion that would silently resurrect
     * at the next restart.
     */
    bool erase(const std::string &run_id);

    /**
     * The store's name table: every stored profile's tree interns
     * through it, so their FrameKeys unify by direct id equality.
     */
    const std::shared_ptr<StringTable> &names() const { return table_; }

    /**
     * Shared guard every code path that interns into names() must hold
     * (the parse workers and view builders do); compactNames()
     * excludes holders while it reclaims. Reads (str of live ids,
     * retain/release) need no guard.
     */
    std::shared_lock<std::shared_mutex> internGuard() const
    {
        return std::shared_lock<std::shared_mutex>(table_mutex_);
    }

    /**
     * Reclaim name text no live tree references any more — the text of
     * runs that were erased (and whose reader snapshots have been
     * dropped), of rejected parses, and of evicted views. Quiesces the
     * store's own interning (parse workers and guarded view builds)
     * for the duration, bumps the generation's compaction epoch, and
     * returns the bytes freed back to the interned-name budget.
     *
     * Cached corpus views pin the names their merged trees resolve, so
     * text they cover is reclaimed only after they are dropped: either
     * explicitly (CorpusView::invalidateAll) before compacting, or by
     * re-acquiring after this call — the epoch bump forces that
     * acquire to rebuild, so compact → query → compact always
     * converges.
     */
    std::uint64_t compactNames();

    /**
     * Fold dead records out of the run log now (no-op without a log or
     * dead bytes). compactNames() triggers this too, and erases/appends
     * trigger it automatically past Options::log_compact_min_dead_bytes.
     * @return Log bytes folded away.
     */
    std::uint64_t compactLog();

    /**
     * Write a snapshot checkpoint of the whole corpus now: cut the
     * log (holding ingest/erase off just for the cut + shard
     * snapshot), serialize every stored run into checkpoint frames,
     * and commit them atomically — retiring the segments before the
     * cut so replay is O(corpus), not O(history). Failure leaves the
     * old checkpoint + segments fully authoritative and marks the
     * store degraded (logHealthy()). Options::log_checkpoint_bytes
     * triggers this automatically as the post-checkpoint tail grows.
     */
    bool checkpoint(std::string *error = nullptr);

    /**
     * One synchronous re-attach attempt: re-append every unlogged run
     * (rejected or torn by a past append/fsync failure) and clear the
     * log error once the log takes them all durably again. The
     * background re-attach thread does the same with capped
     * exponential backoff after every degradation; this entry point
     * lets tests and operators force the attempt.
     * @return Whether the store is fully durable (logHealthy()) now.
     */
    bool tryReattachNow();

    /**
     * Whether the run log is open, drained (no unlogged runs), and
     * the last append/checkpoint succeeded.
     */
    bool logHealthy() const;

    /** Last log/recovery error ("" when healthy). */
    std::string logError() const;

    /** What log replay recovered at construction. */
    RecoveryStats recovery() const;

    /** The run log (null for an in-memory store) — diagnostics/tests. */
    const WarehouseLog *log() const { return log_.get(); }

    /** Sorted ids of all stored runs. */
    std::vector<std::string> runIds() const;

    /**
     * Sorted ids of runs whose (id, profile) satisfy @p pred — the
     * lightweight id-listing path. @p pred runs under the shard lock
     * against the stored profile (immutable), so listing ids never
     * copies a shared_ptr per run just to drop it; keep predicates
     * cheap (metadata checks).
     */
    std::vector<std::string> runIdsMatching(
        const std::function<bool(const std::string &,
                                 const prof::ProfileDb &)> &pred) const;

    /** Current corpus version digest (cheap; no snapshotting). */
    Generation generation() const;

    /**
     * Snapshot of runs published with sequence in (@p after, @p upto],
     * sorted by run id. With `after = 0` and `upto =
     * generation().ingested` this is a stable full-corpus cut; the
     * corpus-view cache passes its previous generation as @p after to
     * fetch only runs ingested since. Publications beyond @p upto (or
     * still in flight) are excluded and picked up by a later range.
     */
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>
    snapshotRange(std::uint64_t after, std::uint64_t upto) const;

    /**
     * Consistent-per-shard snapshot of the whole store, sorted by run
     * id. One lock acquisition per shard — the read path queries use
     * instead of a get() per run.
     */
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>
    snapshot() const;

    /** Number of stored runs. */
    std::size_t size() const;

    StoreStats stats() const;

    /// Retained failure records; older entries are dropped beyond this
    /// (stats().failed still counts every rejection).
    static constexpr std::size_t kMaxRecordedFailures = 256;

    /**
     * Most recent ingestion failures (up to kMaxRecordedFailures), as
     * (run id, error message).
     */
    std::vector<std::pair<std::string, std::string>> failures() const;

  private:
    /// One queued ingestion request; exactly one payload is active,
    /// selected by `kind`.
    struct Task {
        enum class Kind { kProfile, kText, kFile } kind;
        std::string run_id;
        std::unique_ptr<prof::ProfileDb> profile;
        std::string payload; ///< Serialized text or file path.
        /// Memory the queued task pins (text size, or the handed-off
        /// profile's tree estimate) — charged against max_queue_bytes.
        std::uint64_t bytes = 0;
        IngestDone done; ///< May be null.
    };

    /// One stored run plus the publication sequence it became visible
    /// at (for generation()-based incremental reads).
    struct Stored {
        std::shared_ptr<const prof::ProfileDb> profile;
        std::uint64_t seq = 0;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::map<std::string, Stored> profiles;
    };

    Shard &shardFor(const std::string &run_id);
    const Shard &shardFor(const std::string &run_id) const;

    /// Queue @p task. With @p block false a full queue returns false
    /// instead of waiting for room (the task is dropped, unreported).
    bool enqueue(Task task, bool block);
    /// One pooled drain task: process queued ingestions until the
    /// queue is empty, then retire (enqueue() schedules replacements).
    void drainQueue();
    void process(Task &task);
    /// Record @p task's failure and report it to its completion.
    void reject(Task &task, std::string error);
    /// Block until generation().ingested covers @p seq.
    void awaitPublished(std::uint64_t seq);
    void recordFailure(const std::string &run_id, std::string error);
    /// Requires queue_mutex_ held.
    void recordFailureLocked(const std::string &run_id,
                             std::string error);

    /// Open the log on Options::data_dir and replay it into the
    /// shards (constructor only, before the workers start). On any
    /// failure the store degrades to memory-only with the error kept
    /// in log_error_.
    void openAndReplayLog(const Options &options);
    /// Apply one replayed run record (constructor only).
    void applyRecovered(const std::string &run_id, const std::string &text);
    /// Count an append outcome and remember the error (any thread).
    /// A failure with a non-empty @p run_id marks that run unlogged —
    /// its record's durability is unknown — and kicks the re-attach
    /// thread.
    void noteAppend(bool ok, const std::string &run_id,
                    std::string error);
    /// Record a log failure: degraded-transition accounting plus the
    /// error itself. Requires queue_mutex_ held.
    void noteLogErrorLocked(std::string error);
    /// Fold the log when dead bytes crossed the configured floor —
    /// called after appends/erases, i.e. at least at every rollover.
    void maybeAutoCompactLog();
    /// checkpoint() when the post-checkpoint tail outgrew
    /// Options::log_checkpoint_bytes; skips when another checkpoint
    /// is already running.
    void maybeAutoCheckpoint();
    /// checkpoint() body; requires checkpoint_mutex_ held.
    bool checkpointHeld(std::string *error);
    /// The background re-attach loop (capped exponential backoff).
    void reattachLoop();
    /// One re-attach pass: re-append unlogged runs, clear the error
    /// when the log is fully caught up. @return Whether nothing is
    /// (left) degraded.
    bool attemptReattach();
    /// Reserve the next log position (call under the shard mutex).
    std::uint64_t takeLogTicket();
    /// Block until @p ticket's turn to append (no shard lock held).
    void awaitLogTurn(std::uint64_t ticket);
    /// Release the turn so the next ticket can append.
    void finishLogTurn();

    /**
     * Allocate a publication sequence number and mark it in flight.
     * The pair brackets the shard-map insert so generation().ingested
     * (the low-water mark over completed publications) never moves past
     * a sequence whose insert has not happened — without it, a reader
     * could observe sequence 7 published, cache "seen through 7", and
     * permanently miss a sequence-6 insert still in flight on another
     * worker.
     */
    std::uint64_t beginPublish();
    void endPublish(std::uint64_t seq);

    std::vector<std::unique_ptr<Shard>> shards_;

    /// The durable run log (null = in-memory store).
    std::unique_ptr<WarehouseLog> log_;
    /// Log-append ordering tickets. A ticket is taken *under* the
    /// owning shard's mutex (an O(1) counter bump that never blocks
    /// on I/O), which pins the record's log position relative to
    /// every other operation on that shard's runs; the append itself
    /// — write, fsync, possibly waiting out a whole-log compaction —
    /// runs strictly in ticket order but outside any shard lock, so
    /// readers never stall behind log I/O.
    std::mutex log_ticket_mutex_;
    std::condition_variable log_ticket_cv_;
    std::uint64_t log_next_ticket_ = 0;
    std::uint64_t log_now_serving_ = 0;
    /// Last log open/replay/append error. Guarded by queue_mutex_.
    std::string log_error_;
    /// obs::nowNs() of the last failed append (0 = never). Guarded by
    /// queue_mutex_; stats() reports it as an age.
    std::uint64_t log_last_error_ns_ = 0;
    /// obs::nowNs() when the current degraded episode began (0 = not
    /// degraded). Guarded by queue_mutex_; cleared on re-attach.
    std::uint64_t degraded_since_ns_ = 0;
    /// Re-attach attempts that had work to do. Guarded by queue_mutex_.
    std::uint64_t reattach_attempts_ = 0;
    /// Runs whose log record is not known durable (append or fsync
    /// failed after they were published to memory). Guarded by
    /// queue_mutex_; drained by attemptReattach().
    std::set<std::string> unlogged_;
    RecoveryStats recovery_; ///< Written by the constructor only.

    /// Ingest/erase hold this shared from before their log ticket
    /// through their group-commit sync; a checkpoint cut holds it
    /// exclusive while it cuts the log and snapshots the shards, so
    /// no operation is ever caught between its shard update and its
    /// log record. Lock order: durable_gate_ before shard mutexes.
    mutable std::shared_mutex durable_gate_;
    /// Single-runner guard for checkpoint(); auto-checkpoints
    /// try-lock it and skip when one is already underway.
    std::mutex checkpoint_mutex_;
    std::uint64_t log_checkpoint_bytes_ = 0;

    // Re-attach supervisor (started only for durable stores).
    std::thread reattach_thread_;
    mutable std::mutex reattach_mutex_; ///< stats() reads the schedule.
    /// Held across a whole attemptReattach(): the supervisor and
    /// tryReattachNow() must not both re-append the same unlogged run
    /// (a duplicate WAL record) and both count the re-attach.
    std::mutex reattach_attempt_mutex_;
    std::condition_variable reattach_cv_;
    bool reattach_stop_ = false;
    bool reattach_kick_ = false;
    std::uint64_t reattach_min_backoff_ms_ = 100;
    std::uint64_t reattach_max_backoff_ms_ = 10'000;
    /// Supervisor schedule, for stats(): the backoff currently in
    /// force and the absolute obs::nowNs() of the next retry (both 0
    /// when not backing off). Guarded by reattach_mutex_.
    std::uint64_t reattach_backoff_now_ms_ = 0;
    std::uint64_t reattach_next_retry_ns_ = 0;

    /// The per-corpus name table (see Options::names).
    std::shared_ptr<StringTable> table_;
    /// Shared by interning paths, exclusive for compactNames().
    mutable std::shared_mutex table_mutex_;

    // Corpus-version state (publication sequences, erase count).
    mutable std::mutex gen_mutex_;
    std::uint64_t last_seq_ = 0;  ///< Highest sequence handed out.
    std::uint64_t floor_ = 0;     ///< Low-water mark: all <= published.
    std::uint64_t erased_ = 0;    ///< Successful erase() count.
    std::uint64_t compacted_ = 0; ///< Reclaiming compactNames() count.
    std::set<std::uint64_t> in_flight_;
    std::condition_variable published_cv_; ///< floor_ advanced.

    // Ingestion queue state.
    mutable std::mutex queue_mutex_;
    std::condition_variable idle_cv_;  ///< Signals waiters: queue
                                       ///< drained / producers and
                                       ///< drainers retired.
    std::condition_variable space_cv_; ///< Signals producers: queue room.
    std::deque<Task> queue_;
    std::size_t max_queue_ = 1024;
    std::uint64_t max_queue_bytes_ = 256ull << 20;
    std::uint64_t max_interned_bytes_ = 1ull << 30;
    std::uint64_t queued_bytes_ = 0; ///< Payload bytes in queue_.
    std::size_t active_producers_ = 0; ///< Threads inside enqueue();
                                       ///< the destructor waits for
                                       ///< them so an in-flight ingest
                                       ///< call never touches a freed
                                       ///< store.
    /// Drain tasks scheduled or running (at most worker_limit_). A
    /// non-empty queue always has one.
    std::size_t drainers_ = 0;
    bool stopping_ = false;
    StoreStats stats_;
    std::vector<std::pair<std::string, std::string>> failures_;

    std::size_t worker_limit_ = 1; ///< Max concurrent drainers.
    /// Every drain task, on Options::executor, so waitIdle() and the
    /// destructor can help run this store's queued drains (no
    /// deadline: drains never cancel).
    common::TaskGroup drains_;
};

} // namespace dc::service
