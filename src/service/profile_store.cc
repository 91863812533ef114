#include "service/profile_store.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/string_table.h"
#include "obs/trace_span.h"

namespace dc::service {

namespace {

obs::SpanSite s_ingest_span{"warehouse.ingest"};
obs::SpanSite s_erase_span{"warehouse.erase"};
obs::SpanSite s_recover_span{"warehouse.recover"};
obs::SpanSite s_checkpoint_span{"warehouse.checkpoint"};

// Crash points the torture harness sweeps — each marks a distinct
// recoverable state between a memory update and its durability:
//   published   run visible in memory, nothing in the log yet
//   appended    run record written, group-commit fsync pending
//   synced      run durable, ack not yet returned
//   tombstoned  erase tombstone durable, run still in memory
//   cut         checkpoint cut + snapshot taken, nothing committed
failpoint::Site s_fp_published{"store.ingest.published"};
failpoint::Site s_fp_appended{"store.ingest.appended"};
failpoint::Site s_fp_synced{"store.ingest.synced"};
failpoint::Site s_fp_tombstoned{"store.erase.tombstoned"};
failpoint::Site s_fp_ckpt_cut{"store.checkpoint.cut"};

obs::Counter &
ingestAcceptedCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "warehouse.ingest.accepted");
    return counter;
}

obs::Counter &
ingestFailedCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "warehouse.ingest.failed");
    return counter;
}

obs::Counter &
recoveredCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "warehouse.ingest.recovered");
    return counter;
}

obs::Counter &
degradedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("wal.degraded");
    return counter;
}

obs::Counter &
reattachedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("wal.reattached");
    return counter;
}

/// The pool a store's drains run on (Options::executor).
common::Executor &
poolFor(const ProfileStore::Options &options)
{
    return options.executor != nullptr ? *options.executor
                                       : common::Executor::global();
}

} // namespace

ProfileStore::ProfileStore(Options options)
    : drains_(poolFor(options), common::Deadline{})
{
    DC_CHECK(options.shards > 0, "store needs at least one shard");
    DC_CHECK(options.max_queue > 0, "store needs queue capacity");
    DC_CHECK(options.max_queue_bytes > 0,
             "store needs queue byte capacity");
    max_queue_ = options.max_queue;
    max_queue_bytes_ = options.max_queue_bytes;
    max_interned_bytes_ = options.max_interned_bytes;
    log_checkpoint_bytes_ = options.log_checkpoint_bytes;
    reattach_min_backoff_ms_ =
        std::max<std::uint64_t>(1, options.log_reattach_min_backoff_ms);
    reattach_max_backoff_ms_ = std::max(
        reattach_min_backoff_ms_, options.log_reattach_max_backoff_ms);
    table_ = options.names != nullptr ? std::move(options.names)
                                      : std::make_shared<StringTable>();
    shards_.reserve(options.shards);
    for (std::size_t i = 0; i < options.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());

    // Recover before ingestion can start: replay is single-threaded,
    // so it can insert and meter interning without the
    // concurrent-path guards.
    if (!options.data_dir.empty())
        openAndReplayLog(options);

    // Default the drain width to the pool actually configured, not
    // hardware_concurrency: a narrow private executor must not be
    // handed more concurrent drains than it has threads to run them.
    worker_limit_ = options.workers > 0 ? options.workers
                                        : poolFor(options).threads();
    if (log_ != nullptr)
        reattach_thread_ = std::thread([this] { reattachLoop(); });
}

void
ProfileStore::openAndReplayLog(const Options &options)
{
    obs::ObsSpan span(s_recover_span);
    auto log = std::make_unique<WarehouseLog>();
    WarehouseLog::Options log_options;
    log_options.dir = options.data_dir;
    log_options.max_segment_bytes = options.log_segment_bytes;
    log_options.sync = options.log_sync;
    log_options.auto_compact_min_dead_bytes =
        options.log_compact_min_dead_bytes;
    std::string error;
    if (!log->open(std::move(log_options), &error)) {
        // An unopenable data directory degrades the store to
        // memory-only — the service keeps answering queries and
        // ingesting; it just is not durable, which logHealthy()
        // surfaces. Output paths are as untrusted as inputs.
        DC_WARN("profile store: data dir unusable, running "
                "in-memory: ",
                error);
        log_error_ = std::move(error);
        return;
    }
    WarehouseLog::ReplayStats replay_stats;
    const bool ok = log->replay(
        [this](WarehouseLog::Record record) {
            if (record.kind == WarehouseLog::Record::Kind::kErase) {
                Shard &shard = shardFor(record.run_id);
                if (shard.profiles.erase(record.run_id) > 0) {
                    ++recovery_.tombstones;
                    --stats_.recovered;
                }
                return;
            }
            applyRecovered(record.run_id, record.text);
        },
        &replay_stats, &error);
    if (!ok) {
        DC_WARN("profile store: log replay failed, running "
                "in-memory: ",
                error);
        // Roll the partial replay back: serving whatever subset
        // happened to precede the failing segment — while recovery()
        // reports nothing recovered — would be a silently partial
        // corpus, and re-ingesting the lost runs would trip duplicate
        // rejections. An explicitly empty, non-durable store is the
        // honest degraded mode. (Any names the dropped records
        // interned stay in the table, unreferenced, as after any
        // rejected parse.)
        for (auto &shard : shards_)
            shard->profiles.clear();
        stats_ = StoreStats{};
        failures_.clear();
        recovery_ = RecoveryStats{};
        last_seq_ = 0;
        floor_ = 0;
        log_error_ = std::move(error);
        return;
    }
    recovery_.attempted = true;
    recovery_.runs = stats_.recovered;
    recovery_.corrupt_records = replay_stats.corrupt_records;
    recovery_.checkpoint_records = replay_stats.checkpoint_records;
    recovery_.torn_tail = replay_stats.torn_tail;
    recoveredCounter().add(recovery_.runs);
    span.setArg(recovery_.runs);
    log_ = std::move(log);
}

void
ProfileStore::applyRecovered(const std::string &run_id,
                             const std::string &text)
{
    // The same parse -> meter -> budget path a live ingest takes, so a
    // recovered corpus lands with the same name table contents and the
    // same budget accounting the pre-restart store had for its live
    // runs.
    std::string error;
    std::unique_ptr<prof::ProfileDb> parsed;
    std::uint64_t interned_delta = 0;
    std::uint64_t table_bytes = 0;
    {
        StringTable::GrowthMeter meter(*table_);
        parsed = prof::ProfileDb::tryDeserialize(text, &error, table_);
        interned_delta = meter.bytes();
        table_bytes = table_->textBytes();
    }
    stats_.interned_bytes += interned_delta;
    if (parsed == nullptr) {
        // Self-written records should always parse; a record that no
        // longer does (e.g. budget shrank, disk corruption the
        // checksum happened to miss) is recorded, not fatal.
        ++recovery_.rejected;
        recordFailureLocked(run_id, "log replay: " + error);
        return;
    }
    if (interned_delta > 0 && max_interned_bytes_ != 0 &&
        table_bytes > max_interned_bytes_) {
        ++recovery_.rejected;
        recordFailureLocked(run_id,
                            "log replay: interned-name budget "
                            "exceeded (" +
                                std::to_string(table_bytes) + " of " +
                                std::to_string(max_interned_bytes_) +
                                " bytes of name text)");
        return;
    }
    const std::uint64_t seq = ++last_seq_;
    floor_ = last_seq_;
    Shard &shard = shardFor(run_id);
    // Last-wins: a compaction-overlap replay can stream the same run
    // twice (identical content); the replacement keeps the corpus
    // exact and the recovered count honest.
    const bool inserted =
        shard.profiles
            .insert_or_assign(run_id, Stored{std::move(parsed), seq})
            .second;
    if (inserted)
        ++stats_.recovered;
}

ProfileStore::~ProfileStore()
{
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        stopping_ = true;
        space_cv_.notify_all();
        // Let producers blocked on backpressure finish their (rejected)
        // calls before members are torn down; once they are gone no
        // drain can be scheduled. Calls *started* after destruction
        // begins are caller UB, as for any C++ object.
        idle_cv_.wait(lock, [this] { return active_producers_ == 0; });
    }
    // Let the pooled drainers empty the queue and retire — a drain task
    // must never touch a freed store. wait() helps run the queued ones,
    // so a store closed by a pool task (a wire CORPUS_DROP, an LRU
    // eviction) never sleeps on a drain only the pool could run.
    drains_.wait();
    if (reattach_thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(reattach_mutex_);
            reattach_stop_ = true;
        }
        reattach_cv_.notify_all();
        reattach_thread_.join();
    }
    // Drain guarded view builders: a cold CorpusView rebuild entered
    // before destruction began holds internGuard() (table_mutex_
    // shared) while it merges into this store's table. Excluding it
    // here — and likewise any straggler inside the durable gate —
    // sequences that work strictly before member teardown, so a store
    // closed mid-rebuild (the WarehouseManager's lazy close) drains
    // cleanly instead of freeing the table under the builder.
    { std::unique_lock<std::shared_mutex> drain(table_mutex_); }
    { std::unique_lock<std::shared_mutex> gate(durable_gate_); }
}

ProfileStore::Shard &
ProfileStore::shardFor(const std::string &run_id)
{
    return *shards_[std::hash<std::string>{}(run_id) % shards_.size()];
}

const ProfileStore::Shard &
ProfileStore::shardFor(const std::string &run_id) const
{
    return *shards_[std::hash<std::string>{}(run_id) % shards_.size()];
}

void
ProfileStore::ingest(std::string run_id,
                     std::unique_ptr<prof::ProfileDb> profile)
{
    DC_CHECK(profile != nullptr, "ingest of null profile ", run_id);
    Task task;
    task.kind = Task::Kind::kProfile;
    task.run_id = std::move(run_id);
    task.profile = std::move(profile);
    task.bytes = task.profile->cct().memoryBytes();
    enqueue(std::move(task), /*block=*/true);
}

void
ProfileStore::ingestText(std::string run_id, std::string text)
{
    Task task;
    task.kind = Task::Kind::kText;
    task.run_id = std::move(run_id);
    task.payload = std::move(text);
    task.bytes = task.payload.size();
    enqueue(std::move(task), /*block=*/true);
}

bool
ProfileStore::ingestText(std::string run_id, std::string text,
                         IngestDone done)
{
    Task task;
    task.kind = Task::Kind::kText;
    task.run_id = std::move(run_id);
    task.payload = std::move(text);
    task.bytes = task.payload.size();
    task.done = std::move(done);
    return enqueue(std::move(task), /*block=*/false);
}

void
ProfileStore::ingestFile(std::string run_id, std::string path)
{
    Task task;
    task.kind = Task::Kind::kFile;
    task.run_id = std::move(run_id);
    task.payload = std::move(path);
    enqueue(std::move(task), /*block=*/true);
}

bool
ProfileStore::enqueue(Task task, bool block)
{
    bool schedule = false;
    bool rejected = false;
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        // The byte bound is a high-water mark, so one oversized payload
        // still gets through when the queue is otherwise empty.
        const auto has_room = [this] {
            return queue_.size() < max_queue_ &&
                   queued_bytes_ < max_queue_bytes_;
        };
        if (!block && !stopping_ && !has_room())
            return false;
        ++active_producers_;
        ++stats_.enqueued;
        // Backpressure: block the producer until the drainers catch up
        // (or the store is shutting down).
        space_cv_.wait(lock, [&] { return stopping_ || has_room(); });
        if (stopping_) {
            // A producer racing shutdown gets its task rejected and
            // recorded — never a process abort; the destructor is
            // waiting on idle_cv_ for us to leave.
            recordFailureLocked(task.run_id, "store is shutting down");
            rejected = true;
        } else {
            queued_bytes_ += task.bytes;
            queue_.push_back(std::move(task));
            if (drainers_ < worker_limit_) {
                ++drainers_;
                schedule = true;
            }
        }
    }
    // Outside queue_mutex_: a saturated pool runs the drain inline on
    // this thread (synchronous ingestion is the overflow backpressure),
    // which must not deadlock on our own lock — and a completion must
    // never run under it. We stay counted as a producer until both
    // return, so the destructor cannot win the race between our push
    // and the pool accepting the task.
    if (schedule)
        drains_.submit([this] { drainQueue(); });
    if (rejected && task.done)
        task.done(IngestOutcome::kRejected, "store is shutting down");
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        --active_producers_;
        if (active_producers_ == 0)
            idle_cv_.notify_all();
    }
    return true;
}

void
ProfileStore::drainQueue()
{
    for (;;) {
        Task task;
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            if (queue_.empty()) {
                // Retire. Invariant: a non-empty queue always has at
                // least one live drainer, because every push either
                // found one (drainers_ > 0 while we only retire
                // empty) or scheduled one.
                --drainers_;
                idle_cv_.notify_all();
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            queued_bytes_ -= task.bytes;
        }
        space_cv_.notify_one();
        process(task);
    }
}

void
ProfileStore::process(Task &task)
{
    obs::ObsSpan span(s_ingest_span, task.bytes);
    std::shared_ptr<const prof::ProfileDb> profile;
    std::uint64_t interned_delta = 0;
    bool over_budget = false;
    std::uint64_t table_bytes = 0;
    if (task.kind == Task::Kind::kProfile) {
        // Text/file ingestion gets these checks from tryDeserialize,
        // but ingest() accepts any caller-built ProfileDb — and an
        // invalid one would corrupt or abort later merge queries.
        std::string error;
        if (!task.profile->validate(&error)) {
            reject(task, std::move(error));
            return;
        }
        {
            // A handed-off profile was built on some other table
            // (normally the global one); rebind it onto the store's
            // table so every stored tree is id-compatible. The rebind
            // interns into names() — metered and budgeted exactly like
            // a parse, under the guard compactNames() quiesces.
            auto guard = internGuard();
            StringTable::GrowthMeter meter(*table_);
            task.profile->rebindNames(table_);
            interned_delta = meter.bytes();
            table_bytes = table_->textBytes();
            over_budget = interned_delta > 0 &&
                          max_interned_bytes_ != 0 &&
                          table_bytes > max_interned_bytes_;
        }
        profile = std::move(task.profile);
    } else {
        // Parsing interns every name into the store's table; the
        // worker's meter counts exactly the entries this parse
        // creates — inside the owning table, under its insert lock —
        // so concurrent workers can never double-charge each other's
        // growth (the pre-per-corpus implementation diffed global
        // textBytes() around the parse and did exactly that).
        std::string error;
        std::unique_ptr<prof::ProfileDb> parsed;
        {
            auto guard = internGuard();
            StringTable::GrowthMeter meter(*table_);
            parsed = task.kind == Task::Kind::kFile
                         ? prof::ProfileDb::tryLoad(task.payload,
                                                    &error, table_)
                         : prof::ProfileDb::tryDeserialize(
                               task.payload, &error, table_);
            interned_delta = meter.bytes();
            // The budget decision is re-derived from the owning
            // table's exact accounting: growth that lands the table
            // exactly on the budget still fits (>, not >=), and text
            // reclaimed by compactNames() frees budget for future
            // profiles automatically.
            table_bytes = table_->textBytes();
            over_budget = interned_delta > 0 &&
                          max_interned_bytes_ != 0 &&
                          table_bytes > max_interned_bytes_;
        }
        // A parse failure is reported as such even when its partial
        // interning also saturated the budget — the parse error is
        // what the operator needs to debug the producer. (The partial
        // growth is still charged below.)
        if (parsed == nullptr) {
            if (interned_delta > 0) {
                std::lock_guard<std::mutex> lock(queue_mutex_);
                stats_.interned_bytes += interned_delta;
            }
            reject(task, std::move(error));
            return;
        }
        profile = std::move(parsed);
    }
    if (interned_delta > 0) {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stats_.interned_bytes += interned_delta;
    }
    if (over_budget) {
        // The growth already happened (interning is get-or-create),
        // so the budget gates acceptance: profiles that keep
        // introducing new names are refused — their text becomes
        // unreferenced once the rejected tree dies, and a later
        // compactNames() reclaims it — while ones made of known names
        // still ingest at zero growth.
        reject(task, "interned-name budget exceeded (" +
                         std::to_string(table_bytes) + " of " +
                         std::to_string(max_interned_bytes_) +
                         " bytes of name text)");
        return;
    }

    // Durable stores append the run's serialized text to the log. Text
    // ingests reuse the already-serialized payload verbatim; handoffs
    // and files serialize the accepted profile (v2) — composed before
    // the shard lock, which only has to cover the append itself.
    std::string log_text;
    if (log_ != nullptr) {
        log_text = task.kind == Task::Kind::kText
                       ? std::move(task.payload)
                       : profile->serialize();
    }

    // The durable gate (shared) brackets the whole publish + log
    // region so a checkpoint cut (exclusive) never observes a run
    // that is in memory but still on its way into the log.
    std::shared_lock<std::shared_mutex> gate(durable_gate_,
                                             std::defer_lock);
    if (log_ != nullptr)
        gate.lock();
    const std::uint64_t seq = beginPublish();
    Shard &shard = shardFor(task.run_id);
    bool inserted = false;
    std::uint64_t ticket = 0;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        inserted = shard.profiles
                       .emplace(task.run_id, Stored{profile, seq})
                       .second;
        // The log's record order for a run id must match the shard's
        // insert/erase order — otherwise a concurrent erase could
        // write its tombstone between our insert and our append and
        // replay would resurrect the erased run. Taking the ticket
        // under the shard lock pins our log position (an O(1) counter
        // bump, never I/O); the write happens below, after the lock
        // is released, so readers of this shard never stall behind
        // log I/O.
        if (inserted && log_ != nullptr)
            ticket = takeLogTicket();
    }
    endPublish(seq);
    if (!inserted) {
        reject(task, "duplicate run id");
        return;
    }
    bool append_ok = true;
    std::string append_error;
    if (log_ != nullptr) {
        s_fp_published.eval();
        awaitLogTurn(ticket);
        std::uint64_t commit_seq = 0;
        append_ok = log_->appendRunAsync(
            task.run_id, log_text, &commit_seq, &append_error);
        if (append_ok)
            s_fp_appended.eval();
        // Release the log turn *before* waiting for durability: the
        // next ticket can write its record while our group-commit
        // fsync is in flight — that batching is where the
        // fsync-per-append tax goes away.
        finishLogTurn();
        if (append_ok)
            append_ok = log_->sync(commit_seq, &append_error);
        if (append_ok)
            s_fp_synced.eval();
        noteAppend(append_ok, task.run_id, append_error);
        gate.unlock();
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.ingested;
    }
    ingestAcceptedCounter().add();
    if (log_ != nullptr) {
        maybeAutoCompactLog();
        maybeAutoCheckpoint();
    }
    if (task.done) {
        // Our own insert is done, but a lower sequence may still be
        // mid-insert on another drainer; an acked run must be in every
        // later snapshotRange().
        awaitPublished(seq);
        task.done(append_ok ? IngestOutcome::kStored
                            : IngestOutcome::kNotDurable,
                  std::move(append_error));
    }
}

void
ProfileStore::reject(Task &task, std::string error)
{
    recordFailure(task.run_id, error);
    if (task.done)
        task.done(IngestOutcome::kRejected, std::move(error));
}

void
ProfileStore::awaitPublished(std::uint64_t seq)
{
    std::unique_lock<std::mutex> lock(gen_mutex_);
    published_cv_.wait(lock, [&] { return floor_ >= seq; });
}

std::uint64_t
ProfileStore::takeLogTicket()
{
    std::lock_guard<std::mutex> lock(log_ticket_mutex_);
    return log_next_ticket_++;
}

void
ProfileStore::awaitLogTurn(std::uint64_t ticket)
{
    std::unique_lock<std::mutex> lock(log_ticket_mutex_);
    log_ticket_cv_.wait(
        lock, [&] { return log_now_serving_ == ticket; });
}

void
ProfileStore::finishLogTurn()
{
    {
        std::lock_guard<std::mutex> lock(log_ticket_mutex_);
        ++log_now_serving_;
    }
    log_ticket_cv_.notify_all();
}

void
ProfileStore::noteAppend(bool ok, const std::string &run_id,
                         std::string error)
{
    if (ok) {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_appends;
        // A past failure (disk briefly full) does not taint a log
        // that is appending again — but the store stays degraded
        // while runs the failure left unlogged are waiting for the
        // re-attach pass to re-append them.
        if (unlogged_.empty())
            log_error_.clear();
        return;
    }
    DC_WARN("run log append failed (run kept in memory only): ",
            error);
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_append_failures;
        noteLogErrorLocked(std::move(error));
        // The record may be partially or even fully on disk (a failed
        // group fsync does not un-write it); re-appending the run's
        // current text later folds away any such remnant last-wins.
        // An erase whose tombstone failed this way lands here too:
        // the tombstone bytes may survive to replay, so the run must
        // be re-appended *after* them to stay in the corpus.
        if (!run_id.empty())
            unlogged_.insert(run_id);
    }
    // Wake the re-attach supervisor (it backs off on repeat failures).
    {
        std::lock_guard<std::mutex> lock(reattach_mutex_);
        reattach_kick_ = true;
    }
    reattach_cv_.notify_all();
}

void
ProfileStore::noteLogErrorLocked(std::string error)
{
    if (log_error_.empty() && unlogged_.empty()) {
        ++stats_.log_degraded;
        degradedCounter().add();
        degraded_since_ns_ = obs::nowNs();
    }
    log_error_ = std::move(error);
    log_last_error_ns_ = obs::nowNs();
}

void
ProfileStore::maybeAutoCompactLog()
{
    std::string error;
    const std::uint64_t folded = log_->maybeAutoCompact(&error);
    if (!error.empty()) {
        DC_WARN("run log auto-compaction failed: ", error);
        std::lock_guard<std::mutex> lock(queue_mutex_);
        log_error_ = std::move(error);
        return;
    }
    if (folded > 0) {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_compactions;
    }
}

std::uint64_t
ProfileStore::beginPublish()
{
    std::lock_guard<std::mutex> lock(gen_mutex_);
    const std::uint64_t seq = ++last_seq_;
    in_flight_.insert(seq);
    return seq;
}

void
ProfileStore::endPublish(std::uint64_t seq)
{
    {
        std::lock_guard<std::mutex> lock(gen_mutex_);
        in_flight_.erase(seq);
        floor_ = in_flight_.empty() ? last_seq_ : *in_flight_.begin() - 1;
    }
    published_cv_.notify_all();
}

ProfileStore::Generation
ProfileStore::generation() const
{
    std::lock_guard<std::mutex> lock(gen_mutex_);
    return Generation{floor_, erased_, compacted_};
}

std::uint64_t
ProfileStore::compactNames()
{
    std::uint64_t reclaimed = 0;
    {
        // Exclude every interning path (parse workers, guarded view
        // builds) while the table scrubs dead entries; readers of live
        // names are unaffected.
        std::unique_lock<std::shared_mutex> quiesce(table_mutex_);
        reclaimed = table_->compact();
    }
    {
        // Bump the compaction epoch unconditionally — including when
        // nothing was reclaimed because cached corpus views still pin
        // the text (their trees retain every name they resolve).
        // Views are dropped lazily, at their next acquire(): the bump
        // guarantees that acquire rebuilds (releasing the old tree's
        // references), so the compact → query → compact sequence
        // always converges instead of stalling on a view nobody
        // re-queried. Callers wanting one-shot reclamation can drop
        // the views first (CorpusView::invalidateAll).
        std::lock_guard<std::mutex> lock(gen_mutex_);
        ++compacted_;
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.compactions;
        stats_.reclaimed_bytes += reclaimed;
    }
    // Name compaction marks the corpus's "shed dead state" point — the
    // log folds its dead records (tombstones, superseded appends) away
    // at the same moment.
    compactLog();
    return reclaimed;
}

std::uint64_t
ProfileStore::compactLog()
{
    if (log_ == nullptr)
        return 0;
    std::string error;
    const std::uint64_t folded = log_->compact(&error);
    if (!error.empty()) {
        DC_WARN("run log compaction failed: ", error);
        std::lock_guard<std::mutex> lock(queue_mutex_);
        log_error_ = std::move(error);
        return 0;
    }
    if (folded > 0) {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_compactions;
    }
    return folded;
}

bool
ProfileStore::checkpoint(std::string *error)
{
    std::lock_guard<std::mutex> single(checkpoint_mutex_);
    return checkpointHeld(error);
}

bool
ProfileStore::checkpointHeld(std::string *error)
{
    if (log_ == nullptr) {
        if (error != nullptr)
            *error = "store has no run log";
        return false;
    }
    obs::ObsSpan span(s_checkpoint_span);
    std::string ckpt_error;
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>
        snap;
    std::uint64_t cut = 0;
    {
        // Exclusive gate just for the cut + snapshot: with every
        // ingest/erase either fully published-and-logged or not
        // started, the shard snapshot and the cut index describe the
        // same corpus. Serialization happens after release, so
        // ingestion stalls only for the cut itself.
        std::unique_lock<std::shared_mutex> gate(durable_gate_);
        cut = log_->beginCheckpointCut(&ckpt_error);
        if (cut != 0)
            snap = snapshot();
    }
    if (cut == 0) {
        DC_WARN("checkpoint cut failed: ", ckpt_error);
        std::lock_guard<std::mutex> lock(queue_mutex_);
        noteLogErrorLocked(ckpt_error);
        if (error != nullptr)
            *error = std::move(ckpt_error);
        return false;
    }
    s_fp_ckpt_cut.eval();
    std::string frames;
    for (const auto &[run_id, profile] : snap)
        frames += WarehouseLog::frameRun(run_id, profile->serialize());
    span.setArg(frames.size());
    if (!log_->commitCheckpoint(cut, frames, &ckpt_error)) {
        DC_WARN("checkpoint commit failed (log history kept): ",
                ckpt_error);
        std::lock_guard<std::mutex> lock(queue_mutex_);
        noteLogErrorLocked(ckpt_error);
        if (error != nullptr)
            *error = std::move(ckpt_error);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_checkpoints;
        // A checkpoint that committed proves the disk writes again;
        // clear a stale checkpoint/compaction error the same way a
        // successful append does.
        if (unlogged_.empty())
            log_error_.clear();
    }
    return true;
}

void
ProfileStore::maybeAutoCheckpoint()
{
    if (log_ == nullptr || log_checkpoint_bytes_ == 0 ||
        log_->tailBytes() < log_checkpoint_bytes_) {
        return;
    }
    // One runner at a time; everyone else's trigger re-fires on their
    // next append if the tail is still long.
    std::unique_lock<std::mutex> single(checkpoint_mutex_,
                                        std::try_to_lock);
    if (!single.owns_lock())
        return;
    std::string error;
    checkpointHeld(&error); // failure already warned + recorded
}

bool
ProfileStore::tryReattachNow()
{
    return attemptReattach() && logHealthy();
}

bool
ProfileStore::attemptReattach()
{
    if (log_ == nullptr)
        return false;
    // One attempt at a time; a caller that waited here finds the runs
    // its predecessor re-appended gone from unlogged_.
    std::lock_guard<std::mutex> single(reattach_attempt_mutex_);
    std::vector<std::string> pending;
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (unlogged_.empty())
            return true; // nothing to re-append; an error (if any)
                         // clears with the next successful append
        pending.assign(unlogged_.begin(), unlogged_.end());
        ++reattach_attempts_;
    }
    for (const std::string &run_id : pending) {
        // Same protocol as a live ingest: gate (shared) around a
        // ticket taken under the shard lock, so the re-append cannot
        // interleave with a concurrent erase's tombstone or with a
        // checkpoint cut.
        std::shared_lock<std::shared_mutex> gate(durable_gate_);
        Shard &shard = shardFor(run_id);
        std::shared_ptr<const prof::ProfileDb> profile;
        std::uint64_t ticket = 0;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.profiles.find(run_id);
            if (it != shard.profiles.end()) {
                profile = it->second.profile;
                ticket = takeLogTicket();
            }
        }
        if (profile == nullptr) {
            // Erased (durably) since the failure: any remnant of the
            // failed append precedes the tombstone, so there is
            // nothing left to make durable.
            std::lock_guard<std::mutex> lock(queue_mutex_);
            unlogged_.erase(run_id);
            continue;
        }
        const std::string text = profile->serialize();
        awaitLogTurn(ticket);
        std::string error;
        std::uint64_t commit_seq = 0;
        bool ok =
            log_->appendRunAsync(run_id, text, &commit_seq, &error);
        finishLogTurn();
        if (ok)
            ok = log_->sync(commit_seq, &error);
        gate.unlock();
        if (!ok) {
            // Still failing; stay degraded and let the backoff grow.
            std::lock_guard<std::mutex> lock(queue_mutex_);
            ++stats_.log_append_failures;
            noteLogErrorLocked(std::move(error));
            return false;
        }
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++stats_.log_appends;
        unlogged_.erase(run_id);
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (!unlogged_.empty())
            return false; // new failures raced in behind us
        log_error_.clear();
        degraded_since_ns_ = 0; // episode over
        ++stats_.log_reattached;
    }
    reattachedCounter().add();
    DC_INFORM("run log re-attached: durable mode restored (",
              pending.size(), " runs re-appended)");
    return true;
}

void
ProfileStore::reattachLoop()
{
    std::uint64_t backoff_ms = reattach_min_backoff_ms_;
    std::unique_lock<std::mutex> lock(reattach_mutex_);
    for (;;) {
        reattach_cv_.wait(lock, [this] {
            return reattach_stop_ || reattach_kick_;
        });
        if (reattach_stop_)
            return;
        reattach_kick_ = false;
        lock.unlock();
        bool recovered = attemptReattach();
        lock.lock();
        while (!recovered && !reattach_stop_) {
            // Publish the schedule for stats() before sleeping on it.
            reattach_backoff_now_ms_ = backoff_ms;
            reattach_next_retry_ns_ =
                obs::nowNs() + backoff_ms * 1'000'000ull;
            reattach_cv_.wait_for(
                lock, std::chrono::milliseconds(backoff_ms));
            if (reattach_stop_)
                return;
            reattach_kick_ = false;
            backoff_ms =
                std::min(backoff_ms * 2, reattach_max_backoff_ms_);
            lock.unlock();
            recovered = attemptReattach();
            lock.lock();
        }
        backoff_ms = reattach_min_backoff_ms_;
        reattach_backoff_now_ms_ = 0;
        reattach_next_retry_ns_ = 0;
    }
}

bool
ProfileStore::logHealthy() const
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return log_ != nullptr && log_error_.empty() && unlogged_.empty();
}

std::string
ProfileStore::logError() const
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return log_error_;
}

ProfileStore::RecoveryStats
ProfileStore::recovery() const
{
    // Written only by the constructor, immutable afterwards.
    return recovery_;
}

void
ProfileStore::recordFailure(const std::string &run_id, std::string error)
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    recordFailureLocked(run_id, std::move(error));
}

void
ProfileStore::recordFailureLocked(const std::string &run_id,
                                  std::string error)
{
    DC_WARN("ingestion of run '", run_id, "' failed: ", error);
    ++stats_.failed;
    ingestFailedCounter().add();
    // A long-lived store fed a misbehaving frontend must not grow its
    // failure log without bound; stats_.failed keeps the exact total.
    if (failures_.size() >= kMaxRecordedFailures)
        failures_.erase(failures_.begin());
    failures_.emplace_back(run_id, std::move(error));
}

void
ProfileStore::waitIdle()
{
    for (;;) {
        // Help run our own queued drains: a waiter on a pool thread
        // must never sleep on work only the pool can run.
        drains_.wait();
        std::unique_lock<std::mutex> lock(queue_mutex_);
        // Also wait for producers inside enqueue(): a backpressured
        // producer has already been counted in stats_.enqueued, so
        // returning before its push would break the exact-totals
        // contract. No drainer means an empty queue.
        if (drainers_ == 0 && active_producers_ == 0)
            return;
        // A producer is mid-enqueue, or a drain was scheduled after
        // wait() returned: re-poll shortly (a drain we could help with
        // may appear without a notify).
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

std::shared_ptr<const prof::ProfileDb>
ProfileStore::get(const std::string &run_id) const
{
    const Shard &shard = shardFor(run_id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.profiles.find(run_id);
    return it == shard.profiles.end() ? nullptr : it->second.profile;
}

bool
ProfileStore::erase(const std::string &run_id)
{
    obs::ObsSpan span(s_erase_span);
    Shard &shard = shardFor(run_id);
    std::shared_lock<std::shared_mutex> gate(durable_gate_,
                                             std::defer_lock);
    if (log_ != nullptr)
        gate.lock();
    std::uint64_t ticket = 0;
    std::uint64_t found_seq = 0;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.profiles.find(run_id);
        if (it == shard.profiles.end())
            return false;
        if (log_ == nullptr) {
            shard.profiles.erase(it);
            std::lock_guard<std::mutex> gen(gen_mutex_);
            ++erased_;
            return true;
        }
        // Durable path: pin the tombstone's log position now (so no
        // other operation on this run can slip a record between our
        // observation and our tombstone), remember which incarnation
        // we saw, and do the actual append outside the shard lock.
        ticket = takeLogTicket();
        found_seq = it->second.seq;
    }

    awaitLogTurn(ticket);
    std::string append_error;
    std::uint64_t commit_seq = 0;
    bool tombstoned =
        log_->appendEraseAsync(run_id, &commit_seq, &append_error);
    finishLogTurn();
    if (tombstoned)
        tombstoned = log_->sync(commit_seq, &append_error);
    if (!tombstoned) {
        // Tombstone-before-remove, and only remove if the tombstone
        // is durable: an erase the log could not record must fail —
        // otherwise the run disappears from the serving corpus now
        // and silently resurrects at the next restart. (The run was
        // never removed, so the corpus and log still agree — and
        // because the tombstone bytes may nonetheless have reached
        // the disk, noteAppend marks the run unlogged so re-attach
        // re-appends it after them.)
        noteAppend(false, run_id, std::move(append_error));
        return false;
    }
    noteAppend(true, run_id, {});
    s_fp_tombstoned.eval();

    bool erased = false;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.profiles.find(run_id);
        // Remove only the incarnation we tombstoned: if the id was
        // re-ingested meanwhile, that newer publish also appended a
        // run record *after* our tombstone (its ticket is later), so
        // last-wins replay keeps it — exactly the state we leave in
        // memory by not erasing it. A racing erase that already
        // removed our incarnation wrote its own (harmless, duplicate)
        // tombstone; we report false, it reports true.
        if (it != shard.profiles.end() &&
            it->second.seq == found_seq) {
            shard.profiles.erase(it);
            erased = true;
        }
    }
    if (erased) {
        // Merged stats are not invertible (min/max), so cached views
        // cannot subtract a run; bumping the erase generation tells
        // them to rebuild from scratch.
        std::lock_guard<std::mutex> lock(gen_mutex_);
        ++erased_;
    }
    gate.unlock();
    maybeAutoCompactLog();
    maybeAutoCheckpoint();
    return erased;
}

std::vector<std::string>
ProfileStore::runIds() const
{
    std::vector<std::string> ids;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[run_id, stored] : shard->profiles) {
            (void)stored;
            ids.push_back(run_id);
        }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<std::string>
ProfileStore::runIdsMatching(
    const std::function<bool(const std::string &,
                             const prof::ProfileDb &)> &pred) const
{
    std::vector<std::string> ids;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[run_id, stored] : shard->profiles) {
            if (pred(run_id, *stored.profile))
                ids.push_back(run_id);
        }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<std::pair<std::string,
                      std::shared_ptr<const prof::ProfileDb>>>
ProfileStore::snapshotRange(std::uint64_t after, std::uint64_t upto) const
{
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>
        entries;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[run_id, stored] : shard->profiles) {
            if (stored.seq > after && stored.seq <= upto)
                entries.emplace_back(run_id, stored.profile);
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return entries;
}

std::vector<std::pair<std::string,
                      std::shared_ptr<const prof::ProfileDb>>>
ProfileStore::snapshot() const
{
    std::vector<std::pair<std::string,
                          std::shared_ptr<const prof::ProfileDb>>>
        entries;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[run_id, stored] : shard->profiles)
            entries.emplace_back(run_id, stored.profile);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return entries;
}

std::size_t
ProfileStore::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->profiles.size();
    }
    return total;
}

StoreStats
ProfileStore::stats() const
{
    // Read the log's own counter before taking queue_mutex_ (the log
    // serializes internally; no reason to nest the locks).
    const std::uint64_t fsyncs =
        log_ != nullptr ? log_->fsyncCount() : 0;
    const std::uint64_t now = obs::nowNs();
    // Supervisor schedule first (reattach_mutex_ and queue_mutex_ are
    // never nested; take them in sequence).
    std::uint64_t backoff_ms, next_retry_ns;
    {
        std::lock_guard<std::mutex> lock(reattach_mutex_);
        backoff_ms = reattach_backoff_now_ms_;
        next_retry_ns = reattach_next_retry_ns_;
    }
    std::lock_guard<std::mutex> lock(queue_mutex_);
    StoreStats stats = stats_;
    stats.log_fsyncs = fsyncs;
    stats.log_unlogged_runs = unlogged_.size();
    if (log_last_error_ns_ != 0) {
        // Clamp to >= 1 so "just failed" cannot alias "never failed".
        stats.log_last_error_age_ns =
            now > log_last_error_ns_ ? now - log_last_error_ns_ : 1;
    }
    if (!log_error_.empty() || !unlogged_.empty()) {
        // Currently degraded: report the episode age. A degradation
        // that bypassed the transition hook still reads as "just now".
        stats.log_degraded_since_ns =
            degraded_since_ns_ != 0 && now > degraded_since_ns_
                ? now - degraded_since_ns_
                : 1;
        // The supervisor schedule is only meaningful mid-episode; a
        // recovered store reads 0 even if the background thread has
        // not yet woken to notice it has nothing to do.
        stats.log_reattach_backoff_ms = backoff_ms;
        if (next_retry_ns != 0) {
            stats.log_reattach_next_retry_ns =
                next_retry_ns > now ? next_retry_ns - now : 1;
        }
    }
    stats.log_reattach_attempts = reattach_attempts_;
    return stats;
}

std::vector<std::pair<std::string, std::string>>
ProfileStore::failures() const
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return failures_;
}

} // namespace dc::service
