#pragma once

/**
 * @file
 * The process-wide task executor every parallel layer runs on.
 *
 * Before this file, each parallel site owned its threads: CctMerger
 * spawned a pool per cold rebuild, ProfileStore kept dedicated
 * ingestion workers, and federated scatter ran serially on the calling
 * thread. One shared work-stealing pool replaces all of that, so the
 * process's parallelism is bounded by one knob, thread spin-up leaves
 * the query path, and heterogeneous work (chunk folds, ingestion
 * parses, federated legs) interleaves on the same cores.
 *
 * Design:
 *
 *  - **Work stealing.** Each worker owns a bounded deque under its own
 *    mutex; the owner pops newest-first (LIFO keeps a fan-out's chunks
 *    cache-warm on the thread that will reduce them), thieves — idle
 *    workers and helping waiters — steal oldest-first. Tasks here are
 *    coarse (a chunk fold, a federated leg, an ingestion drain), so a
 *    short critical section per pop beats a lock-free deque's
 *    complexity and stays exactly as TSan-checkable as the rest of the
 *    codebase.
 *
 *  - **Bounded queues, inline overflow.** A full pool sheds to the
 *    submitter: submit() runs the task on the calling thread instead
 *    of buffering without bound — backpressure composes with the
 *    store's own queue limits instead of hiding behind them. A thread
 *    that must never run pool work (the wire server's I/O thread)
 *    uses trySubmit(), which reports the full pool instead.
 *
 *  - **Nested-submit safety.** TaskGroup::wait() *helps*: while its
 *    tasks are outstanding it runs queued tasks of that group on the
 *    waiting thread. A pool task may therefore fan out a nested group
 *    and wait on it without deadlock even on a one-thread pool — the
 *    federated path does exactly this (a leg on the pool runs a cold
 *    rebuild whose merge fans out again). Helping is restricted to
 *    the waiter's OWN group: waiters routinely hold locks (a view
 *    entry's builder mutex across a rebuild's fan-out), so running an
 *    arbitrary queued task could re-lock a mutex the waiting thread
 *    already owns, or form a lock cycle between two waiters helping
 *    each other's work — and a foreign task of unknown cost would
 *    stretch this request's tail by another request's work.
 *
 *  - **Deadline/cancellation propagation.** Pool workers never inherit
 *    the submitter's thread-local ScopedDeadline, so TaskGroup
 *    captures the deadline at construction and re-installs it inside
 *    every task; cancel() (or the deadline expiring) makes queued
 *    tasks skip their bodies. Deep code polls deadlineExpired()
 *    exactly as it does on the submitting thread.
 *
 *  - **Observability.** Counters exec.submitted / executed / stolen /
 *    inline / cancelled, histograms exec.wait_us (queue latency),
 *    exec.run_us, and exec.queue_depth feed the obs registry; the
 *    counters are also kept in plain atomics (stats()) so the server
 *    stats endpoint reports them even with DC_OBS off.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"

namespace dc::common {

/** Work-stealing thread pool; see file comment. */
class Executor
{
  public:
    struct Options {
        /// Worker threads; 0 = one per available hardware thread (at
        /// least 1).
        std::size_t threads = 0;
        /// Per-worker queue bound; a submit finding every queue full
        /// runs the task on the submitting thread (trySubmit() fails
        /// instead).
        std::size_t queue_capacity = 1024;
    };

    /** Monotonic pool counters (exact; plain atomics). */
    struct Stats {
        std::size_t threads = 0;       ///< Pool width.
        std::uint64_t submitted = 0;   ///< Tasks accepted into queues.
        std::uint64_t executed = 0;    ///< Task bodies run on the pool.
        std::uint64_t stolen = 0;      ///< Pops by a non-owner (idle
                                       ///< worker or helping waiter).
        std::uint64_t inline_run = 0;  ///< Overflow runs on submitters.
        std::uint64_t queued = 0;      ///< Tasks currently enqueued.
    };

    Executor() : Executor(Options{}) {}
    explicit Executor(Options options);
    /// Drains every queued task, then joins the workers.
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * The shared process pool (DC_EXECUTOR_THREADS overrides its
     * width). Never destroyed: detached work scheduled from static
     * destructors must not race pool teardown.
     */
    static Executor &global();

    /** Pool width (>= 1). */
    std::size_t threads() const { return workers_.size(); }

    /** @p requested workers, with 0 = available hardware threads. */
    static std::size_t resolveThreads(std::size_t requested);

    /**
     * Detached submission: runs @p fn on some pool thread, or on the
     * calling thread when every queue is at capacity. The caller owns
     * completion tracking (TaskGroup does it for grouped work).
     */
    void submit(std::function<void()> fn);

    /**
     * Detached submission that never runs @p fn on the calling
     * thread: when every queue is at capacity, @p fn is dropped unrun
     * and false is returned, so the caller can shed the work instead.
     */
    bool trySubmit(std::function<void()> fn);

    /**
     * Pop-and-run one queued task on the calling thread. With
     * @p only_tag set, only a task carrying that tag (a TaskGroup
     * helping its own work) is taken; untagged callers (drains) take
     * anything.
     * @return Whether a task was run (false = nothing eligible).
     */
    bool tryRunOne(const void *only_tag = nullptr);

    Stats stats() const;

  private:
    friend class TaskGroup;

    struct Task {
        std::function<void()> fn;
        std::uint64_t enqueue_ns = 0; ///< For exec.wait_us (0 = unset).
        /// Owning TaskGroup (null for detached submits). Compared —
        /// never dereferenced — by tryRunOne, so a waiter helps only
        /// its own group; valid while queued because a group outlives
        /// its tasks (wait() before scope exit).
        const void *tag = nullptr;
    };

    /// One worker's deque. Owner pushes/pops the back; thieves take
    /// the front. Heap-allocated so the mutexes never move.
    struct Worker {
        std::mutex mutex;
        std::deque<Task> queue;
    };

    /// Queue @p task (round-robin start, first queue with room); false
    /// when every queue is full — @p task is left intact for the
    /// caller to run inline.
    bool push(Task &task);
    /// Pop for worker @p self: own back first, then steal fronts.
    bool popTask(std::size_t self, Task *out);
    /// Steal from any queue (helping waiters; no home queue). With
    /// @p only_tag set, only a matching task is taken.
    bool stealTask(Task *out, const void *only_tag);
    void runTask(Task &task);
    void workerLoop(std::size_t index);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::size_t queue_capacity_ = 1024;
    std::vector<std::thread> threads_;

    /// Sleep/wake for idle workers; queued_ is the fast-path check.
    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    bool stopping_ = false; ///< Guarded by sleep_mutex_.

    std::atomic<std::uint64_t> queued_{0};
    std::atomic<std::uint64_t> submit_cursor_{0};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};
    std::atomic<std::uint64_t> inline_run_{0};
};

/**
 * A batch of related tasks with one completion point and one
 * cancellation token.
 *
 * The constructor captures the submitting thread's ScopedDeadline (or
 * an explicit one); every task body runs under that deadline on the
 * pool thread. cancel() — or the deadline expiring — makes tasks that
 * have not started yet skip their bodies, so an abandoned fan-out
 * unwinds within one task's worth of work. wait() helps execute the
 * group's own queued tasks — never another group's (see file
 * comment) — which makes nested fan-outs deadlock-free and lets the
 * submitting thread contribute a core.
 *
 * The group must outlive its tasks: wait() (or the destructor, which
 * waits) before the group leaves scope.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(Executor &executor = Executor::global())
        : TaskGroup(executor, ScopedDeadline::current())
    {
    }
    TaskGroup(Executor &executor, Deadline deadline)
        : executor_(executor), deadline_(deadline)
    {
    }
    ~TaskGroup() { wait(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task (runs inline when the pool is saturated). */
    void submit(std::function<void()> fn);

    /** Make not-yet-started tasks skip their bodies. */
    void cancel() { cancel_.store(true, std::memory_order_relaxed); }

    /** Whether cancel() was called or the group deadline expired. */
    bool cancelled() const
    {
        return cancel_.load(std::memory_order_relaxed) ||
               deadline_.expired();
    }

    /** The deadline task bodies run under (maybe unset). */
    const Deadline &deadline() const { return deadline_; }

    /**
     * Block until every submitted task finished, running this group's
     * still-queued tasks on this thread while waiting. Reusable: the
     * group is empty afterwards and may submit again.
     */
    void wait();

  private:
    void finishOne();

    Executor &executor_;
    Deadline deadline_;
    std::atomic<bool> cancel_{false};
    std::atomic<std::size_t> pending_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace dc::common
