#include "common/executor.h"

#include <chrono>
#include <cstdlib>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"

namespace dc::common {

namespace {

obs::Counter &
submittedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("exec.submitted");
    return counter;
}

obs::Counter &
stolenCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("exec.stolen");
    return counter;
}

obs::Counter &
inlineCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("exec.inline");
    return counter;
}

obs::Counter &
cancelledCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("exec.cancelled");
    return counter;
}

obs::Histogram &
waitHistogram()
{
    static obs::Histogram hist =
        obs::MetricsRegistry::global().histogram("exec.wait_us");
    return hist;
}

obs::Histogram &
runHistogram()
{
    static obs::Histogram hist =
        obs::MetricsRegistry::global().histogram("exec.run_us");
    return hist;
}

obs::Histogram &
depthHistogram()
{
    static obs::Histogram hist =
        obs::MetricsRegistry::global().histogram("exec.queue_depth");
    return hist;
}

} // namespace

std::size_t
Executor::resolveThreads(std::size_t requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

Executor::Executor(Options options)
    : queue_capacity_(std::max<std::size_t>(options.queue_capacity, 1))
{
    const std::size_t n = resolveThreads(options.threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stopping_ = true;
    }
    sleep_cv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

Executor &
Executor::global()
{
    // Deliberately leaked: detached work submitted from static
    // destructors (test teardown, late store drains) must never race
    // pool destruction.
    static Executor *instance = [] {
        Options options;
        if (const char *env = std::getenv("DC_EXECUTOR_THREADS")) {
            char *end = nullptr;
            const long parsed = std::strtol(env, &end, 10);
            if (end != env && *end == '\0' && parsed > 0)
                options.threads = static_cast<std::size_t>(parsed);
            else
                DC_WARN("ignoring invalid DC_EXECUTOR_THREADS='", env,
                        "'");
        }
        return new Executor(options);
    }();
    return *instance;
}

bool
Executor::push(Task &task)
{
    if (obs::enabled())
        task.enqueue_ns = obs::nowNs();
    const std::size_t n = workers_.size();
    const std::size_t start = static_cast<std::size_t>(
        submit_cursor_.fetch_add(1, std::memory_order_relaxed) % n);
    for (std::size_t i = 0; i < n; ++i) {
        Worker &worker = *workers_[(start + i) % n];
        {
            std::lock_guard<std::mutex> lock(worker.mutex);
            if (worker.queue.size() >= queue_capacity_)
                continue;
            worker.queue.push_back(std::move(task));
        }
        const std::uint64_t depth =
            queued_.fetch_add(1, std::memory_order_relaxed) + 1;
        submitted_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
            submittedCounter().add();
            depthHistogram().record(depth);
        }
        // Lock/unlock pairs with the worker's predicate check, so a
        // wake between "saw queued_ == 0" and "began waiting" cannot
        // be lost.
        {
            std::lock_guard<std::mutex> lock(sleep_mutex_);
        }
        sleep_cv_.notify_one();
        return true;
    }
    return false;
}

void
Executor::submit(std::function<void()> fn)
{
    Task task{std::move(fn), 0};
    if (push(task))
        return;
    // Every queue at capacity: shed to the submitter. The task runs
    // with the caller's own deadline scope, exactly as a direct call.
    inline_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        inlineCounter().add();
    task.fn();
}

bool
Executor::trySubmit(std::function<void()> fn)
{
    Task task{std::move(fn), 0};
    return push(task);
}

bool
Executor::popTask(std::size_t self, Task *out)
{
    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.queue.empty()) {
            *out = std::move(own.queue.back());
            own.queue.pop_back();
            queued_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    const std::size_t n = workers_.size();
    for (std::size_t i = 1; i < n; ++i) {
        Worker &victim = *workers_[(self + i) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.queue.empty())
            continue;
        *out = std::move(victim.queue.front());
        victim.queue.pop_front();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        stolen_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
            stolenCounter().add();
        return true;
    }
    return false;
}

bool
Executor::stealTask(Task *out, const void *only_tag)
{
    const std::size_t n = workers_.size();
    const std::size_t start = static_cast<std::size_t>(
        submit_cursor_.fetch_add(1, std::memory_order_relaxed) % n);
    for (std::size_t i = 0; i < n; ++i) {
        Worker &victim = *workers_[(start + i) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        auto it = victim.queue.begin();
        if (only_tag != nullptr) {
            // Oldest matching task; a linear scan is fine — queues are
            // bounded and tasks are coarse.
            while (it != victim.queue.end() && it->tag != only_tag)
                ++it;
        }
        if (it == victim.queue.end())
            continue;
        *out = std::move(*it);
        victim.queue.erase(it);
        queued_.fetch_sub(1, std::memory_order_relaxed);
        stolen_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
            stolenCounter().add();
        return true;
    }
    return false;
}

void
Executor::runTask(Task &task)
{
    // Pool threads must never leak a deadline between unrelated tasks;
    // TaskGroup re-installs its own token inside the body.
    ScopedDeadline clean{Deadline{}};
    const bool timed = obs::enabled();
    if (timed && task.enqueue_ns != 0)
        waitHistogram().record((obs::nowNs() - task.enqueue_ns) / 1000);
    const std::uint64_t start = timed ? obs::nowNs() : 0;
    task.fn();
    if (timed)
        runHistogram().record((obs::nowNs() - start) / 1000);
    executed_.fetch_add(1, std::memory_order_relaxed);
}

bool
Executor::tryRunOne(const void *only_tag)
{
    Task task;
    if (!stealTask(&task, only_tag))
        return false;
    runTask(task);
    return true;
}

void
Executor::workerLoop(std::size_t index)
{
    for (;;) {
        Task task;
        if (popTask(index, &task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (queued_.load(std::memory_order_relaxed) > 0)
            continue;
        // Queues are drained before shutdown: a stopping pool with
        // queued work keeps its workers popping above.
        if (stopping_)
            return;
        sleep_cv_.wait(lock, [this] {
            return stopping_ ||
                   queued_.load(std::memory_order_relaxed) > 0;
        });
    }
}

Executor::Stats
Executor::stats() const
{
    Stats out;
    out.threads = workers_.size();
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.executed = executed_.load(std::memory_order_relaxed);
    out.stolen = stolen_.load(std::memory_order_relaxed);
    out.inline_run = inline_run_.load(std::memory_order_relaxed);
    out.queued = queued_.load(std::memory_order_relaxed);
    return out;
}

void
TaskGroup::submit(std::function<void()> fn)
{
    pending_.fetch_add(1, std::memory_order_acq_rel);
    Executor::Task task;
    task.tag = this;
    task.fn = [this, fn = std::move(fn)] {
        if (!cancelled()) {
            ScopedDeadline scope(deadline_);
            fn();
        } else if (obs::enabled()) {
            cancelledCounter().add();
        }
        finishOne();
    };
    if (executor_.push(task))
        return;
    // Saturated pool: the group's wrapper still runs (with its
    // deadline scope and completion accounting), just on this thread.
    executor_.inline_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        inlineCounter().add();
    task.fn();
}

void
TaskGroup::finishOne()
{
    // The decrement happens under the group mutex so that "pending
    // reached zero" can only be OBSERVED under that mutex — after
    // this unlock, which is the finisher's last touch of the group.
    // A lock-free decrement would let a waiter see zero, return, and
    // destroy the group while the finisher is still between its
    // fetch_sub and its notify (a use-after-free TSan catches).
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        cv_.notify_all();
}

void
TaskGroup::wait()
{
    for (;;) {
        // Completion must be read under the mutex: finishOne's
        // decrement holds it, so a zero seen here means the last
        // finisher already released the lock and will never touch
        // this group again — returning (and destructing) is safe.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (pending_.load(std::memory_order_acquire) == 0)
                return;
        }
        // Help: run one of OUR OWN queued tasks — they finish sooner,
        // and a nested group on a one-thread pool cannot deadlock
        // waiting for a worker that is running *us*. Never a foreign
        // task: waiters hold locks (a view entry's builder mutex
        // across the rebuild's fan-out), so a stolen foreign task
        // could re-lock a mutex this thread already owns or entangle
        // two waiters in a lock cycle — and its unknown cost would
        // bound this request's latency by another request's work.
        if (executor_.tryRunOne(this))
            continue;
        std::unique_lock<std::mutex> lock(mutex_);
        if (pending_.load(std::memory_order_acquire) == 0)
            return;
        // Our remaining tasks are mid-run on workers (or queued behind
        // foreign work we must not run): timed wait, re-poll.
        cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

} // namespace dc::common
