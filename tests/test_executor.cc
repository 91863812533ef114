/**
 * @file
 * Shared work-stealing executor tests: completion and accounting,
 * inline overflow shedding, the never-inline trySubmit, TaskGroup
 * deadline capture/propagation, cancellation, nested-submit safety on
 * a one-thread pool, the own-group-only helping rule lock-holding
 * waiters depend on, and the multi-producer stress the TSan CI job
 * leans on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/executor.h"

namespace dc {
namespace {

using common::Deadline;
using common::Executor;
using common::ScopedDeadline;
using common::TaskGroup;

TEST(Executor, RunsEveryDetachedTask)
{
    Executor executor({.threads = 2});
    constexpr int kTasks = 64;
    std::atomic<int> ran{0};
    for (int i = 0; i < kTasks; ++i)
        executor.submit([&ran] { ++ran; });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ran.load() < kTasks &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
    }
    EXPECT_EQ(ran.load(), kTasks);
    const Executor::Stats stats = executor.stats();
    EXPECT_EQ(stats.threads, 2u);
    EXPECT_EQ(stats.submitted + stats.inline_run,
              static_cast<std::uint64_t>(kTasks));
}

TEST(Executor, GroupWaitReturnsAfterAllTasks)
{
    Executor executor({.threads = 4});
    std::atomic<int> ran{0};
    TaskGroup group(executor);
    for (int i = 0; i < 100; ++i)
        group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 100);

    // The group is reusable after wait().
    group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(Executor, InlineOverflowRunsOnSubmitter)
{
    Executor executor({.threads = 1, .queue_capacity = 1});
    // Park the single worker so the queue cannot drain.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<bool> worker_busy{false};
    executor.submit([&worker_busy, gate] {
        worker_busy = true;
        gate.wait();
    });
    while (!worker_busy.load())
        std::this_thread::yield();

    std::atomic<int> ran{0};
    executor.submit([&ran] { ++ran; }); // fills the only queue slot
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id overflow_thread;
    executor.submit([&] { // queue full: must run here, right now
        ++ran;
        overflow_thread = std::this_thread::get_id();
    });
    EXPECT_EQ(overflow_thread, self);
    EXPECT_GE(executor.stats().inline_run, 1u);

    release.set_value();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ran.load() < 2 &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
    }
    EXPECT_EQ(ran.load(), 2);
}

TEST(Executor, TrySubmitNeverRunsOnTheCaller)
{
    std::atomic<int> ran{0};
    {
        Executor executor({.threads = 1, .queue_capacity = 1});
        std::promise<void> release;
        std::shared_future<void> gate(release.get_future());
        std::atomic<bool> worker_busy{false};
        executor.submit([&worker_busy, gate] {
            worker_busy = true;
            gate.wait();
        });
        while (!worker_busy.load())
            std::this_thread::yield();

        EXPECT_TRUE(executor.trySubmit([&ran] { ++ran; })); // last slot
        const std::uint64_t inline_before = executor.stats().inline_run;
        EXPECT_FALSE(executor.trySubmit([&ran] { ran += 100; }));
        EXPECT_EQ(ran.load(), 0) << "a refused task never runs here";
        EXPECT_EQ(executor.stats().inline_run, inline_before);
        release.set_value();
    } // the destructor drains every queued task
    EXPECT_EQ(ran.load(), 1) << "the refused task is dropped, not queued";
}

TEST(Executor, GroupCapturesSubmitterDeadline)
{
    Executor executor({.threads = 2});
    // Pool workers do not inherit thread-locals: the group must carry
    // the submitter's ScopedDeadline into every task body.
    ScopedDeadline scope(Deadline::afterMs(60'000));
    std::atomic<int> saw_deadline{0};
    TaskGroup group(executor);
    for (int i = 0; i < 8; ++i) {
        group.submit([&saw_deadline] {
            if (ScopedDeadline::current().valid() &&
                !common::deadlineExpired()) {
                ++saw_deadline;
            }
        });
    }
    group.wait();
    EXPECT_EQ(saw_deadline.load(), 8);
}

TEST(Executor, ExpiredDeadlineSkipsTaskBodies)
{
    Executor executor({.threads = 2});
    ScopedDeadline scope(Deadline::after(0));
    std::atomic<int> ran{0};
    TaskGroup group(executor);
    for (int i = 0; i < 8; ++i)
        group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_TRUE(group.cancelled());
    EXPECT_EQ(ran.load(), 0);
}

TEST(Executor, CancelSkipsQueuedTasks)
{
    Executor executor({.threads = 1});
    // Park the worker so the group's tasks stay queued past cancel().
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<bool> worker_busy{false};
    executor.submit([&worker_busy, gate] {
        worker_busy = true;
        gate.wait();
    });
    while (!worker_busy.load())
        std::this_thread::yield();

    std::atomic<int> ran{0};
    TaskGroup group(executor);
    for (int i = 0; i < 16; ++i)
        group.submit([&ran] { ++ran; });
    group.cancel();
    release.set_value();
    group.wait(); // helps run the wrappers; every body must skip
    EXPECT_TRUE(group.cancelled());
    EXPECT_EQ(ran.load(), 0);
}

TEST(Executor, NestedGroupOnOneThreadPoolDoesNotDeadlock)
{
    // The federated path fans out from inside a pool task: a leg
    // (outer task) runs a rebuild whose merge fans out again. With a
    // one-thread pool this deadlocks unless wait() helps execute.
    Executor executor({.threads = 1});
    std::atomic<int> inner_ran{0};
    TaskGroup outer(executor);
    for (int i = 0; i < 4; ++i) {
        outer.submit([&executor, &inner_ran] {
            TaskGroup inner(executor);
            for (int j = 0; j < 4; ++j)
                inner.submit([&inner_ran] { ++inner_ran; });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(inner_ran.load(), 16);
}

TEST(Executor, GroupWaitHelpsOnlyItsOwnTasks)
{
    // Waiters hold locks: CorpusView::acquire keeps the entry builder
    // mutex across its rebuild group's wait(). If wait() helped with
    // an arbitrary queued task, it could run a foreign task that
    // locks a mutex the waiting thread already holds — re-locking it
    // on the same thread (UB / permanent hang). Reproduce exactly
    // that shape and require wait() to leave the foreign task alone.
    Executor executor({.threads = 1});
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<bool> worker_busy{false};
    executor.submit([&worker_busy, gate] {
        worker_busy = true;
        gate.wait();
    });
    while (!worker_busy.load())
        std::this_thread::yield();

    std::mutex held; // the "entry mutex" the waiter holds
    std::atomic<int> foreign_ran{0};
    std::unique_lock<std::mutex> waiter_lock(held);
    executor.submit([&held, &foreign_ran] { // foreign: wants `held`
        std::lock_guard<std::mutex> lock(held);
        ++foreign_ran;
    });

    std::atomic<int> own_ran{0};
    TaskGroup group(executor);
    for (int i = 0; i < 4; ++i)
        group.submit([&own_ran] { ++own_ran; });
    group.wait(); // worker is parked: the waiter must run these, and
                  // ONLY these — stealing the foreign task deadlocks
    EXPECT_EQ(own_ran.load(), 4);
    EXPECT_EQ(foreign_ran.load(), 0); // still queued, untouched

    waiter_lock.unlock();
    release.set_value();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (foreign_ran.load() < 1 &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
    }
    EXPECT_EQ(foreign_ran.load(), 1); // a pool worker ran it
}

TEST(Executor, StressManyProducersManyGroups)
{
    Executor executor({.threads = 4, .queue_capacity = 64});
    constexpr int kProducers = 8;
    constexpr int kGroupsPerProducer = 16;
    constexpr int kTasksPerGroup = 32;
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&executor, &sum] {
            for (int g = 0; g < kGroupsPerProducer; ++g) {
                TaskGroup group(executor);
                for (int t = 0; t < kTasksPerGroup; ++t)
                    group.submit([&sum] { sum.fetch_add(1); });
                group.wait();
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(
                              kProducers * kGroupsPerProducer *
                              kTasksPerGroup));
    const Executor::Stats stats = executor.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.submitted,
              stats.executed); // every queued task ran on the pool
}

TEST(Executor, TryRunOneDrainsQueuedWork)
{
    Executor executor({.threads = 1});
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<bool> worker_busy{false};
    executor.submit([&worker_busy, gate] {
        worker_busy = true;
        gate.wait();
    });
    while (!worker_busy.load())
        std::this_thread::yield();

    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i)
        executor.submit([&ran] { ++ran; });
    while (executor.tryRunOne()) {
    }
    EXPECT_EQ(ran.load(), 4);
    EXPECT_GE(executor.stats().stolen, 4u); // helper pops are steals
    release.set_value();
}

} // namespace
} // namespace dc
