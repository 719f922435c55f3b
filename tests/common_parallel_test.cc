/**
 * @file
 * Tests for the parallel execution subsystem: chunk decomposition,
 * pool reuse and reconfiguration, exception propagation, work-stealing
 * scheduling (nested loops, concurrent top-level submitters, the
 * TaskGroup async API) and grain edge cases.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hh"

namespace cicero {
namespace {

/** Restores the automatic thread count when a test finishes. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/**
 * Yielding wait with a generous deadline: scheduling tests interlock
 * threads, and a lost-progress bug must surface as a test failure, not
 * a hung binary. Returns false on timeout.
 */
bool
waitUntil(const std::function<bool()> &cond)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!cond()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(ParallelTest, EveryIndexVisitedExactlyOnce)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    constexpr int n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(0, n, 7, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            visits[i].fetch_add(1);
    });
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, ChunksPartitionRangeInOrder)
{
    ThreadCountGuard guard;
    setParallelThreadCount(3);

    const std::int64_t begin = 5, end = 103, grain = 10;
    const std::size_t count = parallelChunkCount(begin, end, grain);
    ASSERT_GT(count, 0u);

    std::vector<std::pair<std::int64_t, std::int64_t>> ranges(count);
    std::vector<std::atomic<int>> seen(count);
    parallelForChunks(begin, end, grain,
                      [&](std::size_t c, std::int64_t b, std::int64_t e) {
                          ranges[c] = {b, e};
                          seen[c].fetch_add(1);
                      });

    std::int64_t expectB = begin;
    for (std::size_t c = 0; c < count; ++c) {
        EXPECT_EQ(seen[c].load(), 1);
        EXPECT_EQ(ranges[c].first, expectB);
        EXPECT_GT(ranges[c].second, ranges[c].first);
        EXPECT_LE(ranges[c].second - ranges[c].first, grain);
        expectB = ranges[c].second;
    }
    EXPECT_EQ(expectB, end);
}

TEST(ParallelTest, GrainEdgeCases)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    // Empty and inverted ranges: no invocation.
    int calls = 0;
    parallelFor(0, 0, 1, [&](std::int64_t, std::int64_t) { ++calls; });
    parallelFor(10, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(parallelChunkCount(0, 0, 1), 0u);
    EXPECT_EQ(parallelChunkCount(10, 3, 1), 0u);

    // Grain larger than the range: one chunk, run inline.
    std::atomic<int> single{0};
    parallelFor(0, 5, 100, [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 5);
        single.fetch_add(1);
    });
    EXPECT_EQ(single.load(), 1);
    EXPECT_EQ(parallelChunkCount(0, 5, 100), 1u);

    // Grain of one: one chunk per element.
    EXPECT_EQ(parallelChunkCount(0, 5, 1), 5u);

    // Auto grain (<= 0) resolves to something sane and consistent.
    std::int64_t g = parallelResolveGrain(1000, -1);
    EXPECT_GE(g, 1);
    EXPECT_EQ(parallelChunkCount(0, 1000, -1),
              static_cast<std::size_t>((1000 + g - 1) / g));

    // A single-element range works.
    std::atomic<int> one{0};
    parallelFor(41, 42, -1, [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(b, 41);
        EXPECT_EQ(e, 42);
        one.fetch_add(1);
    });
    EXPECT_EQ(one.load(), 1);
}

TEST(ParallelTest, PoolIsReusedAcrossManyLoops)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);
    EXPECT_EQ(parallelThreadCount(), 4);

    // Many back-to-back loops on the same pool: results stay exact and
    // nothing deadlocks or leaks workers.
    for (int iter = 0; iter < 200; ++iter) {
        std::atomic<std::int64_t> sum{0};
        parallelFor(0, 100, 9, [&](std::int64_t b, std::int64_t e) {
            std::int64_t local = 0;
            for (std::int64_t i = b; i < e; ++i)
                local += i;
            sum.fetch_add(local);
        });
        EXPECT_EQ(sum.load(), 99 * 100 / 2);
    }

    // Reconfiguration joins the old workers and keeps working.
    setParallelThreadCount(2);
    EXPECT_EQ(parallelThreadCount(), 2);
    setParallelThreadCount(1);
    EXPECT_EQ(parallelThreadCount(), 1);
    std::atomic<int> count{0};
    parallelFor(0, 50, 5, [&](std::int64_t b, std::int64_t e) {
        count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelTest, SingleThreadRunsInlineOnCaller)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);

    const std::thread::id caller = std::this_thread::get_id();
    parallelFor(0, 64, 4, [&](std::int64_t, std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelTest, ExceptionPropagatesToCaller)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    EXPECT_THROW(
        parallelFor(0, 100, 1,
                    [&](std::int64_t b, std::int64_t) {
                        if (b == 37)
                            throw std::runtime_error("chunk 37 failed");
                    }),
        std::runtime_error);

    // The pool survives a failed loop.
    std::atomic<int> ok{0};
    parallelFor(0, 10, 1, [&](std::int64_t, std::int64_t) {
        ok.fetch_add(1);
    });
    EXPECT_EQ(ok.load(), 10);

    // Serial fallback path propagates too.
    setParallelThreadCount(1);
    EXPECT_THROW(parallelFor(0, 4, 1,
                             [&](std::int64_t, std::int64_t) {
                                 throw std::logic_error("serial");
                             }),
                 std::logic_error);
}

TEST(ParallelTest, ThreadSpecParserAcceptsOnlyStrictPositiveIntegers)
{
    // Valid: decimal integers in [1, kMaxParallelThreads], surrounding
    // whitespace tolerated.
    EXPECT_EQ(parallelParseThreadSpec("1"), 1);
    EXPECT_EQ(parallelParseThreadSpec("8"), 8);
    EXPECT_EQ(parallelParseThreadSpec(" 16 "), 16);
    EXPECT_EQ(parallelParseThreadSpec("4096"), kMaxParallelThreads);

    // Invalid: anything else falls back to the automatic default.
    EXPECT_EQ(parallelParseThreadSpec(nullptr), 0);
    EXPECT_EQ(parallelParseThreadSpec(""), 0);
    EXPECT_EQ(parallelParseThreadSpec("   "), 0);
    EXPECT_EQ(parallelParseThreadSpec("0"), 0);
    EXPECT_EQ(parallelParseThreadSpec("-4"), 0);
    EXPECT_EQ(parallelParseThreadSpec("abc"), 0);
    EXPECT_EQ(parallelParseThreadSpec("8x"), 0);
    EXPECT_EQ(parallelParseThreadSpec("4,2"), 0);
    EXPECT_EQ(parallelParseThreadSpec("3.5"), 0);
    EXPECT_EQ(parallelParseThreadSpec("4097"), 0);
    EXPECT_EQ(parallelParseThreadSpec("99999999999999999999"), 0);
    EXPECT_EQ(parallelParseThreadSpec("0x8"), 0);
}

TEST(ParallelTest, NestedLoopsCompleteUnderStealing)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    EXPECT_FALSE(insideParallelWorker());

    // Nested loops participate in the pool: their chunks are scheduled
    // (and may be stolen by any thread) rather than running inline on
    // the submitter. Totals must stay exact regardless of who ran what.
    std::atomic<int> inner{0};
    std::mutex idsMutex;
    std::set<std::thread::id> innerThreads;
    parallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
        EXPECT_TRUE(insideParallelWorker());
        parallelFor(0, 256, 4, [&](std::int64_t b, std::int64_t e) {
            EXPECT_TRUE(insideParallelWorker());
            {
                std::lock_guard<std::mutex> lk(idsMutex);
                innerThreads.insert(std::this_thread::get_id());
            }
            inner.fetch_add(static_cast<int>(e - b));
        });
    });
    EXPECT_EQ(inner.load(), 8 * 256);
    EXPECT_GE(innerThreads.size(), 1u);
    EXPECT_FALSE(insideParallelWorker());

    // Three levels deep still drains.
    std::atomic<int> deep{0};
    parallelFor(0, 4, 1, [&](std::int64_t, std::int64_t) {
        parallelFor(0, 4, 1, [&](std::int64_t, std::int64_t) {
            parallelFor(0, 16, 2, [&](std::int64_t b, std::int64_t e) {
                deep.fetch_add(static_cast<int>(e - b));
            });
        });
    });
    EXPECT_EQ(deep.load(), 4 * 4 * 16);
}

TEST(ParallelTest, NestedChunkDecompositionMatchesTopLevel)
{
    // The determinism contract: chunk decomposition is a pure function
    // of (range, grain, thread count) — submitting from inside a
    // worker must produce exactly the chunks a top-level call would.
    ThreadCountGuard guard;
    setParallelThreadCount(3);

    const std::int64_t begin = 5, end = 103, grain = 10;
    const std::size_t count = parallelChunkCount(begin, end, grain);
    ASSERT_GT(count, 1u);

    std::vector<std::pair<std::int64_t, std::int64_t>> ranges(count);
    std::vector<std::atomic<int>> seen(count);
    parallelFor(0, 2, 1, [&](std::int64_t b, std::int64_t) {
        if (b != 0)
            return;
        parallelForChunks(begin, end, grain,
                          [&](std::size_t c, std::int64_t cb,
                              std::int64_t ce) {
                              ranges[c] = {cb, ce};
                              seen[c].fetch_add(1);
                          });
    });

    std::int64_t expectB = begin;
    for (std::size_t c = 0; c < count; ++c) {
        EXPECT_EQ(seen[c].load(), 1);
        EXPECT_EQ(ranges[c].first, expectB);
        EXPECT_LE(ranges[c].second - ranges[c].first, grain);
        expectB = ranges[c].second;
    }
    EXPECT_EQ(expectB, end);
}

TEST(ParallelTest, ConcurrentTopLevelSubmittersBothProgress)
{
    // Two threads submit independent top-level loops. The second loop
    // must complete *while the first is still in flight* — with a
    // serializing submit lock (the pre-work-stealing pool) this test
    // times out, because loop B could never start until loop A
    // drained, and loop A only drains once B has run.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    std::atomic<bool> aStarted{false};
    std::atomic<bool> bDone{false};
    std::atomic<bool> timedOut{false};

    std::thread submitterB([&] {
        if (!waitUntil([&] { return aStarted.load(); })) {
            timedOut.store(true);
            return;
        }
        std::atomic<std::int64_t> sum{0};
        parallelFor(0, 64, 8, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                sum.fetch_add(i);
        });
        EXPECT_EQ(sum.load(), 63 * 64 / 2);
        bDone.store(true);
    });

    parallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
        aStarted.store(true);
        if (!waitUntil([&] { return bDone.load() || timedOut.load(); }))
            timedOut.store(true);
    });
    submitterB.join();

    EXPECT_FALSE(timedOut.load());
    EXPECT_TRUE(bDone.load());
}

TEST(ParallelTest, TaskGroupRunsAsyncAndCompletesAtWait)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup group;
    std::atomic<bool> go{false};
    std::atomic<int> ran{0};
    std::atomic<bool> timedOut{false};
    for (int i = 0; i < 4; ++i) {
        group.run([&] {
            if (!waitUntil([&] { return go.load(); }))
                timedOut.store(true);
            ran.fetch_add(1);
        });
    }
    // run() must not execute the (blocked) tasks inline — reaching
    // this line at all proves submission is asynchronous.
    EXPECT_EQ(ran.load(), 0);
    go.store(true);
    group.wait();
    EXPECT_EQ(ran.load(), 4);
    EXPECT_FALSE(timedOut.load());

    // A group is reusable after wait().
    std::atomic<int> again{0};
    group.run([&] { again.fetch_add(1); });
    group.wait();
    EXPECT_EQ(again.load(), 1);
}

TEST(ParallelTest, TaskGroupOverlapsWithSubmitterLoop)
{
    // The Fig. 11b pipelining shape: a group task runs concurrently
    // with a parallel loop the submitting thread executes afterwards.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup group;
    std::atomic<bool> taskDone{false};
    group.run([&] { taskDone.store(true); });

    std::atomic<int> loop{0};
    parallelFor(0, 128, 8, [&](std::int64_t b, std::int64_t e) {
        loop.fetch_add(static_cast<int>(e - b));
    });
    group.wait();
    EXPECT_TRUE(taskDone.load());
    EXPECT_EQ(loop.load(), 128);
}

TEST(ParallelTest, TaskGroupPropagatesExceptions)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup group;
    group.run([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(group.wait(), std::runtime_error);

    // The error is consumed: the group keeps working afterwards.
    std::atomic<int> ok{0};
    group.run([&] { ok.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ok.load(), 1);

    // Single-thread pools execute inline but still defer the error to
    // wait().
    setParallelThreadCount(1);
    TaskGroup inlineGroup;
    inlineGroup.run([] { throw std::logic_error("inline"); });
    EXPECT_THROW(inlineGroup.wait(), std::logic_error);
}

TEST(ParallelTest, RunAfterChainExecutesInOrder)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup group;
    std::mutex m;
    std::vector<int> order;
    auto record = [&](int id) {
        std::lock_guard<std::mutex> lk(m);
        order.push_back(id);
    };
    TaskHandle a = group.run([&] { record(0); });
    TaskHandle b = group.runAfter({a}, [&] { record(1); });
    TaskHandle c = group.runAfter({b}, [&] { record(2); });
    (void)c;
    group.wait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

TEST(ParallelTest, RunAfterDiamondJoinsBothBranches)
{
    // a -> {b, c} -> d: d must observe both branches' writes, however
    // the scheduler interleaves them.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    for (int iter = 0; iter < 50; ++iter) {
        TaskGroup group;
        std::atomic<int> aDone{0}, bDone{0}, cDone{0};
        std::atomic<bool> joinSawBoth{false};
        TaskHandle a = group.run([&] { aDone.store(1); });
        TaskHandle b = group.runAfter({a}, [&] {
            EXPECT_EQ(aDone.load(), 1);
            bDone.store(1);
        });
        TaskHandle c = group.runAfter({a}, [&] {
            EXPECT_EQ(aDone.load(), 1);
            cDone.store(1);
        });
        group.runAfter({b, c}, [&] {
            joinSawBoth.store(bDone.load() == 1 && cDone.load() == 1);
        });
        group.wait();
        EXPECT_TRUE(joinSawBoth.load()) << "iter " << iter;
    }
}

TEST(ParallelTest, RunAfterCompletedOrInvalidDepsRunImmediately)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    // A dependency that already finished must not block the successor.
    TaskGroup group;
    std::atomic<int> first{0};
    TaskHandle a = group.run([&] { first.store(1); });
    group.wait();
    EXPECT_EQ(first.load(), 1);

    std::atomic<int> second{0};
    group.runAfter({a}, [&] { second.store(1); });
    group.wait();
    EXPECT_EQ(second.load(), 1);

    // Default-constructed (invalid) handles count as satisfied, as does
    // an empty dependency list.
    EXPECT_FALSE(TaskHandle{}.valid());
    EXPECT_TRUE(a.valid());
    std::atomic<int> third{0};
    group.runAfter({TaskHandle{}, a, TaskHandle{}},
                   [&] { third.fetch_add(1); });
    group.runAfter({}, [&] { third.fetch_add(1); });
    group.wait();
    EXPECT_EQ(third.load(), 2);
}

TEST(ParallelTest, RunAfterDependenciesAcrossGroups)
{
    // Dependencies may come from a different TaskGroup: each group's
    // wait() covers only its own tasks, but edges span groups.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup producers, consumers;
    std::atomic<bool> go{false};
    std::atomic<bool> timedOut{false};
    std::atomic<int> produced{0};
    TaskHandle p = producers.run([&] {
        if (!waitUntil([&] { return go.load(); }))
            timedOut.store(true);
        produced.store(1);
    });
    std::atomic<int> consumed{0};
    consumers.runAfter({p}, [&] {
        EXPECT_EQ(produced.load(), 1);
        consumed.store(1);
    });
    go.store(true);
    consumers.wait();
    EXPECT_EQ(consumed.load(), 1);
    producers.wait();
    EXPECT_FALSE(timedOut.load());
}

TEST(ParallelTest, RunAfterFailedGraphDrains)
{
    // A failing task must not strand its successors: the graph drains,
    // wait() reports the error, and the group stays usable.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    TaskGroup group;
    TaskHandle a =
        group.run([] { throw std::runtime_error("root failed"); });
    TaskHandle b = group.runAfter({a}, [] {});
    group.runAfter({b}, [] {});
    EXPECT_THROW(group.wait(), std::runtime_error);

    std::atomic<int> ok{0};
    group.run([&] { ok.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ok.load(), 1);
}

TEST(ParallelTest, RunAfterSingleThreadRunsInlineInSubmissionOrder)
{
    // On a 1-thread pool every dependency-satisfied task executes
    // inline at submission on the caller — the topological-submission
    // contract keeps graphs deadlock-free without workers.
    ThreadCountGuard guard;
    setParallelThreadCount(1);

    const std::thread::id caller = std::this_thread::get_id();
    TaskGroup group;
    std::vector<int> order;
    TaskHandle a = group.run([&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(0);
    });
    TaskHandle b = group.runAfter({a}, [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(1);
    });
    group.runAfter({a, b}, [&] { order.push_back(2); });
    // Inline execution means the tasks already ran before wait().
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    group.wait();
}

TEST(ParallelTest, SchedulerCountersAdvanceAndReset)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    parallelResetSchedulerCounters();
    std::atomic<int> n{0};
    parallelFor(0, 256, 4, [&](std::int64_t b, std::int64_t e) {
        n.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(n.load(), 256);
    SchedulerCounters afterLoop = parallelSchedulerCounters();
    EXPECT_GT(afterLoop.tasksExecuted, 0u);

    // Quiesce the pool before the reset: a worker the loop woke bumps
    // idleWakeups/idleNanos after its wait returns, unordered with the
    // loop's completion. Reconfiguring joins every worker, and a
    // stopping worker returns before it bumps.
    setParallelThreadCount(4);
    parallelResetSchedulerCounters();
    SchedulerCounters zeroed = parallelSchedulerCounters();
    EXPECT_EQ(zeroed.tasksExecuted, 0u);
    EXPECT_EQ(zeroed.steals, 0u);
    EXPECT_EQ(zeroed.idleWakeups, 0u);
    EXPECT_EQ(zeroed.idleNanos, 0u);
    EXPECT_EQ(zeroed.overflowMigrations, 0u);
    EXPECT_EQ(zeroed.depTasksSubmitted, 0u);
    EXPECT_EQ(zeroed.depStallNanos, 0u);
}

TEST(ParallelTest, SchedulerCountersSinceBracketsWithoutReset)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    std::atomic<int> n{0};
    auto burn = [&] {
        parallelFor(0, 256, 4, [&](std::int64_t b, std::int64_t e) {
            n.fetch_add(static_cast<int>(e - b));
        });
    };

    const SchedulerCounters base = parallelSchedulerCounters();
    burn();
    const SchedulerCounters delta = parallelSchedulerCountersSince(base);
    EXPECT_GE(delta.tasksExecuted, 256u / 4u);

    // Bracketing is reset-free: two measurers can overlap. An inner
    // bracket opened after more work sees only its own share.
    burn();
    const SchedulerCounters inner = parallelSchedulerCounters();
    burn();
    const SchedulerCounters innerDelta =
        parallelSchedulerCountersSince(inner);
    const SchedulerCounters outerDelta =
        parallelSchedulerCountersSince(base);
    EXPECT_GE(outerDelta.tasksExecuted,
              innerDelta.tasksExecuted + 2u * (256u / 4u));

    // A reset mid-bracket yanks the baseline below base: the delta
    // saturates at zero per field instead of wrapping.
    parallelResetSchedulerCounters();
    const SchedulerCounters saturated =
        parallelSchedulerCountersSince(base);
    EXPECT_EQ(saturated.tasksExecuted, 0u);
    EXPECT_EQ(saturated.steals, 0u);
    EXPECT_EQ(saturated.idleNanos, 0u);
    EXPECT_EQ(saturated.depTasksSubmitted, 0u);
}

TEST(ParallelTest, DependencyStallCountersMeasureDormantTasks)
{
    // A successor submitted behind a blocked dependency is dormant: it
    // must be counted as a dep-task and accrue stall time from
    // submission until the dependency resolves.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    parallelResetSchedulerCounters();
    TaskGroup group;
    std::atomic<bool> go{false};
    std::atomic<bool> timedOut{false};
    TaskHandle a = group.run([&] {
        if (!waitUntil([&] { return go.load(); }))
            timedOut.store(true);
    });
    std::atomic<int> ran{0};
    group.runAfter({a}, [&] { ran.fetch_add(1); });
    SchedulerCounters submitted = parallelSchedulerCounters();
    EXPECT_EQ(submitted.depTasksSubmitted, 1u);
    go.store(true);
    group.wait();
    EXPECT_FALSE(timedOut.load());
    EXPECT_EQ(ran.load(), 1);
    SchedulerCounters done = parallelSchedulerCounters();
    EXPECT_EQ(done.depTasksSubmitted, 1u);
    EXPECT_GT(done.depStallNanos, 0u);
}

TEST(ParallelTest, TaskGroupFromInsideWorker)
{
    // Groups submitted from inside a worker chunk (how the SPARW
    // pipeline overlaps a lookahead stage) drain without deadlock.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    std::atomic<int> total{0};
    parallelFor(0, 4, 1, [&](std::int64_t, std::int64_t) {
        TaskGroup group;
        group.run([&] {
            parallelFor(0, 64, 8, [&](std::int64_t b, std::int64_t e) {
                total.fetch_add(static_cast<int>(e - b));
            });
        });
        group.run([&] { total.fetch_add(1); });
        group.wait();
    });
    EXPECT_EQ(total.load(), 4 * (64 + 1));
}

} // namespace
} // namespace cicero
