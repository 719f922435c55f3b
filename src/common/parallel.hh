/**
 * @file
 * The parallel execution subsystem: a lazily-initialized global
 * work-stealing task scheduler and a chunked parallel-for on top of it.
 *
 * Design contract (see README "Threading model"):
 *  - Work is split into contiguous chunks of a deterministic size; the
 *    chunk decomposition depends only on (range, grain, thread count),
 *    never on scheduling. Callers that must merge per-chunk results in
 *    a deterministic order index them by chunk id via
 *    parallelForChunks() / parallelChunkCount(). Work stealing moves
 *    *which thread* runs a chunk, never *what* the chunk is.
 *  - The worker count comes from CICERO_THREADS (default:
 *    hardware_concurrency) and can be overridden programmatically with
 *    setParallelThreadCount(); with one thread every loop runs serially
 *    inline, so single-thread runs never touch the pool.
 *  - Every thread that submits work owns a deque of tasks. A submitter
 *    pushes its chunks there and drains them help-first (newest-first,
 *    so a nested loop's chunks run before the enclosing level's), while
 *    idle pool workers steal oldest-first from any thread's deque.
 *    Concurrent top-level submitters therefore make progress
 *    simultaneously, and a nested parallelFor issued from inside a
 *    worker participates in the pool instead of degrading to
 *    inline-serial: the submitting worker executes chunks of its own
 *    loop while thieves take the rest.
 *  - TaskGroup is the async-submit primitive the loops are built from:
 *    run() enqueues a task and returns immediately; wait() helps
 *    execute the group's tasks, then blocks until all complete.
 *    runAfter() is the continuation/dependency layer on top: a task may
 *    be submitted with predecessor handles and stays dormant until its
 *    last dependency completes — dependency-graph pipelines (SPARW's
 *    per-window schedule, the streaming renderer's merge/walk chain) are
 *    built from it.
 *  - The first exception thrown by a chunk (or group task) is captured
 *    and rethrown to the waiter once the loop has drained; remaining
 *    chunks are skipped on a best-effort basis. Dormant dependency
 *    tasks still fire (and are then skipped), so a failed graph always
 *    drains.
 *  - A task must not block waiting on work that only runs after its
 *    own loop returns (the usual help-first scheduler caveat), and a
 *    dependency edge must never point forward to a task submitted
 *    later from inside the dependent's own subgraph (cycles deadlock).
 *  - The scheduler keeps process-global counters (steals, idle
 *    wakeups, measured idle time, overflow-lane migrations,
 *    dependency-stall time) so benches report *measured* idle
 *    breakdowns instead of wall-clock estimates.
 */

#ifndef CICERO_COMMON_PARALLEL_HH
#define CICERO_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace cicero {

namespace detail {
struct ParallelTaskState;
struct DepTaskNode;
} // namespace detail

/** Upper bound on an explicitly requested worker count. */
constexpr int kMaxParallelThreads = 4096;

/**
 * Number of threads parallel loops use (pool workers + the calling
 * thread). Initializes the pool on first use: CICERO_THREADS if it
 * parses per parallelParseThreadSpec(), otherwise
 * std::thread::hardware_concurrency() (an invalid CICERO_THREADS is
 * reported once on stderr and then ignored).
 */
int parallelThreadCount();

/**
 * Strict parser for a CICERO_THREADS-style thread-count spec: a
 * decimal integer in [1, kMaxParallelThreads], surrounding whitespace
 * allowed. Returns the count, or 0 if @p text is null, empty,
 * non-numeric, has trailing garbage, is zero/negative, or overflows
 * the range — callers treat 0 as "fall back to the automatic default".
 */
int parallelParseThreadSpec(const char *text);

/**
 * Reconfigure the pool to @p n threads; n <= 0 re-applies the automatic
 * default (CICERO_THREADS / hardware_concurrency). Joins the previous
 * workers. Must not race with an in-flight parallel loop.
 */
void setParallelThreadCount(int n);

/**
 * Process-global scheduler counters, cumulative since process start (or
 * the last parallelResetSchedulerCounters()). These are *measured*
 * quantities — benches report them instead of estimating idle time
 * from wall clocks.
 */
struct SchedulerCounters
{
    std::uint64_t steals = 0;          //!< tasks taken from another thread's lane
    std::uint64_t idleWakeups = 0;     //!< times a sleeping thread was woken
    std::uint64_t idleNanos = 0;       //!< wall time threads spent asleep waiting for work
    std::uint64_t overflowMigrations = 0; //!< tasks migrated to the overflow lane at thread exit
    std::uint64_t tasksExecuted = 0;   //!< tasks (chunks + group tasks) run
    std::uint64_t depTasksSubmitted = 0; //!< tasks submitted via TaskGroup::runAfter with live deps
    std::uint64_t depStallNanos = 0;   //!< dormant time: submission until the last dependency resolved
    std::uint64_t tasksDrained = 0;    //!< tasks skipped (not run) because their group failed or was cancelled
    std::uint64_t groupsCancelled = 0; //!< TaskGroup::cancel() calls
    std::uint64_t kernelBatchPasses = 0; //!< batched compute-kernel invocations (parallelNoteKernelBatch)
    std::uint64_t kernelBatchItems = 0;  //!< items those invocations processed (avg = items / passes)
};

/** Snapshot the scheduler counters (safe concurrently with running work). */
SchedulerCounters parallelSchedulerCounters();

/**
 * Record one batched compute-kernel invocation over @p items items
 * (e.g. an Mlp::forwardBatch pass over its sample count). Kernels call
 * this so benches can report *measured* batch density —
 * kernelBatchItems / kernelBatchPasses — instead of inferring it from
 * layer traffic. Lock-free relaxed counters; safe from any thread.
 */
void parallelNoteKernelBatch(std::uint64_t items);

/**
 * Delta of the current counters against @p base, per field, saturating
 * at zero (a field below its baseline means the globals were reset
 * mid-bracket). This is the bracketing primitive safe for *concurrent*
 * top-level measurers: snapshot, run, subtract — no shared reset to
 * race on, so concurrent measurers (a bench leg, perfbench's report,
 * several service sessions) can bracket the same process at once.
 */
SchedulerCounters
parallelSchedulerCountersSince(const SchedulerCounters &base);

/**
 * Zero the scheduler counters. Meant for bench bracketing; calling it
 * while loops are in flight is harmless but splits their counts across
 * the reset. Prefer parallelSchedulerCountersSince() bracketing when
 * anything else might be measuring concurrently — a reset here yanks
 * every other measurer's baseline.
 */
void parallelResetSchedulerCounters();

/**
 * Resolve the chunk size a loop over @p n items with requested grain
 * @p grain will use. grain > 0 is honored as-is; grain <= 0 picks a
 * default that yields several chunks per thread for load balance.
 */
std::int64_t parallelResolveGrain(std::int64_t n, std::int64_t grain);

/**
 * Number of chunks parallelFor/parallelForChunks will decompose
 * [@p begin, @p end) into at grain @p grain (resolved as above).
 */
std::size_t parallelChunkCount(std::int64_t begin, std::int64_t end,
                               std::int64_t grain);

/**
 * Chunked parallel loop: invokes @p fn(chunkBegin, chunkEnd) for each
 * chunk of [@p begin, @p end), concurrently on the global pool. The
 * calling thread participates. Returns when every chunk completed.
 * May be called from inside a worker: the nested loop's chunks are
 * scheduled like any other work (and stolen by idle threads) while the
 * submitter drains them help-first.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)> &fn);

/**
 * As parallelFor, but @p fn also receives the chunk index
 * (0 .. parallelChunkCount()-1, in range order), so per-chunk partial
 * results can be merged deterministically after the loop. Chunk k spans
 * [begin + k*g, min(begin + (k+1)*g, end)) with g the resolved grain.
 */
void parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::size_t, std::int64_t, std::int64_t)> &fn);

/**
 * Outer-level loop over @p n independent heavy units (frames, windows,
 * whole renders): invokes @p fn(i) for i in [0, n). One chunk per unit;
 * the units' *internal* parallelFor loops participate in the pool via
 * work stealing, so going wide over even a handful of units no longer
 * idles the remaining threads.
 */
void parallelForOuter(std::int64_t n,
                      const std::function<void(std::int64_t)> &fn);

/** True while the current thread is executing a scheduled task. */
bool insideParallelWorker();

/**
 * Handle to a task submitted through a TaskGroup, usable as a
 * dependency of a later TaskGroup::runAfter() submission. Copyable and
 * cheap; a default-constructed handle is invalid and is ignored when
 * passed as a dependency (treated as already satisfied).
 */
class TaskHandle
{
  public:
    TaskHandle() = default;

    /** True if this handle refers to a submitted task. */
    bool valid() const { return _node != nullptr; }

  private:
    friend class TaskGroup;
    std::shared_ptr<detail::DepTaskNode> _node;
};

/**
 * A set of asynchronously submitted tasks: run() enqueues work on the
 * scheduler and returns immediately; wait() helps execute the group's
 * tasks, blocks until all have completed, and rethrows the first
 * captured exception. Usable from any thread, including from inside a
 * worker (the tasks are then stolen by idle threads — this is how
 * frame-level pipelines overlap independent stages). The destructor
 * waits for outstanding tasks but discards their errors; call wait()
 * to observe them. A group is reusable after wait() returns. Not
 * thread-safe: external synchronization is required to call run()/
 * wait() on one group from several threads at once.
 *
 * runAfter() adds the continuation layer: the task is enqueued with a
 * predecessor count and stays dormant until its last dependency
 * completes, at which point it becomes stealable like any other task.
 * Dependencies may come from any group (the handle carries its own
 * group's bookkeeping), may already be complete (the task then fires
 * immediately), and fire their dependents even when they were skipped
 * by a failure — a graph always drains. Cycles are the caller's bug
 * and deadlock.
 *
 * With a one-thread pool a task whose dependencies are all complete
 * executes inline at submission (single-thread runs never touch the
 * pool), so a graph submitted in topological order runs serially in
 * submission order; the error still surfaces at wait().
 *
 * A task's captures are destroyed on the thread that ran it, strictly
 * *after* the task counts as complete. A capture holding the last
 * shared_ptr to an object that owns the task's own group is therefore
 * safe: the owner (group included) is destructed on that worker once
 * the group already observes the task as done.
 */
class TaskGroup
{
  public:
    TaskGroup();
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Enqueue @p fn; returns without waiting for it to run. */
    TaskHandle run(std::function<void()> fn);

    /**
     * Enqueue @p fn to run once every task in @p deps has completed;
     * returns without waiting. Invalid handles in @p deps are ignored.
     */
    TaskHandle runAfter(const std::vector<TaskHandle> &deps,
                        std::function<void()> fn);

    /**
     * Cooperatively cancel the group: tasks that have not started yet
     * (including dormant runAfter dependents) are drained — they fire,
     * count as complete, release their dependents, and are counted in
     * SchedulerCounters::tasksDrained — but their bodies never run.
     * Tasks already executing finish normally. cancel() itself does not
     * make wait() throw; an exception captured before the cancel still
     * surfaces there. Safe to call from any thread, including from
     * inside one of the group's own tasks.
     */
    void cancel();

    /** True once cancel() was called (cleared by the next wait()). */
    bool cancelled() const;

    /**
     * Help-execute and then block until every submitted task has
     * completed; rethrows the first exception a task threw. Resets the
     * failure and cancellation state, so the group is reusable.
     */
    void wait();

  private:
    std::shared_ptr<detail::ParallelTaskState> _state;
};

/**
 * Run @p fn(part, begin, end) over chunks of [0, n) and return the
 * per-chunk partials in chunk order. Pairing the chunk count and the
 * loop decomposition inside one call is the determinism-critical
 * invariant every ordered merge relies on — stated once here.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMapChunks(std::int64_t n, Fn &&fn)
{
    const std::size_t chunks = parallelChunkCount(0, n, -1);
    std::vector<T> parts(chunks);
    parallelForChunks(0, n, -1,
                      [&](std::size_t c, std::int64_t b, std::int64_t e) {
                          fn(parts[c], b, e);
                      });
    return parts;
}

/** Concatenate per-chunk lists in chunk order. */
template <typename T>
std::vector<T>
concatChunks(const std::vector<std::vector<T>> &parts)
{
    std::size_t total = 0;
    for (const auto &p : parts)
        total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

/**
 * Run @p fn(list, begin, end) over chunks of [0, n) and concatenate
 * the per-chunk lists in chunk order, reproducing the serial
 * traversal order exactly.
 */
template <typename T, typename Fn>
std::vector<T>
parallelConcatChunks(std::int64_t n, Fn &&fn)
{
    return concatChunks(
        parallelMapChunks<std::vector<T>>(n, std::forward<Fn>(fn)));
}

} // namespace cicero

#endif // CICERO_COMMON_PARALLEL_HH
