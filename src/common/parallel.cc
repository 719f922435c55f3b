#include "common/parallel.hh"

#include "common/fault.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace cicero {

namespace detail {

/**
 * Completion tracking shared by one loop or one TaskGroup: how many
 * tasks are outstanding, whether one failed (remaining tasks are then
 * skipped best-effort) or was cancelled (remaining tasks are drained
 * without running), and the first captured exception.
 */
struct ParallelTaskState
{
    std::atomic<std::size_t> pending{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> cancelled{false};

    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::exception_ptr error;  //!< guarded by doneMutex
    std::uint64_t epoch = 0;   //!< bumped per submission; guarded by doneMutex
};

/**
 * One task submitted through a TaskGroup, possibly dormant behind
 * dependencies. `waits` counts unresolved dependencies plus one
 * submission latch (held by runAfter() while it registers with each
 * dependency, so a dep completing mid-registration cannot fire the
 * task early); whoever drops `waits` to zero enqueues the task.
 * Completion — including the skipped-by-failure case — sets `done`
 * under `m` and fires the collected successors, so a failed graph
 * always drains.
 */
struct DepTaskNode
{
    std::shared_ptr<ParallelTaskState> state;
    std::function<void()> fn;

    std::mutex m;
    bool done = false;                                    //!< guarded by m
    std::vector<std::shared_ptr<DepTaskNode>> successors; //!< guarded by m
    std::atomic<std::size_t> waits{0};

    //! Set when submitted with >=1 live dependency; submitTime then
    //! feeds the dependency-stall counter once the task becomes ready.
    bool stalled = false;
    std::chrono::steady_clock::time_point submitTime;
};

} // namespace detail

namespace {

using detail::DepTaskNode;
using detail::ParallelTaskState;

thread_local bool tInsideWorker = false;

/**
 * Process-global scheduler counters. Plain atomics bumped with relaxed
 * ordering — they are statistics, not synchronization.
 */
struct CounterBlock
{
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idleWakeups{0};
    std::atomic<std::uint64_t> idleNanos{0};
    std::atomic<std::uint64_t> overflowMigrations{0};
    std::atomic<std::uint64_t> tasksExecuted{0};
    std::atomic<std::uint64_t> depTasksSubmitted{0};
    std::atomic<std::uint64_t> depStallNanos{0};
    std::atomic<std::uint64_t> tasksDrained{0};
    std::atomic<std::uint64_t> groupsCancelled{0};
    std::atomic<std::uint64_t> kernelBatchPasses{0};
    std::atomic<std::uint64_t> kernelBatchItems{0};
};

CounterBlock &
counters()
{
    static CounterBlock c;
    return c;
}

inline void
bump(std::atomic<std::uint64_t> &c, std::uint64_t n = 1)
{
    c.fetch_add(n, std::memory_order_relaxed);
}

inline std::uint64_t
nanosSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/** One schedulable unit: a loop chunk or a TaskGroup function. */
struct Task
{
    std::shared_ptr<ParallelTaskState> state;
    std::function<void()> fn;
    std::shared_ptr<DepTaskNode> node; //!< null for loop chunks
};

/** Enqueue a dependency node whose `waits` just reached zero. */
void enqueueReady(std::shared_ptr<DepTaskNode> node);

/**
 * A per-thread work deque. The owning thread pushes and pops at the
 * back (newest-first, so nested submissions drain help-first); thieves
 * take from the front (oldest-first). A mutex per lane keeps the
 * implementation obviously correct — tasks are coarse (a chunk spans
 * many items), so the lock is cold.
 */
struct Lane
{
    std::mutex m;
    std::deque<Task> q;
};

/**
 * Global registry of lanes thieves may scan, plus the sleep/wake
 * channel for idle workers. Held via shared_ptr by the pool, every
 * worker, and every submitting thread's thread-local handle, so static
 * destruction order cannot leave a dangling reference.
 */
struct LaneRegistry
{
    std::mutex m;
    std::vector<std::shared_ptr<Lane>> lanes; //!< guarded by m
    std::shared_ptr<Lane> overflow;           //!< never unregistered

    std::condition_variable cv;
    std::atomic<std::uint64_t> version{0}; //!< bumped on every push
    bool stop = false;                     //!< guarded by m

    LaneRegistry() : overflow(std::make_shared<Lane>())
    {
        lanes.push_back(overflow);
    }
};

std::shared_ptr<LaneRegistry>
laneRegistry()
{
    static std::shared_ptr<LaneRegistry> reg =
        std::make_shared<LaneRegistry>();
    return reg;
}

/**
 * Registers the calling thread's lane for the life of the thread.
 * Should a thread exit with queued tasks (a TaskGroup submitter that
 * never waited), the leftovers migrate to the overflow lane so they
 * are still stolen and the group's waiter cannot hang.
 */
struct LaneHandle
{
    std::shared_ptr<LaneRegistry> reg = laneRegistry();
    std::shared_ptr<Lane> lane = std::make_shared<Lane>();

    LaneHandle()
    {
        std::lock_guard<std::mutex> lk(reg->m);
        reg->lanes.push_back(lane);
    }

    ~LaneHandle()
    {
        std::deque<Task> leftovers;
        {
            std::lock_guard<std::mutex> lk(lane->m);
            leftovers.swap(lane->q);
        }
        {
            std::lock_guard<std::mutex> lk(reg->m);
            auto &ls = reg->lanes;
            ls.erase(std::remove(ls.begin(), ls.end(), lane), ls.end());
            if (!leftovers.empty()) {
                bump(counters().overflowMigrations, leftovers.size());
                std::lock_guard<std::mutex> olk(reg->overflow->m);
                for (Task &t : leftovers)
                    reg->overflow->q.push_back(std::move(t));
            }
        }
        reg->version.fetch_add(1);
        reg->cv.notify_all();
    }
};

LaneHandle &
myLane()
{
    static thread_local LaneHandle handle;
    return handle;
}

/**
 * Mark a dependency node complete and fire its successors. Runs even
 * when the node's fn was skipped by a failed group, so dormant
 * dependents never leak and a failed graph drains.
 */
void
finishNode(std::shared_ptr<DepTaskNode> node)
{
    std::vector<std::shared_ptr<DepTaskNode>> succs;
    {
        std::lock_guard<std::mutex> lk(node->m);
        node->done = true;
        succs.swap(node->successors);
    }
    for (std::shared_ptr<DepTaskNode> &s : succs)
        if (s->waits.fetch_sub(1, std::memory_order_acq_rel) == 1)
            enqueueReady(std::move(s));
}

/** Execute one task, capturing its error into the shared state. */
void
runTask(Task &task)
{
    ParallelTaskState &state = *task.state;
    bool wasInside = tInsideWorker;
    tInsideWorker = true;
    if (state.failed.load(std::memory_order_acquire) ||
        state.cancelled.load(std::memory_order_acquire)) {
        // Drain without running: the task still counts as complete and
        // fires its dependents below, so a failed/cancelled graph never
        // leaks dormant tasks or deadlocks its waiter.
        bump(counters().tasksDrained);
    } else {
        try {
            faultCheck(FaultSite::TaskExec);
            task.fn();
        } catch (...) {
            std::lock_guard<std::mutex> lk(state.doneMutex);
            if (!state.error)
                state.error = std::current_exception();
            state.failed.store(true, std::memory_order_release);
        }
    }
    tInsideWorker = wasInside;
    bump(counters().tasksExecuted);
    if (task.node)
        finishNode(std::move(task.node));
    if (state.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(state.doneMutex);
        state.doneCv.notify_all();
    }
    // Drop the captures only after the decrement is published: a
    // capture may hold the last reference to the object that owns this
    // task's own TaskGroup, and the group destructor re-enters
    // helpUntilDone — it must observe pending == 0 rather than wait
    // forever on the very task that is destroying it.
    task.fn = nullptr;
}

bool
popLocal(Lane &lane, Task &out)
{
    std::lock_guard<std::mutex> lk(lane.m);
    if (lane.q.empty())
        return false;
    out = std::move(lane.q.back());
    lane.q.pop_back();
    return true;
}

std::vector<std::shared_ptr<Lane>>
snapshotLanes(LaneRegistry &reg)
{
    std::lock_guard<std::mutex> lk(reg.m);
    return reg.lanes;
}

/** Steal the oldest task of any lane but @p own. */
bool
stealAny(LaneRegistry &reg, const Lane *own, Task &out)
{
    static thread_local std::size_t rr = 0;
    std::vector<std::shared_ptr<Lane>> lanes = snapshotLanes(reg);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        Lane &lane = *lanes[(rr + i) % lanes.size()];
        if (&lane == own)
            continue;
        std::lock_guard<std::mutex> lk(lane.m);
        if (lane.q.empty())
            continue;
        out = std::move(lane.q.front());
        lane.q.pop_front();
        ++rr;
        bump(counters().steals);
        return true;
    }
    return false;
}

/**
 * Steal the oldest task *belonging to @p state* from any lane. Used by
 * waiters: tasks of the awaited group may sit in other threads' lanes
 * (pushed there by other submitters), and a waiter that only popped
 * locally could sleep while no pool worker is free to steal them.
 */
bool
stealForState(LaneRegistry &reg, const Lane *own,
              const ParallelTaskState *state, Task &out)
{
    std::vector<std::shared_ptr<Lane>> lanes = snapshotLanes(reg);
    for (const std::shared_ptr<Lane> &laneP : lanes) {
        Lane &lane = *laneP;
        std::lock_guard<std::mutex> lk(lane.m);
        for (auto it = lane.q.begin(); it != lane.q.end(); ++it) {
            if (it->state.get() != state)
                continue;
            out = std::move(*it);
            lane.q.erase(it);
            if (&lane != own)
                bump(counters().steals);
            return true;
        }
    }
    return false;
}

/**
 * Publish @p tasks on the calling thread's lane and wake sleepers.
 * pending must have been raised before the push: a thief may run a
 * task the instant it is visible.
 */
void
pushTasks(LaneHandle &h, std::vector<Task> &&tasks,
          ParallelTaskState &state)
{
    {
        std::lock_guard<std::mutex> lk(h.lane->m);
        for (Task &t : tasks)
            h.lane->q.push_back(std::move(t));
    }
    {
        std::lock_guard<std::mutex> lk(state.doneMutex);
        ++state.epoch;
    }
    h.reg->version.fetch_add(1);
    h.reg->cv.notify_all();
    state.doneCv.notify_all();
}

/**
 * Help-first drain: execute local tasks (newest-first — the just-
 * pushed loop's chunks), then tasks of @p state wherever they queue,
 * and finally sleep until the state's stragglers (running on other
 * threads) complete or new same-state work is submitted.
 */
void
helpUntilDone(LaneHandle &h, ParallelTaskState &state)
{
    for (;;) {
        if (state.pending.load(std::memory_order_acquire) == 0)
            return;
        std::uint64_t epoch0;
        {
            std::lock_guard<std::mutex> lk(state.doneMutex);
            epoch0 = state.epoch;
        }
        Task task;
        if (popLocal(*h.lane, task) ||
            stealForState(*h.reg, h.lane.get(), &state, task)) {
            runTask(task);
            continue;
        }
        auto t0 = std::chrono::steady_clock::now();
        {
            std::unique_lock<std::mutex> lk(state.doneMutex);
            state.doneCv.wait(lk, [&state, epoch0] {
                return state.pending.load(std::memory_order_acquire) ==
                           0 ||
                       state.epoch != epoch0;
            });
        }
        bump(counters().idleWakeups);
        bump(counters().idleNanos, nanosSince(t0));
    }
}

/**
 * The global scheduler: owns the worker threads. Workers execute any
 * task from any lane; submitting threads (external callers and
 * workers issuing nested loops alike) push to their own lane and
 * drain help-first. There is no per-loop submit lock — concurrent
 * top-level submitters run on the pool simultaneously.
 */
class Pool
{
  public:
    ~Pool()
    {
        std::lock_guard<std::mutex> lk(_configMutex);
        stopWorkersLocked();
        _threads.store(1, std::memory_order_relaxed);
    }

    int
    threadCount()
    {
        int n = _threads.load(std::memory_order_acquire);
        if (n != 0)
            return n;
        std::lock_guard<std::mutex> lk(_configMutex);
        ensureStartedLocked();
        return _threads.load(std::memory_order_relaxed);
    }

    void
    configure(int n)
    {
        std::lock_guard<std::mutex> lk(_configMutex);
        stopWorkersLocked();
        _threads.store(n > 0 ? n : autoThreadCount(),
                       std::memory_order_release);
        startWorkersLocked();
    }

    void
    run(std::int64_t begin, std::int64_t end, std::int64_t grain,
        const std::function<void(std::size_t, std::int64_t, std::int64_t)>
            &fn)
    {
        std::int64_t n = end - begin;
        std::int64_t g = parallelResolveGrain(n, grain);
        std::size_t chunks = static_cast<std::size_t>((n + g - 1) / g);

        // Serial fallback: one chunk or a one-thread pool. (A nested
        // call no longer runs inline — its chunks are scheduled and
        // stolen like any other work.)
        if (chunks <= 1 || threadCount() <= 1) {
            for (std::size_t c = 0; c < chunks; ++c) {
                std::int64_t b = begin + static_cast<std::int64_t>(c) * g;
                std::int64_t e = std::min(b + g, end);
                fn(c, b, e);
            }
            return;
        }

        auto state = std::make_shared<ParallelTaskState>();
        state->pending.store(chunks, std::memory_order_relaxed);

        // One task per chunk. The decomposition is pure arithmetic on
        // (begin, end, g) — scheduling decides only who runs a chunk.
        std::vector<Task> tasks;
        tasks.reserve(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
            tasks.push_back(Task{
                state, [&fn, begin, end, g, c] {
                    std::int64_t b =
                        begin + static_cast<std::int64_t>(c) * g;
                    std::int64_t e = std::min(b + g, end);
                    fn(c, b, e);
                },
                nullptr});
        }

        LaneHandle &h = myLane();
        pushTasks(h, std::move(tasks), *state);
        helpUntilDone(h, *state);

        std::lock_guard<std::mutex> lk(state->doneMutex);
        if (state->error)
            std::rethrow_exception(state->error);
    }

  private:
    static int
    autoThreadCount()
    {
        if (const char *env = std::getenv("CICERO_THREADS")) {
            int v = parallelParseThreadSpec(env);
            if (v > 0)
                return v;
            // Warn once: a typo'd override silently running at a
            // different width is exactly the surprise the strict
            // parser exists to prevent.
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true))
                std::fprintf(stderr,
                             "cicero: ignoring invalid CICERO_THREADS="
                             "\"%s\" (want an integer in [1, %d]); "
                             "falling back to hardware concurrency\n",
                             env, kMaxParallelThreads);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }

    void
    ensureStartedLocked()
    {
        if (_threads.load(std::memory_order_relaxed) == 0) {
            _threads.store(autoThreadCount(), std::memory_order_release);
            startWorkersLocked();
        }
    }

    void
    startWorkersLocked()
    {
        {
            std::lock_guard<std::mutex> lk(_reg->m);
            _reg->stop = false;
        }
        int n = _threads.load(std::memory_order_relaxed);
        for (int i = 0; i + 1 < n; ++i)
            _workers.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkersLocked()
    {
        {
            std::lock_guard<std::mutex> lk(_reg->m);
            _reg->stop = true;
        }
        _reg->version.fetch_add(1);
        _reg->cv.notify_all();
        for (std::thread &t : _workers)
            t.join();
        _workers.clear();
    }

    void
    workerLoop()
    {
        tInsideWorker = true;
        LaneHandle &h = myLane();
        LaneRegistry &reg = *h.reg;
        for (;;) {
            std::uint64_t version0 = reg.version.load();
            Task task;
            if (popLocal(*h.lane, task) ||
                stealAny(reg, h.lane.get(), task)) {
                runTask(task);
                continue;
            }
            auto t0 = std::chrono::steady_clock::now();
            {
                std::unique_lock<std::mutex> lk(reg.m);
                if (reg.stop)
                    return;
                reg.cv.wait(lk, [&reg, version0] {
                    return reg.stop || reg.version.load() != version0;
                });
                if (reg.stop)
                    return;
            }
            bump(counters().idleWakeups);
            bump(counters().idleNanos, nanosSince(t0));
        }
    }

    std::mutex _configMutex; //!< guards worker lifecycle + _threads init
    std::shared_ptr<LaneRegistry> _reg = laneRegistry();
    std::vector<std::thread> _workers;
    std::atomic<int> _threads{0}; //!< 0 = not yet initialized
};

Pool &
pool()
{
    static Pool p;
    return p;
}

void
enqueueReady(std::shared_ptr<DepTaskNode> node)
{
    if (node->stalled)
        bump(counters().depStallNanos, nanosSince(node->submitTime));
    std::shared_ptr<ParallelTaskState> state = node->state;
    Task task{state, std::move(node->fn), std::move(node)};
    if (pool().threadCount() <= 1) {
        // Single-thread runs never touch the pool: a task whose deps
        // are satisfied executes inline, so a graph submitted in
        // topological order runs serially in submission order.
        runTask(task);
        return;
    }
    LaneHandle &h = myLane();
    std::vector<Task> tasks;
    tasks.push_back(std::move(task));
    pushTasks(h, std::move(tasks), *state);
}

} // namespace

int
parallelParseThreadSpec(const char *text)
{
    if (!text)
        return 0;
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text)
        return 0; // empty or non-numeric
    while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r')
        ++end;
    if (*end != '\0')
        return 0; // trailing garbage ("8x", "4,2", ...)
    if (errno == ERANGE || v < 1 || v > kMaxParallelThreads)
        return 0; // zero, negative, or absurd
    return static_cast<int>(v);
}

int
parallelThreadCount()
{
    return pool().threadCount();
}

void
setParallelThreadCount(int n)
{
    pool().configure(n);
}

SchedulerCounters
parallelSchedulerCounters()
{
    CounterBlock &c = counters();
    SchedulerCounters out;
    out.steals = c.steals.load(std::memory_order_relaxed);
    out.idleWakeups = c.idleWakeups.load(std::memory_order_relaxed);
    out.idleNanos = c.idleNanos.load(std::memory_order_relaxed);
    out.overflowMigrations =
        c.overflowMigrations.load(std::memory_order_relaxed);
    out.tasksExecuted = c.tasksExecuted.load(std::memory_order_relaxed);
    out.depTasksSubmitted =
        c.depTasksSubmitted.load(std::memory_order_relaxed);
    out.depStallNanos = c.depStallNanos.load(std::memory_order_relaxed);
    out.tasksDrained = c.tasksDrained.load(std::memory_order_relaxed);
    out.groupsCancelled =
        c.groupsCancelled.load(std::memory_order_relaxed);
    out.kernelBatchPasses =
        c.kernelBatchPasses.load(std::memory_order_relaxed);
    out.kernelBatchItems =
        c.kernelBatchItems.load(std::memory_order_relaxed);
    return out;
}

void
parallelNoteKernelBatch(std::uint64_t items)
{
    CounterBlock &c = counters();
    bump(c.kernelBatchPasses);
    bump(c.kernelBatchItems, items);
}

SchedulerCounters
parallelSchedulerCountersSince(const SchedulerCounters &base)
{
    // Saturating per-field subtraction: a counter below its baseline
    // means someone reset the globals mid-bracket — report 0 for that
    // field instead of a wrapped-around garbage delta.
    auto delta = [](std::uint64_t now, std::uint64_t then) {
        return now >= then ? now - then : std::uint64_t(0);
    };
    const SchedulerCounters now = parallelSchedulerCounters();
    SchedulerCounters out;
    out.steals = delta(now.steals, base.steals);
    out.idleWakeups = delta(now.idleWakeups, base.idleWakeups);
    out.idleNanos = delta(now.idleNanos, base.idleNanos);
    out.overflowMigrations =
        delta(now.overflowMigrations, base.overflowMigrations);
    out.tasksExecuted = delta(now.tasksExecuted, base.tasksExecuted);
    out.depTasksSubmitted =
        delta(now.depTasksSubmitted, base.depTasksSubmitted);
    out.depStallNanos = delta(now.depStallNanos, base.depStallNanos);
    out.tasksDrained = delta(now.tasksDrained, base.tasksDrained);
    out.groupsCancelled = delta(now.groupsCancelled, base.groupsCancelled);
    out.kernelBatchPasses =
        delta(now.kernelBatchPasses, base.kernelBatchPasses);
    out.kernelBatchItems =
        delta(now.kernelBatchItems, base.kernelBatchItems);
    return out;
}

void
parallelResetSchedulerCounters()
{
    CounterBlock &c = counters();
    c.steals.store(0, std::memory_order_relaxed);
    c.idleWakeups.store(0, std::memory_order_relaxed);
    c.idleNanos.store(0, std::memory_order_relaxed);
    c.overflowMigrations.store(0, std::memory_order_relaxed);
    c.tasksExecuted.store(0, std::memory_order_relaxed);
    c.depTasksSubmitted.store(0, std::memory_order_relaxed);
    c.depStallNanos.store(0, std::memory_order_relaxed);
    c.tasksDrained.store(0, std::memory_order_relaxed);
    c.groupsCancelled.store(0, std::memory_order_relaxed);
    c.kernelBatchPasses.store(0, std::memory_order_relaxed);
    c.kernelBatchItems.store(0, std::memory_order_relaxed);
}

std::int64_t
parallelResolveGrain(std::int64_t n, std::int64_t grain)
{
    if (grain > 0)
        return grain;
    if (n <= 0)
        return 1;
    // Several chunks per thread so uneven per-item cost load-balances.
    std::int64_t threads = parallelThreadCount();
    std::int64_t target = threads * 8;
    return std::max<std::int64_t>(1, (n + target - 1) / target);
}

std::size_t
parallelChunkCount(std::int64_t begin, std::int64_t end,
                   std::int64_t grain)
{
    std::int64_t n = end - begin;
    if (n <= 0)
        return 0;
    std::int64_t g = parallelResolveGrain(n, grain);
    return static_cast<std::size_t>((n + g - 1) / g);
}

void
parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::size_t, std::int64_t, std::int64_t)> &fn)
{
    if (end <= begin)
        return;
    pool().run(begin, end, grain, fn);
}

void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &fn)
{
    parallelForChunks(begin, end, grain,
                      [&fn](std::size_t, std::int64_t b, std::int64_t e) {
                          fn(b, e);
                      });
}

void
parallelForOuter(std::int64_t n,
                 const std::function<void(std::int64_t)> &fn)
{
    if (n <= 0)
        return;
    parallelFor(0, n, 1, [&fn](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            fn(i);
    });
}

bool
insideParallelWorker()
{
    return tInsideWorker;
}

// ---------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------

TaskGroup::TaskGroup() : _state(std::make_shared<ParallelTaskState>()) {}

TaskGroup::~TaskGroup()
{
    // Outstanding tasks capture state owned by the caller — they must
    // finish before destruction. Errors are dropped here; wait()
    // observes them.
    helpUntilDone(myLane(), *_state);
}

TaskHandle
TaskGroup::run(std::function<void()> fn)
{
    auto node = std::make_shared<DepTaskNode>();
    node->state = _state;
    node->fn = std::move(fn);
    _state->pending.fetch_add(1, std::memory_order_acq_rel);
    TaskHandle handle;
    handle._node = node;
    enqueueReady(std::move(node));
    return handle;
}

TaskHandle
TaskGroup::runAfter(const std::vector<TaskHandle> &deps,
                    std::function<void()> fn)
{
    auto node = std::make_shared<DepTaskNode>();
    node->state = _state;
    node->fn = std::move(fn);
    _state->pending.fetch_add(1, std::memory_order_acq_rel);

    // Register with each still-live dependency while a submission
    // latch (the initial 1) keeps `waits` above zero: a dep completing
    // between two registrations then cannot fire the task early.
    node->waits.store(1, std::memory_order_relaxed);
    std::size_t live = 0;
    for (const TaskHandle &d : deps) {
        if (!d._node)
            continue;
        DepTaskNode &dep = *d._node;
        std::lock_guard<std::mutex> lk(dep.m);
        if (dep.done)
            continue;
        node->waits.fetch_add(1, std::memory_order_relaxed);
        dep.successors.push_back(node);
        ++live;
    }
    if (live > 0) {
        node->stalled = true;
        node->submitTime = std::chrono::steady_clock::now();
        bump(counters().depTasksSubmitted);
    }

    TaskHandle handle;
    handle._node = node;
    // Release the latch; if every dep already resolved this enqueues
    // (and on a one-thread pool runs) the task right here.
    if (node->waits.fetch_sub(1, std::memory_order_acq_rel) == 1)
        enqueueReady(std::move(node));
    return handle;
}

void
TaskGroup::cancel()
{
    if (!_state->cancelled.exchange(true, std::memory_order_acq_rel))
        bump(counters().groupsCancelled);
}

bool
TaskGroup::cancelled() const
{
    return _state->cancelled.load(std::memory_order_acquire);
}

void
TaskGroup::wait()
{
    helpUntilDone(myLane(), *_state);
    _state->cancelled.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lk(_state->doneMutex);
    if (_state->error) {
        std::exception_ptr error = _state->error;
        _state->error = nullptr;
        _state->failed.store(false, std::memory_order_release);
        std::rethrow_exception(error);
    }
}

} // namespace cicero
