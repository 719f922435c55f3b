/**
 * @file
 * Unit tests for the trace-plumbing layer: TraceTee fan-out,
 * WarpInterleaver interleaving/ray-id integrity (and through it the
 * RayBatchSink boundary rule and buffer reuse), and TraceCapture's
 * chunk-ordered delivery (the deterministic parallel trace-capture
 * contract).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <initializer_list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "memory/trace.hh"

namespace cicero {
namespace {

MemAccess
acc(std::uint64_t addr, std::uint32_t bytes = 64, std::uint32_t ray = 0)
{
    return MemAccess{addr, bytes, ray};
}

/** Records the full event stream, not just the accesses. */
struct EventRecorder : public TraceSink
{
    std::vector<std::string> events;
    std::vector<MemAccess> accesses;

    void
    onAccess(const MemAccess &a) override
    {
        accesses.push_back(a);
        events.push_back("A" + std::to_string(a.addr) + ":r" +
                         std::to_string(a.rayId));
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back("E" + std::to_string(rayId));
    }
    void onFlush() override { events.push_back("F"); }
};

// ---------------------------------------------------------------------
// TraceTee
// ---------------------------------------------------------------------

TEST(TraceTeeTest, FansOutAllEventKinds)
{
    EventRecorder a, b, c;
    TraceTee tee;
    tee.addSink(&a);
    tee.addSink(&b);
    tee.addSink(&c);

    tee.onAccess(acc(0, 64, 3));
    tee.onRayEnd(3);
    tee.onAccess(acc(128, 32, 4));
    tee.onRayEnd(4);
    tee.onFlush();

    std::vector<std::string> expect = {"A0:r3", "E3", "A128:r4", "E4",
                                       "F"};
    EXPECT_EQ(a.events, expect);
    EXPECT_EQ(b.events, expect);
    EXPECT_EQ(c.events, expect);
}

// ---------------------------------------------------------------------
// WarpInterleaver
// ---------------------------------------------------------------------

TEST(WarpInterleaverTest, RoundRobinWithUnequalRayLengths)
{
    // Rays of lengths 3, 1, 2: the round-robin keeps pulling from the
    // rays that still have accesses once the short ones are exhausted.
    EventRecorder rec;
    WarpInterleaver il(3);
    il.addSink(&rec);

    for (int i = 0; i < 3; ++i)
        il.onAccess(acc(100 + i, 64, 10));
    il.onRayEnd(10);
    il.onAccess(acc(200, 64, 11));
    il.onRayEnd(11);
    for (int i = 0; i < 2; ++i)
        il.onAccess(acc(300 + i, 64, 12));
    il.onRayEnd(12);

    // 3 pending groups == ways: drained eagerly, no flush needed.
    std::vector<std::string> expect = {
        "A100:r10", "A200:r11", "A300:r12", // round 0
        "A101:r10", "A301:r12",             // round 1 (ray 11 done)
        "A102:r10",                         // round 2
        "E10", "E11", "E12"};
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, RayEndCarriesRealIdNotSynthetic)
{
    // Regression: drain() used to emit onRayEnd(0) with a fabricated
    // id. Downstream sinks must only ever see the ids that issued
    // accesses.
    EventRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 77));
    il.onRayEnd(77);
    il.onAccess(acc(64, 64, 99));
    il.onRayEnd(99);

    ASSERT_EQ(rec.events.size(), 4u);
    EXPECT_EQ(rec.events[2], "E77");
    EXPECT_EQ(rec.events[3], "E99");
}

TEST(WarpInterleaverTest, MidRayFlushDrainsCurrentGroup)
{
    // A flush while a ray is still open must close that ray first,
    // keep its id, and then drain everything downstream.
    EventRecorder rec;
    WarpInterleaver il(8);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 5));
    il.onRayEnd(5);
    il.onAccess(acc(64, 64, 6)); // ray 6 left open...
    il.onFlush();                // ...and closed by the flush

    std::vector<std::string> expect = {"A0:r5", "A64:r6", "E5", "E6",
                                       "F"};
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, ImplicitRayBoundaryOnIdChange)
{
    // Back-to-back accesses with different ray ids imply a boundary
    // even without an explicit onRayEnd.
    EventRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 1));
    il.onAccess(acc(64, 64, 2)); // implicit end of ray 1
    il.onFlush();

    std::vector<std::string> expect = {"A0:r1", "A64:r2", "E1", "E2",
                                       "F"};
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, BatchesReuseSlotsWithoutStaleAccesses)
{
    // Two ways, four batches. Slot 0 holds rays of 3, then 1, then 2
    // accesses, so a slot that kept a longer predecessor's accesses
    // would replay them again.
    EventRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);
    auto ray = [&](std::uint32_t id, std::initializer_list<int> addrs) {
        for (int a : addrs)
            il.onAccess(acc(a, 64, id));
        il.onRayEnd(id);
    };

    ray(1, {10, 11, 12});
    ray(2, {20});
    ray(3, {30});
    ray(4, {40, 41});
    ray(5, {50, 51});
    ray(6, {60});
    ray(7, {70});
    il.onFlush();

    std::vector<std::string> expect = {
        "A10:r1", "A20:r2", "A11:r1", "A12:r1", "E1", "E2", // batch 1
        "A30:r3", "A40:r4", "A41:r4", "E3", "E4",           // batch 2
        "A50:r5", "A60:r6", "A51:r5", "E5", "E6",           // batch 3
        "A70:r7", "E7", "F"};                     // flushed batch 4
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, ZeroWaysActsAsOne)
{
    // No interleaving: each ray is forwarded whole as soon as it ends.
    EventRecorder rec;
    WarpInterleaver il(0);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 1));
    il.onAccess(acc(64, 64, 1));
    il.onRayEnd(1);
    il.onAccess(acc(128, 64, 2));
    il.onRayEnd(2);

    std::vector<std::string> expect = {"A0:r1", "A64:r1", "E1",
                                       "A128:r2", "E2"};
    EXPECT_EQ(rec.events, expect);
}

// ---------------------------------------------------------------------
// TraceCapture
// ---------------------------------------------------------------------

/** Pins the pool's thread count for one test, restoring the default. */
struct PoolThreads
{
    explicit PoolThreads(int n) { setParallelThreadCount(n); }
    ~PoolThreads() { setParallelThreadCount(0); }
};

/** Ray @p ray's serial event stream: 0-7 accesses, then its end. */
void
emitRay(std::uint32_t ray, TraceSink *sink)
{
    static const int accessesOf[5] = {3, 0, 7, 1, 2};
    for (int i = 0; i < accessesOf[ray % 5]; ++i)
        sink->onAccess(acc(ray * 1000ull + i * 64, 64, ray));
    sink->onRayEnd(ray);
}

/** The serial stream of rays [0, numRays), flushed. */
EventRecorder
serialStream(std::uint32_t numRays)
{
    EventRecorder rec;
    for (std::uint32_t r = 0; r < numRays; ++r)
        emitRay(r, &rec);
    rec.onFlush();
    return rec;
}

/** Every ray of [0, numRays) through a traced parallel chunk loop. */
void
captureInParallel(std::uint32_t numRays, TraceSink *sink)
{
    parallelMapTracedChunks<int>(
        numRays, sink,
        [](int &, std::int64_t b, std::int64_t e, TraceSink *chunkSink) {
            for (std::int64_t r = b; r < e; ++r)
                emitRay(static_cast<std::uint32_t>(r), chunkSink);
        });
    sink->onFlush();
}

/** Record rays [first, first + count) as chunk @p c, then finish it. */
void
recordChunk(TraceCapture &capture, std::size_t c, std::uint32_t first,
            std::uint32_t count)
{
    for (std::uint32_t r = first; r < first + count; ++r)
        emitRay(r, capture.chunkSink(c));
    capture.chunkDone(c);
}

TEST(TraceCaptureTest, DeliversChunksInCanonicalOrder)
{
    // Chunks finish out of order (as parallel workers would); the sink
    // still sees chunk 0, then 1, then 2 — empty rays included.
    PoolThreads pool(4);
    EventRecorder rec;
    TraceCapture capture(3, &rec);
    recordChunk(capture, 2, 4, 2);
    recordChunk(capture, 0, 0, 2);
    recordChunk(capture, 1, 2, 2);
    rec.onFlush();

    EXPECT_EQ(rec.events, serialStream(6).events);
    // Spot-check the shape: ray 1 has no accesses.
    std::vector<std::string> head = {"A0:r0", "A64:r0", "A128:r0", "E0",
                                     "E1"};
    EXPECT_EQ(std::vector<std::string>(rec.events.begin(),
                                       rec.events.begin() + 5),
              head);
}

TEST(TraceCaptureTest, SerialAndParallelCaptureAreByteIdentical)
{
    // The core contract: recording under a parallel loop delivers a
    // stream byte-identical to the serial emission.
    const std::uint32_t numRays = 64;
    const EventRecorder serial = serialStream(numRays);

    EventRecorder parallel;
    {
        PoolThreads pool(4);
        captureInParallel(numRays, &parallel);
    }
    EXPECT_EQ(serial.events, parallel.events);
    ASSERT_EQ(serial.accesses.size(), parallel.accesses.size());
    for (std::size_t i = 0; i < serial.accesses.size(); ++i) {
        EXPECT_EQ(serial.accesses[i].addr, parallel.accesses[i].addr);
        EXPECT_EQ(serial.accesses[i].bytes, parallel.accesses[i].bytes);
        EXPECT_EQ(serial.accesses[i].rayId, parallel.accesses[i].rayId);
    }

    // One pool thread: chunks emit straight into the sink, unbuffered.
    PoolThreads pool(1);
    EventRecorder direct;
    TraceCapture capture(4, &direct);
    EXPECT_EQ(capture.chunkSink(3), &direct);
    captureInParallel(numRays, &direct);
    EXPECT_EQ(serial.events, direct.events);
}

TEST(TraceCaptureTest, DeliversCompletedPrefixWhileLaterChunksPend)
{
    // A finished chunk is delivered as soon as every earlier chunk is,
    // not at the end of the walk; one that finishes early waits.
    PoolThreads pool(4);
    EventRecorder rec;
    TraceCapture capture(4, &rec);
    const EventRecorder upTo2 = serialStream(2);
    const EventRecorder upTo4 = serialStream(4);

    recordChunk(capture, 1, 1, 1);
    EXPECT_TRUE(rec.events.empty()); // chunk 0 still pending
    recordChunk(capture, 0, 0, 1);   // prefix [0, 2) is deliverable
    EXPECT_EQ(rec.events.size(), upTo2.events.size() - 1); // no flush
    recordChunk(capture, 3, 3, 1);
    EXPECT_EQ(rec.events.size(), upTo2.events.size() - 1);
    recordChunk(capture, 2, 2, 1); // [2, 4) follows at once
    rec.onFlush();
    EXPECT_EQ(rec.events, upTo4.events);
}

TEST(TraceCaptureTest, InOrderChunksAreDeliveredBeforeTheNextRecords)
{
    // In-order completion buffers at most one chunk: every chunk is in
    // the sink before the next one records.
    PoolThreads pool(4);
    EventRecorder rec;
    const std::uint32_t chunks = 8, perChunk = 8;
    TraceCapture capture(chunks, &rec);
    for (std::uint32_t c = 0; c < chunks; ++c) {
        recordChunk(capture, c, c * perChunk, perChunk);
        EXPECT_EQ(rec.events.size(),
                  serialStream((c + 1) * perChunk).events.size() - 1);
    }
}

TEST(TraceCaptureTest, DuplicateChunkDoneNeverDeliversTwice)
{
    // Regression: a repeated chunkDone for a delivered chunk must not
    // rewind the delivered prefix and re-deliver events.
    PoolThreads pool(4);
    EventRecorder rec;
    TraceCapture capture(4, &rec);
    for (std::uint32_t c = 0; c < 4; ++c)
        recordChunk(capture, c, 2 * c, 2);
    const std::size_t delivered = rec.events.size();
    capture.chunkDone(0);
    capture.chunkDone(2);
    capture.chunkDone(3);
    rec.onFlush();
    EXPECT_EQ(rec.events.size(), delivered + 1); // just the flush
    EXPECT_EQ(rec.events, serialStream(8).events);
}

TEST(TraceCaptureTest, ConcurrentRecordingReproducesTheSerialStream)
{
    // Full contract under a real parallel loop: concurrent recording
    // and concurrent chunkDone calls reproduce the serial stream.
    const std::uint32_t numRays = 256;
    const EventRecorder serial = serialStream(numRays);
    for (int threads : {4, 7}) {
        PoolThreads pool(threads);
        EventRecorder parallel;
        captureInParallel(numRays, &parallel);
        EXPECT_EQ(serial.events, parallel.events) << threads
                                                  << " threads";
    }
}

TEST(TraceCaptureTest, NeverEntersTheSinkFromTwoThreadsAtOnce)
{
    // Thread A delivers chunk 0 into a sink that holds it there until
    // thread B has finished chunk 1. B must neither enter the sink
    // while A is inside (an atomic reentrancy detector trips) nor wait
    // for A's delivery (A's hold would then time out); A delivers
    // chunk 1 after chunk 0, so the stream stays serial.
    struct GatedSink : public EventRecorder
    {
        std::atomic<int> inside{0};
        std::atomic<bool> overlapped{false};
        std::mutex mu;
        std::condition_variable cv;
        bool aInside = false;
        bool bDone = false;
        bool timedOut = false;

        void
        enter()
        {
            if (inside.fetch_add(1) != 0)
                overlapped = true;
            std::unique_lock<std::mutex> lock(mu);
            if (!aInside) {
                aInside = true;
                cv.notify_all();
                timedOut = !cv.wait_for(lock, std::chrono::seconds(5),
                                        [&] { return bDone; });
            }
        }
        void leave() { inside.fetch_sub(1); }

        void
        onAccess(const MemAccess &a) override
        {
            enter();
            EventRecorder::onAccess(a);
            leave();
        }
        void
        onRayEnd(std::uint32_t rayId) override
        {
            enter();
            EventRecorder::onRayEnd(rayId);
            leave();
        }
    };

    PoolThreads pool(4);
    GatedSink sink;
    TraceCapture capture(2, &sink);
    std::thread a([&] { recordChunk(capture, 0, 0, 3); });
    {
        std::unique_lock<std::mutex> lock(sink.mu);
        sink.cv.wait(lock, [&] { return sink.aInside; });
    }
    recordChunk(capture, 1, 3, 3); // this thread is B
    {
        std::lock_guard<std::mutex> lock(sink.mu);
        sink.bDone = true;
    }
    sink.cv.notify_all();
    a.join();
    sink.onFlush();

    EXPECT_FALSE(sink.overlapped);
    EXPECT_FALSE(sink.timedOut) << "chunkDone waited on a delivery";
    EXPECT_EQ(sink.events, serialStream(6).events);
}

TEST(TraceCaptureTest, FeedsBufferingSinksCorrectly)
{
    // Delivery into a WarpInterleaver: the interleaver must see the
    // canonical stream, so its round-robin and its ray ids match a
    // direct feed.
    EventRecorder direct;
    {
        WarpInterleaver il(2);
        il.addSink(&direct);
        for (std::uint32_t r = 0; r < 8; ++r)
            emitRay(r, &il);
        il.onFlush();
    }

    PoolThreads pool(4);
    EventRecorder buffered;
    {
        WarpInterleaver il(2);
        il.addSink(&buffered);
        TraceCapture capture(4, &il);
        for (std::uint32_t k = 0; k < 4; ++k) { // any order works
            const std::uint32_t c = 3 - k;
            recordChunk(capture, c, 2 * c, 2);
        }
        il.onFlush();
    }

    EXPECT_EQ(direct.events, buffered.events);
    // Ray ids survive: one end per ray that issued accesses (rays 1
    // and 6 issued none, so the interleaver drops their ends).
    std::vector<std::string> rayEnds;
    for (const std::string &e : buffered.events)
        if (e[0] == 'E')
            rayEnds.push_back(e);
    EXPECT_EQ(rayEnds, (std::vector<std::string>{"E0", "E2", "E3", "E4",
                                                 "E5", "E7"}));
}

} // namespace
} // namespace cicero
