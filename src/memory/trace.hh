/**
 * @file
 * Memory access trace plumbing.
 *
 * Functional rendering emits every feature-gather access into a
 * TraceSink; the DRAM, cache and SRAM-bank models in this module are all
 * sinks, so arbitrarily long traces stream through them without being
 * materialized. A ray boundary marker lets sinks that care about
 * concurrency (the bank-conflict simulator) reconstruct per-ray streams.
 */

#ifndef CICERO_MEMORY_TRACE_HH
#define CICERO_MEMORY_TRACE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/parallel.hh"

namespace cicero {

/** One memory access emitted during Feature Gathering. */
struct MemAccess
{
    std::uint64_t addr = 0; //!< byte address in the encoding's space
    std::uint32_t bytes = 0;
    std::uint32_t rayId = 0; //!< issuing camera ray
};

/**
 * Consumer of a gather access stream. Implementations must tolerate any
 * interleaving of onAccess and onRayEnd, and multiple onFlush calls.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One feature fetch. */
    virtual void onAccess(const MemAccess &access) = 0;

    /** All accesses of ray @p rayId have been emitted. */
    virtual void onRayEnd(std::uint32_t rayId) { (void)rayId; }

    /** End of the trace; drain any buffered state. */
    virtual void onFlush() {}
};

/**
 * Fans a trace out to several sinks so one functional render can feed
 * the DRAM, cache and bank models simultaneously.
 */
class TraceTee : public TraceSink
{
  public:
    void addSink(TraceSink *sink) { _sinks.push_back(sink); }

    void
    onAccess(const MemAccess &access) override
    {
        for (auto *s : _sinks)
            s->onAccess(access);
    }

    void
    onRayEnd(std::uint32_t rayId) override
    {
        for (auto *s : _sinks)
            s->onRayEnd(rayId);
    }

    void
    onFlush() override
    {
        for (auto *s : _sinks)
            s->onFlush();
    }

  private:
    std::vector<TraceSink *> _sinks;
};

/**
 * Models GPU warp scheduling: buffers the per-ray access streams of
 * `ways` rays and forwards them round-robin (one access per ray per
 * round). A GPU runs thousands of threads concurrently, so the DRAM
 * sees their requests interleaved — which is precisely what destroys
 * the intra-ray locality a single-ray trace would overstate (Fig. 4).
 */
class WarpInterleaver : public TraceSink
{
  public:
    explicit WarpInterleaver(std::uint32_t ways = 32)
        : _ways(ways ? ways : 1)
    {
    }

    void addSink(TraceSink *sink) { _out.addSink(sink); }

    void
    onAccess(const MemAccess &access) override
    {
        if (access.rayId != _currentRay && !_current.empty())
            onRayEnd(_currentRay);
        _currentRay = access.rayId;
        _current.push_back(access);
    }

    void
    onRayEnd(std::uint32_t rayId) override
    {
        (void)rayId;
        if (_current.empty())
            return;
        // The group's ray id is fixed here, at enqueue time — drain()
        // must never synthesize one for downstream sinks.
        _pending.push_back(PendingRay{_currentRay, std::move(_current)});
        _current.clear();
        _currentRay = ~0u;
        if (_pending.size() >= _ways)
            drain();
    }

    void
    onFlush() override
    {
        if (!_current.empty())
            onRayEnd(_currentRay);
        while (!_pending.empty())
            drain();
        _out.onFlush();
    }

  private:
    /** A completed per-ray access group awaiting interleaved replay. */
    struct PendingRay
    {
        std::uint32_t rayId;
        std::vector<MemAccess> accesses;
    };

    void
    drain()
    {
        std::size_t n = std::min<std::size_t>(_ways, _pending.size());
        bool any = true;
        for (std::size_t i = 0; any; ++i) {
            any = false;
            for (std::size_t r = 0; r < n; ++r) {
                if (i < _pending[r].accesses.size()) {
                    _out.onAccess(_pending[r].accesses[i]);
                    any = true;
                }
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            assert(!_pending[r].accesses.empty());
            _out.onRayEnd(_pending[r].rayId);
        }
        _pending.erase(_pending.begin(), _pending.begin() + n);
    }

    std::uint32_t _ways;
    TraceTee _out;
    std::uint32_t _currentRay = ~0u;
    std::vector<MemAccess> _current;
    std::vector<PendingRay> _pending;
};

/**
 * Deterministic parallel trace capture, one event log per walk chunk.
 *
 * The access-stream order is part of the memory-model contract, and a
 * shared TraceSink cannot be fed from several workers at once. A
 * parallel traced walk therefore gives each of its pool chunks a log:
 * chunk c records its accesses and onRayEnd markers, in order, into
 * chunkSink(c), and calls chunkDone(c) once it records nothing more. A
 * finished chunk is delivered to the downstream sink only after every
 * earlier chunk, so the sink sees the serial stream byte for byte.
 * Whenever finished chunks extend the delivered prefix they are
 * delivered and freed while later chunks still run, so buffered memory
 * tracks the out-of-order window instead of the whole walk.
 *
 * Only one thread is in the sink at a time. The first thread to find a
 * deliverable prefix sets a delivering flag and delivers it, and before
 * it clears the flag it re-checks under the lock for chunks that
 * finished meanwhile. Any other thread just records its chunk as done
 * and returns; no thread waits on another thread's delivery.
 *
 * With one pool thread the chunks run inline in order, so chunkSink()
 * is the downstream sink itself and nothing is materialized. Without a
 * sink chunkSink() is nullptr and nothing is allocated. Nothing here
 * flushes the sink: the caller ends the trace with onFlush().
 */
class TraceCapture
{
  public:
    /** @param sink downstream sink, or nullptr for an untraced walk. */
    TraceCapture(std::size_t chunks, TraceSink *sink);
    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /** Where chunk @p c records its events (nullptr when untraced). */
    TraceSink *
    chunkSink(std::size_t c)
    {
        return _logs.empty() ? _sink : &_logs[c];
    }

    /**
     * Chunk @p c records nothing more: deliver every finished chunk
     * the delivered prefix now reaches. Thread-safe; a repeated call
     * for a chunk is a no-op.
     */
    void chunkDone(std::size_t c);

  private:
    /** One chunk's events; aligned so neighbouring logs never share a
     *  cache line while their chunks record concurrently. */
    struct alignas(64) ChunkLog final : TraceSink
    {
        std::vector<MemAccess> accesses;
        /** (accesses recorded before it, ray id) of each onRayEnd. */
        std::vector<std::pair<std::size_t, std::uint32_t>> rayEnds;
        bool done = false; //!< guarded by TraceCapture::_mutex

        void onAccess(const MemAccess &a) override { accesses.push_back(a); }

        void
        onRayEnd(std::uint32_t rayId) override
        {
            rayEnds.emplace_back(accesses.size(), rayId);
        }

        /** Replay the log into @p sink and free its storage. */
        void deliverTo(TraceSink &sink);
    };

    TraceSink *_sink;
    std::vector<ChunkLog> _logs; //!< empty: chunks emit into _sink
    std::mutex _mutex;           //!< guards done flags, _next, _delivering
    std::size_t _next = 0;       //!< chunks [0, _next) are delivered
    bool _delivering = false;
};

/**
 * parallelMapChunks for a traced walk: runs @p fn(part, b, e, sink)
 * over the pool chunks of [0, @p n), where @p sink is where the chunk
 * records its trace events, and returns the per-chunk partials in chunk
 * order. By the time it returns @p trace has received every chunk's
 * events in chunk order, i.e. the serial stream; it is not flushed.
 * The capture's chunk count and the loop's chunk indices come from one
 * decomposition, paired here.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMapTracedChunks(std::int64_t n, TraceSink *trace, Fn &&fn)
{
    const std::size_t chunks = parallelChunkCount(0, n, -1);
    TraceCapture capture(chunks, trace);
    std::vector<T> parts(chunks);
    parallelForChunks(0, n, -1,
                      [&](std::size_t c, std::int64_t b, std::int64_t e) {
                          fn(parts[c], b, e, capture.chunkSink(c));
                          capture.chunkDone(c);
                      });
    return parts;
}

/** A sink that simply stores the trace (tests and small experiments). */
class TraceRecorder : public TraceSink
{
  public:
    void onAccess(const MemAccess &access) override
    {
        _trace.push_back(access);
    }

    const std::vector<MemAccess> &trace() const { return _trace; }
    void clear() { _trace.clear(); }

  private:
    std::vector<MemAccess> _trace;
};

} // namespace cicero

#endif // CICERO_MEMORY_TRACE_HH
