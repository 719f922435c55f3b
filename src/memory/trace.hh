/**
 * @file
 * Memory access trace plumbing.
 *
 * Functional rendering emits every feature-gather access into a
 * TraceSink; the DRAM, cache and SRAM-bank models in this module are all
 * sinks, so arbitrarily long traces stream through them without being
 * materialized. A ray boundary marker lets the sinks that model many
 * rays in flight (the warp interleaver of Fig. 4 and the bank-conflict
 * simulator of Fig. 6, both RayBatchSinks) rebuild per-ray streams;
 * they buffer one batch of rays at a time and nothing more.
 */

#ifndef CICERO_MEMORY_TRACE_HH
#define CICERO_MEMORY_TRACE_HH

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
 * A sink that models N whole rays in flight at once: the GPU warps of
 * Fig. 4 and the concurrent bank-contending rays of Fig. 6. It buffers
 * each ray's accesses and hands every N ended rays, in the order they
 * ended, to onBatch().
 *
 * A ray ends at its onRayEnd, or when an access of another ray
 * arrives; a ray with no accesses is dropped. A ray keeps the id its
 * accesses carried, whatever id onRayEnd names. onFlush ends the open
 * ray and hands over the rest as a smaller batch. The per-ray buffers
 * are reused from batch to batch, so a long trace allocates only for
 * its longest rays.
 */
class RayBatchSink : public TraceSink
{
  public:
    void
    onAccess(const MemAccess &access) final
    {
        if (access.rayId != _rays[_ended].id)
            endOpenRay();
        Ray &open = _rays[_ended];
        open.id = access.rayId;
        open.accesses.push_back(access);
    }

    void onRayEnd(std::uint32_t) final { endOpenRay(); }

    void
    onFlush() override
    {
        endOpenRay();
        if (_ended)
            handOver();
    }

  protected:
    /** One ray: the id its accesses carried, and the accesses. */
    struct Ray
    {
        std::uint32_t id = ~0u;
        std::vector<MemAccess> accesses;
    };

    /** @param raysPerBatch rays in flight at once; 0 acts as 1. */
    explicit RayBatchSink(std::uint32_t raysPerBatch)
        : _raysPerBatch(raysPerBatch ? raysPerBatch : 1), _rays(1)
    {
    }

    /**
     * Consume one batch: @p n >= 1 rays, each with at least one
     * access, in the order they ended. The rays are valid only during
     * the call.
     */
    virtual void onBatch(const Ray *rays, std::size_t n) = 0;

  private:
    /** End the open ray, if it has accesses; hand over a full batch. */
    void
    endOpenRay()
    {
        if (_rays[_ended].accesses.empty())
            return;
        if (++_ended == _raysPerBatch)
            handOver();
        else if (_ended == _rays.size())
            _rays.emplace_back();
    }

    void
    handOver()
    {
        onBatch(_rays.data(), _ended);
        for (std::size_t r = 0; r < _ended; ++r)
            _rays[r].accesses.clear();
        _ended = 0;
    }

    std::uint32_t _raysPerBatch;
    /** [0, _ended) have ended; _rays[_ended] is the open ray. */
    std::vector<Ray> _rays;
    std::size_t _ended = 0;
};

/**
 * Models GPU warp scheduling: forwards each batch of `ways` rays
 * round-robin (one access per ray per round), then their onRayEnd
 * markers in order. A GPU runs thousands of threads concurrently, so
 * the DRAM sees their requests interleaved — which is precisely what
 * destroys the intra-ray locality a single-ray trace would overstate
 * (Fig. 4).
 */
class WarpInterleaver : public RayBatchSink
{
  public:
    explicit WarpInterleaver(std::uint32_t ways = 32) : RayBatchSink(ways)
    {
    }

    void addSink(TraceSink *sink) { _out.addSink(sink); }

    void
    onFlush() override
    {
        RayBatchSink::onFlush();
        _out.onFlush();
    }

  private:
    void
    onBatch(const Ray *rays, std::size_t n) override
    {
        bool any = true;
        for (std::size_t i = 0; any; ++i) {
            any = false;
            for (std::size_t r = 0; r < n; ++r) {
                if (i < rays[r].accesses.size()) {
                    _out.onAccess(rays[r].accesses[i]);
                    any = true;
                }
            }
        }
        for (std::size_t r = 0; r < n; ++r)
            _out.onRayEnd(rays[r].id);
    }

    TraceTee _out;
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
