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
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

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
 * Deterministic parallel trace capture.
 *
 * A traced render used to be serial by necessity: the access-stream
 * order is part of the memory-model contract, and a shared TraceSink
 * cannot be fed from several workers at once. RayTraceBuffer decouples
 * capture from delivery: each ray (more generally, each *slot* of a
 * canonically ordered work list) records its MemAccess stream into a
 * private buffer during a parallel render, and replay() then walks the
 * slots in canonical order, reproducing the serial TraceSink stream
 * byte-for-byte — accesses, onRayEnd markers and all.
 *
 * Concurrency contract: distinct slots may record concurrently; a
 * single slot is only ever touched by one thread. replay() must be
 * called after the parallel loop has completed (it is not itself
 * thread-safe). replay() does not flush the downstream sink — the
 * caller ends the trace with downstream->onFlush(), exactly where the
 * serial code did.
 *
 * Windowed prefix drain: waiting for the whole frame before replaying
 * buffers every ray's accesses at once, so peak memory grows with the
 * frame. Workers can instead call markCompleted(begin, end) once a
 * chunk of slots will receive no further events; whenever the
 * completed set forms a prefix beyond what has been delivered, one
 * thread (guarded by a drain baton) streams those slots into the
 * downstream sink — in canonical order, while trailing chunks still
 * render — and frees their storage. The final replay() delivers
 * whatever remains, so the stream stays byte-identical to the
 * full-buffer path no matter how completions interleave. The
 * downstream sink is only ever entered by one thread at a time, with
 * the baton mutex ordering successive drains.
 */
class RayTraceBuffer
{
  public:
    /**
     * @param slotCount  number of rays (work items) in canonical order.
     * @param downstream sink receiving the ordered replay.
     */
    RayTraceBuffer(std::size_t slotCount, TraceSink *downstream);

    /**
     * Lightweight per-slot recording sink, handed to the per-ray render
     * in place of the real downstream sink. Cheap to construct; value
     * semantics (holds a pointer into the parent buffer).
     */
    class SlotSink : public TraceSink
    {
      public:
        void onAccess(const MemAccess &access) override;
        void onRayEnd(std::uint32_t rayId) override;

      private:
        friend class RayTraceBuffer;
        SlotSink(RayTraceBuffer &buf, std::size_t slot)
            : _buf(&buf), _slot(slot)
        {
        }
        RayTraceBuffer *_buf;
        std::size_t _slot;
    };

    /** The recording sink of slot @p slot (0 .. slotCount-1). */
    SlotSink sink(std::size_t slot)
    {
        assert(slot < _slots.size());
        return SlotSink(*this, slot);
    }

    /**
     * Note that slots [begin, end) are complete — no further events
     * will be recorded into them — and opportunistically drain the
     * completed prefix into the downstream sink. Thread-safe; called
     * by workers as their chunks finish. Purely an optimization: peak
     * buffered memory drops from the whole frame to roughly the
     * out-of-order window, while the delivered stream is unchanged.
     */
    void markCompleted(std::size_t begin, std::size_t end);

    /**
     * Replay every not-yet-drained slot's recorded stream into the
     * downstream sink, in slot order: all accesses of slot 0, its
     * onRayEnd (if recorded), then slot 1, ... Does not call
     * onFlush(). Call after the parallel loop; with markCompleted in
     * play this delivers only the un-drained suffix.
     */
    void replay();

    /**
     * High-water mark of buffered accesses (windowed-drain
     * effectiveness metric): with prefix draining this stays near the
     * completion out-of-order window instead of the full trace size.
     */
    std::uint64_t
    peakBufferedAccesses() const
    {
        return _peakBuffered.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        std::vector<MemAccess> accesses;
        std::uint32_t endRayId = 0;
        bool ended = false;
    };

    void drainRange(std::size_t begin, std::size_t end);
    void tryDrain();

    std::vector<Slot> _slots;
    TraceSink *_downstream;

    std::atomic<std::uint64_t> _buffered{0};
    std::atomic<std::uint64_t> _peakBuffered{0};

    std::mutex _stateMutex; //!< guards _completed and _drained
    std::mutex _drainMutex; //!< drain baton: one drainer at a time
    std::map<std::size_t, std::size_t> _completed; //!< merged intervals
    std::size_t _drained = 0; //!< slots [0, _drained) already delivered
};

/**
 * The capture policy every parallel traced walk shares. With more than
 * one pool thread, each work item (slot) records into a private
 * RayTraceBuffer slot and the buffer replays the slots in canonical
 * order. With one thread the chunks already run inline in slot order,
 * so items emit straight into the sink and the trace is never
 * materialized (O(1) memory). Without a sink every item records into
 * nullptr and nothing is allocated.
 *
 * Per item call record(), per finished chunk markCompleted() (the
 * windowed prefix drain), and after the parallel loop finish() — or
 * drain() when the caller flushes the sink itself later.
 */
class TraceCapture
{
  public:
    /** @param sink downstream sink, or nullptr for an untraced walk. */
    TraceCapture(std::size_t slotCount, TraceSink *sink);
    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /** Run @p fn(TraceSink *) with the sink slot @p slot records into. */
    template <typename Fn>
    void
    record(std::size_t slot, Fn &&fn)
    {
        if (!_buffer) {
            fn(_sink);
            return;
        }
        RayTraceBuffer::SlotSink sink = _buffer->sink(slot);
        fn(static_cast<TraceSink *>(&sink));
    }

    /** Slots [begin, end) are complete: see RayTraceBuffer. */
    void
    markCompleted(std::size_t begin, std::size_t end)
    {
        if (_buffer)
            _buffer->markCompleted(begin, end);
    }

    /** Deliver every slot not yet drained; does not flush the sink. */
    void
    drain()
    {
        if (_buffer)
            _buffer->replay();
    }

    /** drain(), then end the trace with the sink's onFlush(). */
    void
    finish()
    {
        drain();
        if (_sink)
            _sink->onFlush();
    }

  private:
    TraceSink *_sink;
    std::unique_ptr<RayTraceBuffer> _buffer;
};

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
