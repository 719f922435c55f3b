#include "memory/trace.hh"

#include "common/parallel.hh"

namespace cicero {

RayTraceBuffer::RayTraceBuffer(std::size_t slotCount,
                               TraceSink *downstream)
    : _slots(slotCount), _downstream(downstream)
{
    assert(downstream != nullptr);
}

void
RayTraceBuffer::SlotSink::onAccess(const MemAccess &access)
{
    _buf->_slots[_slot].accesses.push_back(access);

    std::uint64_t cur =
        _buf->_buffered.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak =
        _buf->_peakBuffered.load(std::memory_order_relaxed);
    while (peak < cur && !_buf->_peakBuffered.compare_exchange_weak(
                             peak, cur, std::memory_order_relaxed)) {
    }
}

void
RayTraceBuffer::SlotSink::onRayEnd(std::uint32_t rayId)
{
    Slot &s = _buf->_slots[_slot];
    s.endRayId = rayId;
    s.ended = true;
}

void
RayTraceBuffer::drainRange(std::size_t begin, std::size_t end)
{
    std::uint64_t delivered = 0;
    for (std::size_t i = begin; i < end; ++i) {
        Slot &s = _slots[i];
        for (const MemAccess &a : s.accesses)
            _downstream->onAccess(a);
        if (s.ended)
            _downstream->onRayEnd(s.endRayId);
        delivered += s.accesses.size();
        // Release the slot's storage as it drains so peak memory decays
        // over the replay instead of doubling inside downstream sinks
        // that buffer (e.g. WarpInterleaver).
        s.accesses = std::vector<MemAccess>();
    }
    _buffered.fetch_sub(delivered, std::memory_order_relaxed);
}

void
RayTraceBuffer::markCompleted(std::size_t begin, std::size_t end)
{
    if (begin >= end)
        return;
    assert(end <= _slots.size());
    {
        std::lock_guard<std::mutex> lk(_stateMutex);
        // Merge [begin, end) into the interval set: absorb any
        // intervals it touches, then insert the union.
        auto it = _completed.lower_bound(begin);
        if (it != _completed.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= begin)
                it = prev;
        }
        while (it != _completed.end() && it->first <= end) {
            begin = std::min(begin, it->first);
            end = std::max(end, it->second);
            it = _completed.erase(it);
        }
        _completed[begin] = end;
    }
    tryDrain();
}

void
RayTraceBuffer::tryDrain()
{
    // The drain baton: only one thread delivers to the (single-
    // threaded) downstream sink; others just mark completion and move
    // on. A completion that lands while the baton holder is past its
    // last check waits for the next markCompleted or the final
    // replay() — correctness never depends on eager drains.
    while (_drainMutex.try_lock()) {
        std::size_t begin, end;
        {
            std::lock_guard<std::mutex> lk(_stateMutex);
            // Discard intervals already covered by the drained prefix
            // (a stray duplicate markCompleted must never rewind
            // _drained and re-deliver events).
            auto it = _completed.begin();
            while (it != _completed.end() && it->second <= _drained)
                it = _completed.erase(it);
            if (it == _completed.end() || it->first > _drained) {
                _drainMutex.unlock();
                return;
            }
            begin = _drained;
            end = it->second;
            _completed.erase(it);
            // _drained advances only after delivery, but holding the
            // baton makes the gap invisible to other drainers.
        }
        drainRange(begin, end);
        {
            std::lock_guard<std::mutex> lk(_stateMutex);
            _drained = end;
        }
        _drainMutex.unlock();
        // Loop: a completion may have extended the prefix while this
        // thread was draining.
    }
}

void
RayTraceBuffer::replay()
{
    // Post-loop, single-threaded by contract: deliver whatever the
    // windowed drain has not already streamed out.
    drainRange(_drained, _slots.size());
    _drained = _slots.size();
    _completed.clear();
}

TraceCapture::TraceCapture(std::size_t slotCount, TraceSink *sink)
    : _sink(sink)
{
    if (sink && parallelThreadCount() > 1)
        _buffer = std::make_unique<RayTraceBuffer>(slotCount, sink);
}

} // namespace cicero
