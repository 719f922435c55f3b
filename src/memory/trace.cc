#include "memory/trace.hh"

namespace cicero {

TraceCapture::TraceCapture(std::size_t chunks, TraceSink *sink)
    : _sink(sink)
{
    if (sink && parallelThreadCount() > 1)
        _logs.resize(chunks);
}

void
TraceCapture::ChunkLog::deliverTo(TraceSink &sink)
{
    std::size_t i = 0;
    for (const auto &[before, rayId] : rayEnds) {
        for (; i < before; ++i)
            sink.onAccess(accesses[i]);
        sink.onRayEnd(rayId);
    }
    for (; i < accesses.size(); ++i)
        sink.onAccess(accesses[i]);
    // Free the log as it drains, so buffered memory decays over the
    // walk instead of doubling inside sinks that buffer themselves
    // (e.g. WarpInterleaver).
    accesses = std::vector<MemAccess>();
    rayEnds = {};
}

void
TraceCapture::chunkDone(std::size_t c)
{
    if (_logs.empty())
        return;
    assert(c < _logs.size());
    std::unique_lock<std::mutex> lock(_mutex);
    _logs[c].done = true;
    if (_delivering)
        return; // the delivering thread re-checks before it stops
    _delivering = true;
    while (_next < _logs.size() && _logs[_next].done) {
        ChunkLog &log = _logs[_next];
        lock.unlock();
        log.deliverTo(*_sink);
        lock.lock();
        ++_next;
    }
    _delivering = false;
}

} // namespace cicero
