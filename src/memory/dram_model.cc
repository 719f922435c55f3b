#include "memory/dram_model.hh"

#include <algorithm>

namespace cicero {

DramModel::DramModel(const DramConfig &config) : _config(config)
{
}

void
DramModel::onAccess(const MemAccess &access)
{
    // Split the access into bursts; each burst is classified separately.
    std::uint64_t first = access.addr / kDramBurstBytes;
    std::uint64_t last = (access.addr + std::max(access.bytes, 1u) - 1) /
                         kDramBurstBytes;
    for (std::uint64_t b = first; b <= last; ++b) {
        // Continuity (Fig. 4): the burst repeats or directly extends the
        // previous one. The very first access has no predecessor and is
        // random by definition.
        bool streaming = _hasLast &&
                         (b == _lastBurst || b == _lastBurst + 1);
        _lastBurst = b;
        _hasLast = true;

        ++_stats.accesses;
        _stats.bytes += kDramBurstBytes;
        if (streaming) {
            ++_stats.streamingAccesses;
            _stats.streamingBytes += kDramBurstBytes;
        } else {
            ++_stats.randomAccesses;
            _stats.randomBytes += kDramBurstBytes;
        }
    }
}

void
DramModel::reset()
{
    _stats = DramStats{};
    _lastBurst = ~0ull;
    _hasLast = false;
}

double
DramModel::energyNj(const EnergyConstants &energy) const
{
    return energy.dramNj(_stats.streamingBytes, _stats.randomBytes);
}

double
DramModel::timeMs() const
{
    // Streaming bytes are bandwidth-bound; each random burst additionally
    // pays the row-activation latency (amortized over banks).
    double streamS = _stats.bytes / (_config.bandwidthGBs * 1e9);
    double randomS = _stats.randomAccesses *
                     (_config.randomAccessNs * 1e-9) / _config.numBanks;
    return (streamS + randomS) * 1e3;
}

} // namespace cicero
