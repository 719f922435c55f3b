#include "memory/sram_bank_model.hh"

#include <algorithm>

namespace cicero {

BankConflictSim::BankConflictSim(const SramBankConfig &config)
    : RayBatchSink(config.concurrentRays), _config(config),
      _grants(config.numBanks)
{
}

std::uint32_t
BankConflictSim::bankOfVector(std::uint64_t addr) const
{
    return (addr / _config.featureBytes) % _config.numBanks;
}

void
BankConflictSim::onBatch(const Ray *rays, std::size_t n)
{
    const std::uint32_t B = _config.numBanks;
    const std::uint32_t M = _config.portsPerBank;

    if (_config.layout == SramLayout::ChannelMajor) {
        // Sec. IV-B schedule: every PE owns one bank; per cycle the B
        // banks deliver B channel words through each of the M ports, so
        // floor(B * M / channels) whole vectors complete per cycle with
        // zero arbitration failures.
        std::uint64_t vectors = 0;
        for (std::size_t r = 0; r < n; ++r)
            vectors += rays[r].accesses.size();
        std::uint32_t channels =
            std::max(1u, _config.featureBytes / _config.channelBytes);
        std::uint64_t vectorsPerCycle =
            std::max<std::uint64_t>(1, (std::uint64_t)B * M / channels);
        _stats.requests += vectors;
        _stats.fetches += vectors;
        _stats.cycles += (vectors + vectorsPerCycle - 1) / vectorsPerCycle;
        return;
    }

    // Feature-major: one whole-vector request per access, contending
    // for the single bank holding the vector.
    _banks.clear();
    _next.resize(n);
    _end.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        _next[r] = _banks.size();
        for (const MemAccess &a : rays[r].accesses)
            _banks.push_back(bankOfVector(a.addr));
        _end[r] = _banks.size();
    }

    // Per cycle, each slot with work issues its head request; each bank
    // grants up to M of them; losers retry.
    bool anyWork = true;
    while (anyWork) {
        anyWork = false;
        std::fill(_grants.begin(), _grants.end(), 0);
        ++_stats.cycles;
        for (std::size_t r = 0; r < n; ++r) {
            if (_next[r] == _end[r])
                continue;
            anyWork = true;
            std::uint32_t bank = _banks[_next[r]];
            ++_stats.requests;
            if (_grants[bank] < M) {
                ++_grants[bank];
                ++_stats.fetches;
                ++_next[r];
            } else {
                ++_stats.stalls;
            }
        }
        if (!anyWork)
            --_stats.cycles; // final empty iteration does not cost a cycle
    }
}

} // namespace cicero
