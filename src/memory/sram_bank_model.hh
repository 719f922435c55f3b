/**
 * @file
 * On-chip SRAM bank-conflict simulation (paper Sec. II-D / IV-B).
 *
 * The baseline layout is *feature-major*: all channels of a feature
 * vector live in one bank, so concurrent rays gathering different feature
 * vectors collide whenever two vectors map to the same bank. Cicero's
 * *channel-major* layout spreads channels across banks and dedicates each
 * PE to one bank, so the Sec. IV-B schedule makes conflicts structurally
 * impossible; the simulator's channel-major mode counts that schedule's
 * cycles and never arbitrates.
 */

#ifndef CICERO_MEMORY_SRAM_BANK_MODEL_HH
#define CICERO_MEMORY_SRAM_BANK_MODEL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "memory/trace.hh"

namespace cicero {

/** The two on-chip data layout strategies compared in the paper. */
enum class SramLayout
{
    FeatureMajor, //!< whole feature vector in one bank (prior accelerators)
    ChannelMajor, //!< channel c of every vector in bank c (Cicero)
};

/** Geometry of the banked feature buffer. */
struct SramBankConfig
{
    std::uint32_t numBanks = 16;
    std::uint32_t portsPerBank = 1;
    std::uint32_t concurrentRays = 16; //!< parallel ray queries (PE groups)
    std::uint32_t featureBytes = 32;   //!< bytes of one feature vector
    std::uint32_t channelBytes = 2;    //!< bytes of one channel
    SramLayout layout = SramLayout::FeatureMajor;
};

/** Results of a bank-conflict simulation. */
struct BankConflictStats
{
    std::uint64_t requests = 0;  //!< feature-vector fetch attempts issued
    std::uint64_t stalls = 0;    //!< attempts that lost bank arbitration
    std::uint64_t cycles = 0;    //!< total arbitration cycles
    std::uint64_t fetches = 0;   //!< feature-vector fetches completed

    /** Fraction of issue attempts that conflicted, as in Fig. 6. */
    double
    conflictRate() const
    {
        return requests ? static_cast<double>(stalls) / requests : 0.0;
    }
};

/**
 * Cycle-approximate simulator of concurrent rays gathering feature
 * vectors from a banked SRAM.
 *
 * Fed as a TraceSink: accesses buffer per ray; completed rays enter a
 * pending queue; `concurrentRays` slots replay their fetch streams in
 * lockstep, arbitrating for banks each cycle. Feature-major mode issues
 * one whole-vector request per ray per cycle; channel-major mode issues
 * the schedule of Sec. IV-B (PEs sweep channels, M samples in parallel),
 * which by construction never conflicts, so it only counts cycles.
 */
class BankConflictSim : public TraceSink
{
  public:
    explicit BankConflictSim(const SramBankConfig &config = {});

    void onAccess(const MemAccess &access) override;
    void onRayEnd(std::uint32_t rayId) override;
    void onFlush() override;

    const BankConflictStats &stats() const { return _stats; }
    const SramBankConfig &config() const { return _config; }
    void reset();

    /** Bank index a feature-vector fetch contends for (feature-major). */
    std::uint32_t bankOfVector(std::uint64_t addr) const;

  private:
    void drain(bool force);
    void simulateBatch(std::vector<std::deque<std::uint32_t>> &slots);

    SramBankConfig _config;
    BankConflictStats _stats;

    std::vector<MemAccess> _currentRay;
    std::uint32_t _currentRayId = ~0u;
    std::deque<std::deque<std::uint32_t>> _pendingRays;
};

} // namespace cicero

#endif // CICERO_MEMORY_SRAM_BANK_MODEL_HH
