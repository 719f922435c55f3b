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
 * A RayBatchSink: each batch of `concurrentRays` ended rays (0 acts as
 * 1) occupies one slot per ray, and the slots replay their fetch
 * streams in lockstep, arbitrating for banks each cycle. Feature-major
 * mode issues one whole-vector request per ray per cycle; channel-major
 * mode issues the schedule of Sec. IV-B (PEs sweep channels, M samples
 * in parallel), which by construction never conflicts, so it only
 * counts cycles.
 */
class BankConflictSim : public RayBatchSink
{
  public:
    explicit BankConflictSim(const SramBankConfig &config = {});

    const BankConflictStats &stats() const { return _stats; }
    const SramBankConfig &config() const { return _config; }

    /** Bank index a feature-vector fetch contends for (feature-major). */
    std::uint32_t bankOfVector(std::uint64_t addr) const;

  private:
    void onBatch(const Ray *rays, std::size_t n) override;

    SramBankConfig _config;
    BankConflictStats _stats;

    // Per-batch scratch, reused: the bank of every access of the batch,
    // slot after slot; each slot's next and end index into it; the
    // grants of one cycle per bank.
    std::vector<std::uint32_t> _banks;
    std::vector<std::size_t> _next;
    std::vector<std::size_t> _end;
    std::vector<std::uint32_t> _grants;
};

} // namespace cicero

#endif // CICERO_MEMORY_SRAM_BANK_MODEL_HH
