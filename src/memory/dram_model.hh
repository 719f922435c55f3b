/**
 * @file
 * DRAM timing/energy model.
 *
 * Modeled after a 4-channel LPDDR3-1600 part as in the paper's setup
 * (Sec. V): a burst that repeats or directly follows the previous burst
 * counts as streaming (the continuity of Fig. 4); any jump counts as
 * random. Energy per byte comes from EnergyConstants, which hold the
 * paper's published ratios: random : streaming : SRAM approx.
 * 25 : 8.3 : 1 per byte (i.e. random/streaming = 3, random/SRAM = 25).
 */

#ifndef CICERO_MEMORY_DRAM_MODEL_HH
#define CICERO_MEMORY_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

#include "memory/energy_model.hh"
#include "memory/trace.hh"

namespace cicero {

/**
 * Minimum DRAM transfer granularity. A compile-time power of two, so
 * splitting an access into bursts is a shift, not a division.
 */
constexpr std::uint32_t kDramBurstBytes = 64;

/** Configuration of the DRAM device model. */
struct DramConfig
{
    std::uint32_t numBanks = 8;
    double bandwidthGBs = 25.6;   //!< peak streaming bandwidth
    double randomAccessNs = 45.0; //!< latency of a row-miss access
};

/** Aggregate DRAM statistics accumulated over a trace. */
struct DramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t streamingAccesses = 0;
    std::uint64_t randomAccesses = 0;
    std::uint64_t bytes = 0;
    std::uint64_t streamingBytes = 0;
    std::uint64_t randomBytes = 0;

    double nonStreamingFraction() const
    {
        return accesses ? static_cast<double>(randomAccesses) / accesses
                        : 0.0;
    }
};

/**
 * Streaming-vs-random DRAM classifier and energy/latency estimator.
 *
 * Feed it a gather access trace (as a TraceSink); it classifies each
 * burst by the paper's Fig. 4 notion of continuity: a burst is
 * *streaming* if it repeats or immediately follows the previously
 * accessed burst (a sequential stream the memory controller can prefetch
 * and keep within an open row); any jump is a *random* access.
 */
class DramModel : public TraceSink
{
  public:
    explicit DramModel(const DramConfig &config = DramConfig{});

    void onAccess(const MemAccess &access) override;

    const DramStats &stats() const { return _stats; }
    const DramConfig &config() const { return _config; }
    void reset();

    /** Total DRAM energy of the observed trace at @p energy's
     *  per-byte prices, in nanojoules. */
    double energyNj(const EnergyConstants &energy = {}) const;

    /** Total DRAM time of the observed trace, in milliseconds. */
    double timeMs() const;

  private:
    DramConfig _config;
    DramStats _stats;
    std::uint64_t _lastBurst = ~0ull; //!< previously accessed burst id
    bool _hasLast = false;
};

} // namespace cicero

#endif // CICERO_MEMORY_DRAM_MODEL_HH
