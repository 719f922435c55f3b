/**
 * @file
 * DRAM timing/energy model.
 *
 * Modeled after a 4-channel LPDDR3-1600 part as in the paper's setup
 * (Sec. V): accesses that hit the open row of a bank count as streaming;
 * row misses count as random. The paper's published energy ratios are
 * used: random : streaming : SRAM approx. 25 : 8.3 : 1 per byte (i.e.
 * random/streaming = 3, random/SRAM = 25).
 */

#ifndef CICERO_MEMORY_DRAM_MODEL_HH
#define CICERO_MEMORY_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

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
    std::uint32_t rowBytes = 2048;      //!< row-buffer size per bank
    double bandwidthGBs = 25.6;         //!< peak streaming bandwidth
    double randomAccessNs = 45.0;       //!< latency of a row-miss access
    double streamEnergyPjPerByte = 33.3; //!< energy of a streaming byte
    double randomEnergyPjPerByte = 100.0; //!< energy of a random byte
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

    /** Total DRAM energy of the observed trace, in nanojoules. */
    double energyNj() const;

    /** Total DRAM time of the observed trace, in milliseconds. */
    double timeMs() const;

    /**
     * Energy of @p bytes transferred fully streaming, in nJ — used to
     * price the MVoxel streaming traffic of the FS data flow directly.
     */
    double streamingEnergyNj(std::uint64_t bytes) const;

    /** Time in ms of @p bytes transferred fully streaming. */
    double streamingTimeMs(std::uint64_t bytes) const;

  private:
    DramConfig _config;
    DramStats _stats;
    std::uint64_t _lastBurst = ~0ull; //!< previously accessed burst id
    bool _hasLast = false;
};

} // namespace cicero

#endif // CICERO_MEMORY_DRAM_MODEL_HH
