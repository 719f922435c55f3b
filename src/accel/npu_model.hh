/**
 * @file
 * Systolic-array NPU timing model (Sec. V hardware details): a 24x24
 * MAC array in the TPU style with a 1.5 MB double-buffered global
 * feature buffer and a 96 KB weight buffer. It runs the MLP only; the
 * GPU composites.
 */

#ifndef CICERO_ACCEL_NPU_MODEL_HH
#define CICERO_ACCEL_NPU_MODEL_HH

#include <cstdint>
#include <vector>

#include "memory/energy_model.hh"

namespace cicero {

/** NPU hardware parameters. */
struct NpuConfig
{
    int rows = 24;
    int cols = 24;
    double freqGHz = 1.0;
    double utilization = 0.75;       //!< sustained MAC-array efficiency
    std::uint64_t featureBufBytes = 1536 * 1024; //!< 1.5 MB, double-buffered
    std::uint64_t weightBufBytes = 96 * 1024;
    double activePowerW = 3.5;

    /** On-chip SRAM footprint: feature + weight buffers. */
    std::uint64_t
    sramBytes() const
    {
        return featureBufBytes + weightBufBytes;
    }
};

/**
 * Timing of MLP inference batches on the systolic array.
 */
class NpuModel
{
  public:
    explicit NpuModel(const NpuConfig &config = NpuConfig{});

    const NpuConfig &config() const { return _config; }

    /**
     * Time to run @p macs multiply-accumulates of dense layers through
     * the array at sustained utilization, in ms.
     */
    double mlpTimeMs(std::uint64_t macs) const;

    /**
     * Time of one batched layer (explicit tiling model): @p batch
     * samples through a (@p in x @p out) layer, in cycles.
     */
    std::uint64_t layerCycles(int batch, int in, int out) const;

    /** Busy energy for @p ms, in nJ. */
    double energyNj(double ms) const
    {
        return _config.activePowerW * ms * 1e6;
    }

    /** MAC energy for @p macs at @p c's constants, in nJ. */
    double macEnergyNj(std::uint64_t macs,
                       const EnergyConstants &c = EnergyConstants{}) const
    {
        return macs * c.macPj * 1e-3;
    }

  private:
    NpuConfig _config;
};

} // namespace cicero

#endif // CICERO_ACCEL_NPU_MODEL_HH
