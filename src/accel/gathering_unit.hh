/**
 * @file
 * Timing/energy model of the Gathering Unit (GU) of Sec. IV-C / Fig. 15:
 * a double-buffered Ray Index Table (128 entries x 48 B), a Vertex
 * Feature Table of B independent SRAM arrays with M ports each (32 KB,
 * B = 32, M = 2), address generation, and B x M trilinear reducers.
 *
 * With the channel-major layout the VFT needs no crossbar and never
 * conflicts: reading one vertex's feature takes one cycle across all
 * banks, so one ray sample (8 vertices) takes 8 cycles, and M samples
 * proceed in parallel. MVoxel loads stream from DRAM and overlap with
 * compute through double buffering.
 */

#ifndef CICERO_ACCEL_GATHERING_UNIT_HH
#define CICERO_ACCEL_GATHERING_UNIT_HH

#include <cstdint>

#include "memory/dram_model.hh"
#include "memory/energy_model.hh"
#include "nerf/encoding.hh"

namespace cicero {

/** GU hardware parameters (paper defaults). */
struct GatheringUnitConfig
{
    std::uint32_t banks = 32;       //!< B: independent SRAM arrays
    std::uint32_t ports = 2;        //!< M: ports per bank
    std::uint64_t vftBytes = 32 * 1024;
    std::uint64_t ritEntryBytes = 48;
    std::uint32_t ritEntries = 128; //!< per buffer (double-buffered)
    double freqGHz = 1.0;
    double activePowerW = 0.25;     //!< datapath + SRAM leakage

    /** On-chip SRAM footprint: VFT plus the double-buffered RIT. */
    std::uint64_t
    sramBytes() const
    {
        return vftBytes + 2ull * ritEntries * ritEntryBytes;
    }
};

/** Priced GU execution of a gather workload. */
struct GuCost
{
    double computeMs = 0.0; //!< reducer/VFT-bound time
    double dramMs = 0.0;    //!< MVoxel + residual streaming time
    double timeMs = 0.0;    //!< max of the two (double buffering)
    double energyNj = 0.0;
    double dramEnergyNj = 0.0; //!< the planDramEnergyNj share of energyNj
    std::uint64_t cycles = 0;
};

/**
 * DRAM energy of a memory-centric gather over @p plan, in nJ: MVoxels
 * and the RIT at the streaming price, the hashed-level residue at the
 * random price. The GU and the software streaming gather both pay it.
 */
double planDramEnergyNj(const StreamPlan &plan,
                        const EnergyConstants &energy);

/**
 * Analytic GU model. The workload is a StreamPlan (from
 * Encoding::streamingFootprint) — MVoxel bytes streamed once, residual
 * random bytes for non-streamable levels, and RIT entries to process.
 */
class GatheringUnitModel
{
  public:
    explicit GatheringUnitModel(const GatheringUnitConfig &config = {});

    const GatheringUnitConfig &config() const { return _config; }

    /**
     * Price a gather workload.
     *
     * @param plan        streaming footprint of the frame/batch
     * @param vertexBytes bytes of one vertex feature vector
     * @param dram        DRAM device parameters
     * @param energy      energy constants
     */
    GuCost price(const StreamPlan &plan, std::uint32_t vertexBytes,
                 const DramConfig &dram = DramConfig{},
                 const EnergyConstants &energy = EnergyConstants{}) const;

    /**
     * Per-byte VFT access energy scale as a function of buffer size —
     * the Fig. 23 sensitivity: flat up to 64 KB, growing beyond as
     * larger SRAM arrays cost more per access.
     */
    static double sramEnergyScale(std::uint64_t vftBytes);

    /**
     * Largest MVoxel edge (in vertices) whose chunk fits the VFT for a
     * given vertex size — how the paper sizes MVoxels (Sec. IV-A).
     */
    static int mvoxelEdgeForBuffer(std::uint64_t vftBytes,
                                   std::uint32_t vertexBytes);

  private:
    GatheringUnitConfig _config;
};

} // namespace cicero

#endif // CICERO_ACCEL_GATHERING_UNIT_HH
