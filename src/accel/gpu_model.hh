/**
 * @file
 * Analytic timing/energy model of the mobile Volta GPU (Nvidia Xavier
 * SoC) the paper measures on, plus the remote workstation GPU (2080 Ti)
 * used by the remote-rendering scenario.
 *
 * The paper parameterizes its cycle-level simulator from GPU
 * measurements; we parameterize this model from the paper's published
 * characterization: DirectVoxGO ~0.8 FPS at 800x800 with Feature
 * Gathering >56% of execution (Figs. 2-3), Instant-NGP ~6 s/frame, and
 * the SPARW warping stages costing <1 ms per million points (Sec. III-B).
 */

#ifndef CICERO_ACCEL_GPU_MODEL_HH
#define CICERO_ACCEL_GPU_MODEL_HH

#include "memory/dram_model.hh"
#include "memory/energy_model.hh"
#include "nerf/encoding.hh"
#include "nerf/workload.hh"

namespace cicero {

/** Throughput parameters of a GPU. */
struct GpuConfig
{
    std::string name = "XavierVolta";
    double macThroughput = 0.35e12;  //!< effective MAC/s for small MLPs
    double aluThroughput = 0.30e12;  //!< scalar ops/s (indexing, interp)
    /**
     * Effective gather-fetch throughput: an irregular gather costs
     * address arithmetic, bounds checks and an uncoalesced load —
     * roughly 1 G fetches/s sustained on the mobile part.
     */
    double fetchIssueRate = 1e9;
    /**
     * Utilization penalty for *sparse* (disocclusion) rendering: a few
     * thousand scattered pixels cannot fill the machine the way a full
     * frame does (small kernels, divergent warps, poor MVoxel
     * utilization on the GU side alike).
     */
    double sparseDispatchOverhead = 4.0;
    double cacheMissTransactionBytes = 64.0; //!< DRAM bytes per miss
    double randomPenalty = 8.0;      //!< bandwidth derating for random
    double activePowerW = 18.0;
    double pointOpsPerSecond = 1.2e9; //!< warp/projection points per s
    DramConfig dram;

    /** The remote workstation GPU (RTX 2080 Ti class). */
    static GpuConfig remote2080Ti();
};

/** Per-stage execution time of a NeRF frame on the GPU, in ms. */
struct GpuStageTimes
{
    double indexMs = 0.0;
    double gatherMs = 0.0;
    double mlpMs = 0.0;
    double compositeMs = 0.0;

    double
    totalMs() const
    {
        return indexMs + gatherMs + mlpMs + compositeMs;
    }
};

/** Memory behaviour of the gather stage, as measured on a trace. */
struct GatherProfile
{
    double cacheMissRate = 0.38;     //!< fraction of fetches missing 2 MB
    double randomFraction = 0.81;    //!< non-streaming DRAM fraction
};

/**
 * The GPU timing/energy model.
 */
class GpuModel
{
  public:
    explicit GpuModel(const GpuConfig &config = GpuConfig{});

    const GpuConfig &config() const { return _config; }

    /**
     * Time the three pipeline stages of a (full or sparse) NeRF frame.
     */
    GpuStageTimes timeNerfFrame(const StageWork &work,
                                const GatherProfile &profile) const;

    /** Energy of running the GPU busy for @p ms, in nJ. */
    double energyNj(double ms) const
    {
        return _config.activePowerW * ms * 1e6;
    }

    /**
     * Time of the SPARW warping stages (point-cloud conversion,
     * transformation, re-projection) for @p points points, in ms.
     */
    double warpTimeMs(std::uint64_t points) const
    {
        return points / _config.pointOpsPerSecond * 1e3;
    }

    /**
     * Time of the fully-streaming gather run in software, in ms: the
     * slower of @p plan's DRAM time (streamed bytes at full bandwidth
     * plus random bytes derated) and issuing 8 fetches per RIT entry.
     */
    double streamingGatherMs(const StreamPlan &plan) const;

    /** DRAM traffic the gather stage generates, in bytes. */
    std::uint64_t gatherDramBytes(const StageWork &work,
                                  const GatherProfile &profile) const;

    /**
     * DRAM energy of the gather stage, in nJ: gatherDramBytes split
     * into random and streaming shares by the profile and priced at
     * @p energy's per-byte constants.
     */
    double gatherDramEnergyNj(const StageWork &work,
                              const GatherProfile &profile,
                              const EnergyConstants &energy = {}) const;

  private:
    GpuConfig _config;
};

} // namespace cicero

#endif // CICERO_ACCEL_GPU_MODEL_HH
