/**
 * @file
 * End-to-end performance/energy composition — the "cycle-level
 * simulator" of Sec. V, assembled from the component models:
 * GpuModel (local Xavier GPU and remote 2080 Ti), NpuModel (24x24
 * systolic array), GatheringUnitModel (the GU), and the DRAM/energy
 * models.
 *
 * It prices a *displayed frame* under the paper's four systems:
 *   Baseline  — every frame full NeRF: I+G on GPU, F on NPU;
 *   SPARW     — one reference per window N, warping + sparse NeRF for
 *               targets, same hardware as Baseline;
 *   SPARW+FS  — plus fully-streaming gathering (software data flow);
 *   CICERO    — plus the GU (conflict-free, streaming gather in HW);
 * under the two deployment scenarios of Sec. V:
 *   Local     — everything on-device (reference work shares the device,
 *               so its cost amortizes over the window but still adds);
 *   Remote    — reference frames rendered on a tethered workstation GPU
 *               and shipped over the 10 MB/s / 100 nJ/B wireless link;
 *               target-frame work stays local.
 */

#ifndef CICERO_CICERO_PIPELINE_HH
#define CICERO_CICERO_PIPELINE_HH

#include <utility>

#include "accel/baseline_accels.hh"
#include "accel/gathering_unit.hh"
#include "accel/gpu_model.hh"
#include "accel/npu_model.hh"
#include "memory/energy_model.hh"
#include "nerf/encoding.hh"
#include "nerf/workload.hh"

namespace cicero {

/** The four systems of Fig. 19. */
enum class SystemVariant
{
    Baseline,
    Sparw,
    SparwFs,
    Cicero,
};

const char *variantName(SystemVariant variant);

/**
 * Everything the pricer needs to know about a (model, scene, window)
 * workload; measured once by the benches from functional runs.
 */
struct WorkloadInputs
{
    // Full-frame NeRF rendering (a reference frame).
    StageWork fullFrame;
    GatherProfile gatherProfile;  //!< measured cache/streaming behaviour
    double bankConflictRate = 0.5; //!< measured feature-major conflicts
    StreamPlan fullStreamPlan;    //!< FS footprint of a full frame
    std::uint32_t vertexBytes = 18;

    // Per displayed (target) frame under SPARW, averaged over a run.
    StageWork sparsePerFrame;     //!< sparse NeRF work (Eq. 4)
    StreamPlan sparseStreamPlan;  //!< FS footprint of the sparse work
    std::uint64_t warpPointsPerFrame = 0;
    int window = 16;              //!< N target frames per reference

    std::uint64_t framePixels = 0; //!< for wireless transfer sizing
};

/** A priced displayed frame. */
struct FramePrice
{
    double timeMs = 0.0;
    double energyNj = 0.0; //!< device-side energy

    /** Attribution, for Fig. 18 / Fig. 21 style breakdowns. */
    double fullFrameMs = 0.0; //!< reference (full NeRF) share
    double sparseMs = 0.0;    //!< sparse NeRF share
    double warpMs = 0.0;      //!< warping + projection share
    double otherMs = 0.0;     //!< comm/misc share
    double dramEnergyNj = 0.0; //!< the DRAM share of energyNj
};

/**
 * The composed performance model.
 */
class PerformanceModel
{
  public:
    PerformanceModel(const GpuConfig &localGpu = GpuConfig{},
                     const NpuConfig &npu = NpuConfig{},
                     const GatheringUnitConfig &gu = GatheringUnitConfig{},
                     const GpuConfig &remoteGpu = GpuConfig::remote2080Ti(),
                     const EnergyConstants &energy = EnergyConstants{});

    /** Price one displayed frame in the local-rendering scenario. */
    FramePrice priceLocal(SystemVariant variant,
                          const WorkloadInputs &inputs) const;

    /** Price one displayed frame in the remote-rendering scenario. */
    FramePrice priceRemote(SystemVariant variant,
                           const WorkloadInputs &inputs) const;

    /**
     * Cost of one *full NeRF frame* under a variant's gather engine —
     * the unit Figs. 17/24 compare (no SPARW amortization).
     */
    FramePrice priceFullFrame(SystemVariant variant,
                              const WorkloadInputs &inputs) const;

    /** Gather-stage-only comparison for Fig. 20 (GPU vs GU). */
    struct GatherPrice
    {
        double gpuMs = 0.0, gpuEnergyNj = 0.0;
        double guMs = 0.0, guEnergyNj = 0.0;
    };
    GatherPrice priceGatherOnly(const WorkloadInputs &inputs) const;

    const GpuModel &localGpu() const { return _localGpu; }
    const GpuModel &remoteGpu() const { return _remoteGpu; }
    const NpuModel &npu() const { return _npu; }
    const GatheringUnitModel &gu() const { return _gu; }
    const EnergyConstants &energy() const { return _energy; }

  private:
    /** Time+energy of a NeRF render (full or sparse) on engines chosen
     *  by @p variant; @p plan used by FS/Cicero variants. */
    FramePrice nerfCost(SystemVariant variant, const StageWork &work,
                        const GatherProfile &profile,
                        const StreamPlan &plan,
                        std::uint32_t vertexBytes) const;

    /** Warping cost (Eqs. 1-3 + depth test) on the local GPU. */
    FramePrice warpCost(std::uint64_t points) const;

    /** A SPARW target frame's sparse NeRF (times the GPU's
     *  sparseDispatchOverhead) and warp. */
    std::pair<FramePrice, FramePrice>
    targetFrameCost(SystemVariant variant,
                    const WorkloadInputs &inputs) const;

    GpuModel _localGpu;
    NpuModel _npu;
    GatheringUnitModel _gu;
    GpuModel _remoteGpu;
    EnergyConstants _energy;
};

} // namespace cicero

#endif // CICERO_CICERO_PIPELINE_HH
