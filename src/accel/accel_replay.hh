/**
 * @file
 * Accelerator-model stacks: run every `src/accel/` model — GPU, NPU,
 * Gathering Unit, and the NeuRex/NGPC baselines — from a frame's
 * gather stream, live or replayed, exactly like the memory-model
 * stacks in memory/replay.hh.
 *
 * The access stream alone does not determine an accelerator price:
 * the models consume derived quantities (StageWork op counts, the
 * encoding's StreamPlan, the vertex feature size) that the renderer
 * measures at capture time. Trace containers therefore persist a
 * TraceWorkloadSummary in the header holding those exact integers;
 * a TraceWorkloadDescriptor is its in-memory form. A live frame is
 * measured by measureWorkload(), whose one traced walk both feeds a
 * sink and yields the descriptor; a replay run recovers the identical
 * integers with workloadFromTrace() — so replayed accelerator stats
 * are bit-identical to live ones, extending the capture-once /
 * replay-many contract from the memory stacks to the full accelerator
 * models.
 *
 * A frame's stream is walked once into AccelStacks, which holds every
 * stack's sinks and prices each stack from what they observed: the
 * GPU stack measures its GatherProfile (cache miss rate, DRAM random
 * fraction) through warp-interleaved cache and DRAM probes, the
 * baseline stack runs a feature-major bank-conflict simulation over
 * the raw stream, and one count of the stream gives all four stacks
 * their accesses and rays — every replayed byte is observed, so a
 * stream/summary mismatch shows up in the stats. The NPU and GU
 * stacks need only that count; the GU needs no simulation, because
 * its channel-major layout is conflict-free by the construction of
 * the Sec. IV-B schedule. This is the one wiring of those sinks: the
 * full-frame probe (cicero/probe.hh), the live side of
 * `cicero_dse --check` and every DSE point walk their frame into it;
 * each run*Stack walks a stream into its own stack's sinks alone.
 */

#ifndef CICERO_ACCEL_ACCEL_REPLAY_HH
#define CICERO_ACCEL_ACCEL_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "accel/baseline_accels.hh"
#include "accel/gathering_unit.hh"
#include "accel/gpu_model.hh"
#include "accel/npu_model.hh"
#include "memory/replay.hh"
#include "memory/tracefile.hh"
#include "nerf/encoding.hh"
#include "nerf/renderer.hh"
#include "nerf/workload.hh"

namespace cicero {

/**
 * The capture-time quantities an accelerator model needs beyond the
 * access stream. In-memory (typed) counterpart of the container's
 * TraceWorkloadSummary.
 */
struct TraceWorkloadDescriptor
{
    StageWork work;              //!< frame op counts
    StreamPlan plan;             //!< encoding streaming footprint
    std::uint32_t vertexBytes = 0; //!< bytes of one feature vector
};

/** Convert a descriptor to the container's serialized form. */
TraceWorkloadSummary toSummary(const TraceWorkloadDescriptor &desc);

/** Convert the container's serialized form back to a descriptor. */
TraceWorkloadDescriptor fromSummary(const TraceWorkloadSummary &summary);

/** Bytes of one feature vector of @p model: featureDim x 2 B. */
std::uint32_t vertexBytes(const NerfModel &model);

/**
 * Measure @p model's frame at @p cam live: one traced workload walk,
 * which streams the frame's gather accesses into @p sink (none when
 * null) and gives the op counts, plus the footprint walk for the
 * encoding's StreamPlan. The one way a live frame becomes a measured
 * workload.
 */
TraceWorkloadDescriptor measureWorkload(const NerfModel &model,
                                        const Camera &cam,
                                        TraceSink *sink = nullptr);

/**
 * The container metadata a capture of @p model at @p cam determines:
 * scene, encoding, size, capture thread count, featureBytes and the
 * feature storage mode. The model-kind name (`model`) is the
 * caller's.
 */
TraceFileMeta captureMeta(const NerfModel &model, const Camera &cam);

/**
 * Recover the descriptor persisted in a trace container.
 * @throws std::runtime_error when the file was captured without a
 *         summary.
 */
TraceWorkloadDescriptor workloadFromTrace(const TraceFileReader &reader);

/** Live trace source: emits the model's gather stream for @p cam. */
inline TraceSourceFn
liveSource(const NerfModel &model, const Camera &cam)
{
    return [&model, cam](TraceSink *sink) {
        model.traceWorkload(cam, sink);
    };
}

// ---------------------------------------------------------------------
// GPU stack
// ---------------------------------------------------------------------

/** GPU stack: cache + DRAM probes feeding the analytic GPU model. */
struct GpuStackConfig
{
    GpuConfig gpu;               //!< includes the DRAM device (gpu.dram)
    CacheConfig cache;           //!< gather cache probed for miss rate
    std::uint32_t warpWays = 32; //!< warp interleaving in front of it
    EnergyConstants energy;
};

struct GpuStackResult
{
    GpuStageTimes times;       //!< per-stage ms for the full frame
    GatherProfile profile;     //!< measured from the replayed stream
    double timeMs = 0.0;       //!< full-frame GPU time
    double energyNj = 0.0;     //!< busy energy + gather DRAM energy
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source through warp-interleaved cache and DRAM probes,
 * then price the frame on the GPU model with the measured profile.
 */
GpuStackResult runGpuStack(const TraceSourceFn &source,
                           const TraceWorkloadDescriptor &desc,
                           const GpuStackConfig &config = {});

// ---------------------------------------------------------------------
// NPU stack
// ---------------------------------------------------------------------

struct NpuStackResult
{
    double mlpMs = 0.0;
    double timeMs = 0.0;       //!< the MLP time: the NPU's only work
    double energyNj = 0.0;     //!< busy energy + MAC energy
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source (counted) and price the MLP on the NPU. The GPU
 * composites in every system of PerformanceModel, so the NPU's time
 * and energy are its MLP's.
 */
NpuStackResult runNpuStack(const TraceSourceFn &source,
                           const TraceWorkloadDescriptor &desc,
                           const NpuConfig &config = {},
                           const EnergyConstants &energy = {});

// ---------------------------------------------------------------------
// Gathering Unit stack
// ---------------------------------------------------------------------

struct GuStackConfig
{
    GatheringUnitConfig gu;
    DramConfig dram;
    EnergyConstants energy;
};

struct GuStackResult
{
    GuCost cost;                    //!< analytic GU price of the plan
    /** Channel-major bank traffic: one request and one fetch per
     *  replayed access, no stalls (conflict-free by construction). */
    BankConflictStats channelMajor;
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source (counted) and price the descriptor's StreamPlan on
 * the GU model.
 */
GuStackResult runGuStack(const TraceSourceFn &source,
                         const TraceWorkloadDescriptor &desc,
                         const GuStackConfig &config = {});

// ---------------------------------------------------------------------
// Baseline accelerators stack (NeuRex + NGPC)
// ---------------------------------------------------------------------

struct BaselineStackConfig
{
    NeurexConfig neurex;
    NgpcConfig ngpc;
    SramBankConfig bank; //!< feature-major sim; featureBytes comes from
                         //!< the trace's vertex size
    DramConfig dram;
    EnergyConstants energy;
};

struct BaselineStackResult
{
    AccelFrameCost neurex;
    AccelFrameCost ngpc;
    double bankConflictRate = 0.0; //!< measured feature-major rate
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source through a feature-major bank-conflict simulation
 * (NeuRex's layout) and price the frame on both baseline models.
 */
BaselineStackResult runBaselineStack(const TraceSourceFn &source,
                                     const TraceWorkloadDescriptor &desc,
                                     const BaselineStackConfig &config = {});

// ---------------------------------------------------------------------
// One walk, every stack
// ---------------------------------------------------------------------

/**
 * The accelerator stacks over one walk of a frame's stream: the sinks
 * that observe it, and each stack's price of what they observed.
 *
 * Attach the sinks of the stacks to price, which need only their
 * configs and the vertex size; walk one stream into the object
 * (`source(&stacks)`, or `measureWorkload(model, cam, &stacks)` live);
 * then price the stacks on the frame's descriptor. Every stack's
 * accesses and rays come from the one count this object keeps. The
 * NPU and GU stacks need only that count; the GPU and baseline stacks
 * price what their attached sinks measured. Each run*Stack function
 * above is this object fed for its one stack.
 */
class AccelStacks final : public TraceSink
{
  public:
    AccelStacks();
    ~AccelStacks() override;
    AccelStacks(const AccelStacks &) = delete;
    AccelStacks &operator=(const AccelStacks &) = delete;

    /** The GPU stack's sinks: warp interleaving in front of the DRAM
     *  and cache probes. */
    void attachGpu(const GpuStackConfig &config);

    /** The baseline stack's sink: a feature-major (NeuRex layout)
     *  bank-conflict simulation of the raw stream, its vectors
     *  @p vertexBytes wide (0 keeps config.bank.featureBytes). */
    void attachBaselines(const BaselineStackConfig &config,
                         std::uint32_t vertexBytes);

    void onAccess(const MemAccess &access) override;
    void onRayEnd(std::uint32_t rayId) override;
    void onFlush() override;

    /** GPU price on the measured profile. @pre attachGpu(). */
    GpuStackResult gpu(const TraceWorkloadDescriptor &desc) const;
    NpuStackResult npu(const TraceWorkloadDescriptor &desc,
                       const NpuConfig &config = {},
                       const EnergyConstants &energy = {}) const;
    GuStackResult gu(const TraceWorkloadDescriptor &desc,
                     const GuStackConfig &config = {}) const;
    /** Baseline prices on the measured conflict rate.
     *  @pre attachBaselines(). */
    BaselineStackResult baselines(const TraceWorkloadDescriptor &desc) const;

  private:
    struct GpuSinks;
    struct BaselineSinks;

    std::uint64_t _accesses = 0;
    std::uint64_t _rays = 0;
    std::unique_ptr<GpuSinks> _gpu;
    std::unique_ptr<BaselineSinks> _baselines;
};

/**
 * Deterministic JSON for the accelerator stacks — same contract as the
 * memory-stack statsJson overloads: integers verbatim, fixed-precision
 * floats, byte-identical strings for equal results.
 */
std::string statsJson(const GpuStackResult &result);
std::string statsJson(const NpuStackResult &result);
std::string statsJson(const GuStackResult &result);
std::string statsJson(const BaselineStackResult &result);

} // namespace cicero

#endif // CICERO_ACCEL_ACCEL_REPLAY_HH
