/**
 * @file
 * The SPARW rendering pipeline (Sec. III): orchestrates reference-frame
 * selection, warping, and sparse NeRF re-rendering over a camera
 * trajectory, producing per-frame images plus the work records the
 * performance models price.
 *
 * Three strategies are provided:
 *  - Cicero: references extrapolated *off* the trajectory (Eqs. 5-6),
 *    one reference per window of N target frames — reference and target
 *    rendering can overlap (Fig. 11b);
 *  - Temporal (TEMP-N): the previous *output* frame is the reference, as
 *    in prior temporal-reuse work — errors accumulate and reference /
 *    target rendering serialize (Fig. 11a);
 *  - Downsample (DS-k): no warping; render every frame at 1/k resolution
 *    and bilinearly upsample (the DS-2 baseline).
 */

#ifndef CICERO_CICERO_SPARW_HH
#define CICERO_CICERO_SPARW_HH

#include <vector>

#include "cicero/warp.hh"
#include "nerf/renderer.hh"

namespace cicero {

/** SPARW configuration. */
struct SparwConfig
{
    int window = 6;    //!< N: target frames sharing one reference
    WarpParams warp;   //!< warping heuristic parameters
    float dtSeconds = 1.0f / 30.0f; //!< trajectory frame interval
};

/** Everything produced for one displayed (target) frame. */
struct SparwFrame
{
    Image image;
    DepthMap depth;
    WarpStats warpStats;
    StageWork sparseWork;    //!< sparse NeRF work for disocclusions
    std::uint64_t warpPoints = 0; //!< points through Eqs. 1-3
    int referenceIndex = -1; //!< which reference frame was used
};

/** A reference frame and the work that produced it. */
struct SparwReference
{
    Pose pose;
    StageWork work;     //!< full-frame NeRF work
    bool onTrajectory = false;
};

/** Real-time (deadline-driven) SPARW configuration. */
struct SparwRealtimeConfig
{
    /**
     * Per-frame wall-clock budget: frame i must be delivered by
     * (i+1) * frameBudgetS after the run starts. Windows whose
     * first-frame deadline has already passed when their reference
     * *would* be submitted fall back to downsampled rendering instead
     * of rendering a reference they cannot use in time.
     */
    float frameBudgetS = 1.0f / 30.0f;

    /** Downsample factor of the fallback path (the DS-k baseline). */
    int fallbackFactor = 2;
};

/** Deadline accounting of one real-time SPARW run. */
struct SparwDeadlineStats
{
    int frames = 0;          //!< frames delivered
    int deadlineMisses = 0;  //!< frames completed after their deadline
    int fallbackFrames = 0;  //!< frames that took the downsampled path
    int predictedReferences = 0; //!< references rendered at extrapolated poses
    double wallS = 0.0;      //!< wall time of the whole run

    double missRate() const;
    double fallbackRate() const;
};

/** Output of running SPARW over a trajectory. */
struct SparwRun
{
    std::vector<SparwFrame> frames;
    std::vector<SparwReference> references;

    /** Mean fraction of pixels warped (not NeRF-rendered). */
    double meanOverlap() const;

    /** Mean fraction of pixels re-rendered by sparse NeRF. */
    double meanRerender() const;

    /** Total sparse-NeRF work across target frames. */
    StageWork totalSparseWork() const;

    /** Total full-frame work across references. */
    StageWork totalReferenceWork() const;
};

/** Output of a real-time SPARW run: the frames plus deadline stats. */
struct SparwRealtimeRun
{
    SparwRun run;
    SparwDeadlineStats deadline;
};

/**
 * Runs SPARW functionally over a trajectory with a given model.
 */
class SparwPipeline
{
  public:
    /**
     * @param model     baked NeRF model for the scene
     * @param intrinsics camera intrinsics (pose field is ignored)
     */
    SparwPipeline(const NerfModel &model, const Camera &intrinsics,
                  const SparwConfig &config);

    /** Cicero strategy: extrapolated off-trajectory references. */
    SparwRun run(const std::vector<Pose> &trajectory) const;

    /** TEMP-N strategy: previous output frame as reference. */
    SparwRun runTemporal(const std::vector<Pose> &trajectory) const;

    /** DS-k strategy: downsampled full rendering, no warping. */
    SparwRun runDownsampled(const std::vector<Pose> &trajectory,
                            int factor) const;

    /**
     * Real-time mode: the Cicero strategy driven by per-frame
     * deadlines. References are rendered one window ahead at
     * pose-extrapolated (predicted) positions while the current
     * window's frames are processed; when the deadline budget is
     * exhausted a window falls back to downsampled rendering
     * (runDownsampled math, bit for bit). At the extremes the output
     * is deterministic: an effectively infinite budget reproduces
     * run() exactly, a zero budget reproduces runDownsampled(
     * fallbackFactor) frame images exactly — in between, which windows
     * fall back depends on measured wall time.
     */
    SparwRealtimeRun runRealtime(const std::vector<Pose> &trajectory,
                                 const SparwRealtimeConfig &rt) const;

    const SparwConfig &config() const { return _config; }

  private:
    Camera cameraAt(const Pose &pose) const;

    /**
     * One reference per window of the trajectory, at the pose Fig. 10
     * resolves: the first window uses the first trajectory pose, every
     * later one extrapolates the two poses preceding it (Eqs. 5-6).
     * Depends only on the input trajectory, never on rendered output.
     * The work fields are left empty.
     */
    std::vector<SparwReference>
    resolveReferences(const std::vector<Pose> &trajectory) const;

    /**
     * Target frame @p target warped from a reference render, then its
     * disocclusions sparse-rendered (Eq. 4).
     */
    SparwFrame warpAndFill(const Image &refImage, const DepthMap &refDepth,
                           const Camera &refCam, const Camera &target,
                           int referenceIndex) const;

    /** The DS-k frame: @p low bilinearly upsampled to full size. */
    SparwFrame downsampledFrame(const Image &low, int referenceIndex) const;

    const NerfModel &_model;
    Camera _intrinsics;
    SparwConfig _config;
};

} // namespace cicero

#endif // CICERO_CICERO_SPARW_HH
