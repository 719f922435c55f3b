/**
 * @file
 * Workload probing: runs the functional model in trace mode, feeds the
 * memory models, and assembles the WorkloadInputs the PerformanceModel
 * prices. This is the bridge between the functional half of the repo
 * (scene/nerf/cicero algorithms) and the timing half (memory/accel).
 *
 * Traces are collected at a reduced `traceRes` and linearly scaled to
 * the paper's 800x800 target: per-sample work scales with ray count,
 * while the set of *touched MVoxels* saturates (denser rays re-touch
 * the same occupied blocks), so streamed bytes are left unscaled.
 */

#ifndef CICERO_CICERO_PROBE_HH
#define CICERO_CICERO_PROBE_HH

#include "cicero/pipeline.hh"
#include "cicero/sparw.hh"
#include "nerf/renderer.hh"

namespace cicero {

/**
 * Probe configuration. The probe's cameras take the model scene's
 * field of view, and its GPU stack the default GpuStackConfig.
 */
struct ProbeOptions
{
    int traceRes = 64;           //!< trace image resolution (square)
    int targetRes = 800;         //!< resolution results are scaled to
    int window = 16;             //!< SPARW window for sparse stats
};

/** Pixel-count ratio of targetRes to traceRes: the work scale. */
double scaleFactor(const ProbeOptions &options);

/** A traceRes stream plan scaled by @p k, as the file comment says. */
StreamPlan scalePlan(const StreamPlan &plan, double k);

/**
 * Measure the full-frame workload of @p model at @p pose: stage work,
 * gather profile (cache miss + streaming fraction), feature-major bank
 * conflict rate of the model's feature vectors, and the FS streaming
 * plan — all scaled to targetRes. The frame is walked once into the
 * GPU and baseline stacks of accel/accel_replay.hh, so at traceRes ==
 * targetRes the profile and conflict rate are those stacks' own.
 */
WorkloadInputs probeFullFrame(const NerfModel &model, const Pose &pose,
                              const ProbeOptions &options = {});

/**
 * Add SPARW per-target-frame statistics to @p inputs: sparse NeRF work,
 * sparse streaming plan and warp point counts, measured by warping
 * between @p refPose and @p tgtPose.
 */
void probeSparseFrame(WorkloadInputs &inputs, const NerfModel &model,
                      const Pose &refPose, const Pose &tgtPose,
                      const ProbeOptions &options = {});

/**
 * Convenience: probe full + sparse inputs from two consecutive
 * trajectory poses.
 */
WorkloadInputs probeWorkload(const NerfModel &model,
                             const std::vector<Pose> &trajectory,
                             const ProbeOptions &options = {});

} // namespace cicero

#endif // CICERO_CICERO_PROBE_HH
