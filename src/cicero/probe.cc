#include "cicero/probe.hh"

#include <cassert>

#include "accel/accel_replay.hh"

namespace cicero {

double
scaleFactor(const ProbeOptions &options)
{
    return static_cast<double>(options.targetRes) * options.targetRes /
           (static_cast<double>(options.traceRes) * options.traceRes);
}

StreamPlan
scalePlan(const StreamPlan &plan, double k)
{
    StreamPlan out = plan;
    // RIT entries grow with ray count; the touched-MVoxel set saturates.
    out.ritEntries = static_cast<std::uint64_t>(plan.ritEntries * k);
    out.ritBytes = static_cast<std::uint64_t>(plan.ritBytes * k);
    out.randomBytes = static_cast<std::uint64_t>(plan.randomBytes * k);
    return out;
}

WorkloadInputs
probeFullFrame(const NerfModel &model, const Pose &pose,
               const ProbeOptions &options)
{
    const double k = scaleFactor(options);
    Camera cam = Camera::fromFov(options.traceRes, options.traceRes,
                                 model.scene().fovYDeg, pose);

    // One traced walk into the GPU and baseline stacks' sinks gives
    // the stage work, the gather profile and the bank conflict rate.
    AccelStacks stacks;
    stacks.attachGpu({});
    stacks.attachBaselines({}, vertexBytes(model));
    const TraceWorkloadDescriptor desc = measureWorkload(model, cam, &stacks);

    WorkloadInputs inputs;
    inputs.window = options.window;
    inputs.framePixels =
        static_cast<std::uint64_t>(options.targetRes) * options.targetRes;
    inputs.vertexBytes = desc.vertexBytes;
    inputs.fullFrame = desc.work.scaled(k);
    inputs.gatherProfile = stacks.gpu(desc).profile;
    inputs.bankConflictRate = stacks.baselines(desc).bankConflictRate;
    inputs.fullStreamPlan = scalePlan(desc.plan, k);
    return inputs;
}

void
probeSparseFrame(WorkloadInputs &inputs, const NerfModel &model,
                 const Pose &refPose, const Pose &tgtPose,
                 const ProbeOptions &options)
{
    const double k = scaleFactor(options);
    Camera refCam = Camera::fromFov(options.traceRes, options.traceRes,
                                    model.scene().fovYDeg, refPose);
    Camera tgtCam = refCam;
    tgtCam.pose = tgtPose;

    RenderResult ref = model.render(refCam);
    WarpOutput w =
        warpFrame(ref.image, ref.depth, refCam, tgtCam,
                  &model.occupancy(), model.scene().background);

    inputs.sparsePerFrame =
        model.traceWorkloadPixels(tgtCam, w.needRender).scaled(k);
    StreamPlan plan = model.encoding().streamingFootprint(
        model.collectSamplePositionsPixels(tgtCam, w.needRender));
    inputs.sparseStreamPlan = scalePlan(plan, k);
    inputs.warpPointsPerFrame = static_cast<std::uint64_t>(
        w.stats.pointsTransformed * k);
}

WorkloadInputs
probeWorkload(const NerfModel &model, const std::vector<Pose> &trajectory,
              const ProbeOptions &options)
{
    assert(trajectory.size() >= 2);
    WorkloadInputs inputs =
        probeFullFrame(model, trajectory[0], options);
    // A mid-window pose pairing is representative of average warp
    // distance within a window.
    std::size_t mid =
        std::min<std::size_t>(trajectory.size() - 1,
                              std::max(1, options.window / 2));
    probeSparseFrame(inputs, model, trajectory[0], trajectory[mid],
                     options);
    return inputs;
}

} // namespace cicero
