#include "cicero/sparw.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "cicero/pose_extrapolation.hh"
#include "common/parallel.hh"

namespace cicero {

namespace {

/**
 * Per-window dependency-graph driver of run() and runDownsampled() (the
 * Fig. 11b overlap): for every window wi, frameTask(wi) depends on
 * refTask(wi) and on nothing else, so a straggling reference delays
 * only its own window.
 * References stream ahead continuously; the edge
 * refTask(wi) -> after frameTask(wi - cap) bounds the number of
 * windows whose reference can be alive at once to cap = max(2,
 * 2 x threads), keeping peak memory O(threads) instead of O(windows).
 *
 * Tasks are submitted in topological order (frame wi-cap before ref
 * wi before frame wi), so on a one-thread pool the graph degenerates
 * to the serial walk: ref(0), frames(0), ref(1), frames(1), ... Both
 * callbacks write disjoint slots, so the output at any thread count is
 * bit-identical to that walk.
 */
void
runWindowGraph(int numWindows, const std::function<void(int)> &renderRef,
               const std::function<void(int)> &processWindow)
{
    const int cap = std::max(2, 2 * parallelThreadCount());
    TaskGroup graph;
    std::vector<TaskHandle> frameTasks(numWindows);
    for (int wi = 0; wi < numWindows; ++wi) {
        std::vector<TaskHandle> refDeps;
        if (wi >= cap)
            refDeps.push_back(frameTasks[wi - cap]);
        TaskHandle ref = graph.runAfter(
            refDeps, [&renderRef, wi] { renderRef(wi); });
        frameTasks[wi] = graph.runAfter(
            {ref}, [&processWindow, wi] { processWindow(wi); });
    }
    graph.wait();
}

/**
 * Fallback camera of the DS-k paths. runDownsampled() and
 * runRealtime()'s deadline fallback must construct the *same* camera
 * so a budget-exhausted real-time run reproduces runDownsampled
 * images bit for bit.
 */
Camera
downsampledCamera(const Camera &intrinsics, int factor)
{
    Camera low = intrinsics;
    low.width = std::max(1, intrinsics.width / factor);
    low.height = std::max(1, intrinsics.height / factor);
    low.focal = intrinsics.focal / factor;
    low.cx = intrinsics.cx / factor;
    low.cy = intrinsics.cy / factor;
    return low;
}

} // namespace

double
SparwDeadlineStats::missRate() const
{
    return frames > 0 ? static_cast<double>(deadlineMisses) / frames : 0.0;
}

double
SparwDeadlineStats::fallbackRate() const
{
    return frames > 0 ? static_cast<double>(fallbackFrames) / frames : 0.0;
}

double
SparwRun::meanOverlap() const
{
    if (frames.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &f : frames)
        acc += f.warpStats.overlapFraction();
    return acc / frames.size();
}

double
SparwRun::meanRerender() const
{
    if (frames.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &f : frames)
        acc += f.warpStats.rerenderFraction();
    return acc / frames.size();
}

StageWork
SparwRun::totalSparseWork() const
{
    StageWork w;
    for (const auto &f : frames)
        w += f.sparseWork;
    return w;
}

StageWork
SparwRun::totalReferenceWork() const
{
    StageWork w;
    for (const auto &r : references)
        w += r.work;
    return w;
}

SparwPipeline::SparwPipeline(const NerfModel &model,
                             const Camera &intrinsics,
                             const SparwConfig &config)
    : _model(model), _intrinsics(intrinsics), _config(config)
{
}

Camera
SparwPipeline::cameraAt(const Pose &pose) const
{
    Camera c = _intrinsics;
    c.pose = pose;
    return c;
}

std::vector<SparwReference>
SparwPipeline::resolveReferences(const std::vector<Pose> &trajectory) const
{
    const int n = static_cast<int>(trajectory.size());
    const int window = std::max(1, _config.window);
    std::vector<SparwReference> refs;
    for (int i = 0; i < n; i += window) {
        if (i >= 2)
            refs.push_back(SparwReference{
                extrapolateReferencePose(trajectory[i - 2],
                                         trajectory[i - 1],
                                         _config.dtSeconds, window),
                StageWork{}, false});
        else
            refs.push_back(SparwReference{trajectory[0], StageWork{}, true});
    }
    return refs;
}

SparwFrame
SparwPipeline::warpAndFill(const Image &refImage, const DepthMap &refDepth,
                           const Camera &refCam, const Camera &target,
                           int referenceIndex) const
{
    WarpOutput w = warpFrame(refImage, refDepth, refCam, target,
                             &_model.occupancy(), _model.scene().background,
                             _config.warp);
    SparwFrame frame;
    frame.warpStats = w.stats;
    frame.warpPoints = w.stats.pointsTransformed;
    frame.referenceIndex = referenceIndex;
    frame.sparseWork =
        _model.renderPixels(target, w.needRender, w.image, w.depth);
    frame.image = std::move(w.image);
    frame.depth = std::move(w.depth);
    return frame;
}

SparwFrame
SparwPipeline::downsampledFrame(const Image &low, int referenceIndex) const
{
    SparwFrame frame;
    frame.referenceIndex = referenceIndex;
    frame.warpStats.totalPixels =
        static_cast<std::uint64_t>(_intrinsics.width) * _intrinsics.height;
    frame.image = low.upsampleBilinear(_intrinsics.width, _intrinsics.height);
    frame.depth = DepthMap(_intrinsics.width, _intrinsics.height);
    return frame;
}

SparwRun
SparwPipeline::run(const std::vector<Pose> &trajectory) const
{
    SparwRun out;
    const int n = static_cast<int>(trajectory.size());
    const int window = std::max(1, _config.window);

    // Reference poses depend only on the *input* trajectory (the two
    // poses preceding each window, known before it starts — Fig. 10),
    // never on rendered output, so the window graph can render
    // references ahead while earlier windows' frames are still in
    // flight. Per window: render the reference (one heavy unit; its
    // row loop shares the pool via work stealing), then warp every
    // target frame from it and sparse-render the disocclusions
    // (Eq. 4), and release the reference image once its frames are
    // done.
    out.references = resolveReferences(trajectory);
    const int numWindows = static_cast<int>(out.references.size());
    std::vector<RenderResult> refRenders(numWindows);
    out.frames.resize(n);

    runWindowGraph(
        numWindows,
        [&](int wi) {
            refRenders[wi] = _model.render(cameraAt(out.references[wi].pose));
            out.references[wi].work = refRenders[wi].work;
        },
        [&](int wi) {
            const int f0 = wi * window;
            const int f1 = std::min(f0 + window, n);
            const Camera refCam = cameraAt(out.references[wi].pose);
            parallelForOuter(f1 - f0, [&](std::int64_t k) {
                const int i = f0 + static_cast<int>(k);
                out.frames[i] =
                    warpAndFill(refRenders[wi].image, refRenders[wi].depth,
                                refCam, cameraAt(trajectory[i]), wi);
            });
            refRenders[wi] = RenderResult{};
        });
    return out;
}

SparwRun
SparwPipeline::runTemporal(const std::vector<Pose> &trajectory) const
{
    SparwRun out;
    const int n = static_cast<int>(trajectory.size());
    const int window = std::max(1, _config.window);

    // The reference is always the most recent *output* frame of a window
    // boundary — warped content warps again, accumulating error. Each
    // frame therefore depends on its predecessors' outputs: the frame
    // loop is inherently serial (the serialization Fig. 11a charges
    // this strategy with); only the per-frame internals parallelize.
    Camera refCam;
    Image refImage;
    DepthMap refDepth;

    for (int i = 0; i < n; ++i) {
        Camera tgtCam = cameraAt(trajectory[i]);

        if (i == 0) {
            // Bootstrap: full render of the first frame.
            RenderResult r = _model.render(tgtCam);
            out.references.push_back(
                SparwReference{trajectory[0], r.work, true});
            refCam = tgtCam;
            refImage = r.image;
            refDepth = r.depth;

            SparwFrame frame;
            frame.referenceIndex = 0;
            frame.warpStats.totalPixels =
                static_cast<std::uint64_t>(tgtCam.width) * tgtCam.height;
            frame.warpStats.warped = frame.warpStats.totalPixels;
            frame.image = std::move(r.image);
            frame.depth = std::move(r.depth);
            out.frames.push_back(std::move(frame));
            continue;
        }

        SparwFrame frame =
            warpAndFill(refImage, refDepth, refCam, tgtCam,
                        static_cast<int>(out.references.size()) - 1);
        if (i % window == 0) {
            // This output becomes the next reference (serialized reuse).
            refCam = tgtCam;
            refImage = frame.image;
            refDepth = frame.depth;
        }
        out.frames.push_back(std::move(frame));
    }
    return out;
}

SparwRun
SparwPipeline::runDownsampled(const std::vector<Pose> &trajectory,
                              int factor) const
{
    SparwRun out;
    Camera low = downsampledCamera(_intrinsics, factor);

    // Every frame is an independent downsampled render + upsample: a
    // one-frame SPARW window whose reference *is* the displayed frame
    // (upsampling stands in for the frame stage), scheduled by the
    // same window graph as run().
    const int n = static_cast<int>(trajectory.size());
    out.references.resize(n);
    out.frames.resize(n);
    std::vector<RenderResult> renders(n);

    runWindowGraph(
        n,
        [&](int i) {
            Camera cam = low;
            cam.pose = trajectory[i];
            renders[i] = _model.render(cam);
            out.references[i] =
                SparwReference{trajectory[i], renders[i].work, true};
        },
        [&](int i) {
            out.frames[i] = downsampledFrame(renders[i].image, i);
            renders[i] = RenderResult{};
        });
    return out;
}

SparwRealtimeRun
SparwPipeline::runRealtime(const std::vector<Pose> &trajectory,
                           const SparwRealtimeConfig &rt) const
{
    SparwRealtimeRun out;
    const int n = static_cast<int>(trajectory.size());
    const int window = std::max(1, _config.window);
    if (n == 0)
        return out;

    // Reference poses exactly as run() resolves them — an unlimited
    // budget must reproduce run()'s frames bit for bit.
    std::vector<SparwReference> refMeta = resolveReferences(trajectory);
    const int numWindows = static_cast<int>(refMeta.size());

    const Camera low =
        downsampledCamera(_intrinsics, std::max(1, rt.fallbackFactor));

    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    auto elapsedS = [t0] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const double budget = rt.frameBudgetS;
    auto deadlineOf = [budget](int frame) { return (frame + 1) * budget; };

    out.run.frames.resize(n);
    SparwDeadlineStats &dl = out.deadline;

    // One-window render-ahead: while window wi's frames are warped and
    // sparse-rendered, window wi+1's reference renders concurrently at
    // its *predicted* (extrapolated) pose. Two alternating groups +
    // render slots double-buffer the lookahead.
    TaskGroup groups[2];
    RenderResult renders[2];
    std::vector<char> refLive(numWindows, 0);

    auto startRef = [&](int wi) {
        refLive[wi] = 1;
        groups[wi & 1].run([this, &renders, &refMeta, wi] {
            renders[wi & 1] = _model.render(cameraAt(refMeta[wi].pose));
        });
    };

    if (elapsedS() < deadlineOf(0))
        startRef(0);

    for (int wi = 0; wi < numWindows; ++wi) {
        const int f0 = wi * window;
        const int f1 = std::min(f0 + window, n);

        // Decide on the next window's reference *before* processing
        // this window's frames (that ordering is the overlap). Skip it
        // when the next window's first-frame deadline has already
        // passed — a reference that cannot be ready in time is pure
        // wasted work; those frames take the fallback path instead.
        if (wi + 1 < numWindows &&
            elapsedS() < deadlineOf((wi + 1) * window))
            startRef(wi + 1);

        if (refLive[wi]) {
            groups[wi & 1].wait();
            RenderResult &ref = renders[wi & 1];
            const int refIndex =
                static_cast<int>(out.run.references.size());
            refMeta[wi].work = ref.work;
            out.run.references.push_back(refMeta[wi]);
            if (!refMeta[wi].onTrajectory)
                ++dl.predictedReferences;
            const Camera refCam = cameraAt(refMeta[wi].pose);
            for (int i = f0; i < f1; ++i) {
                out.run.frames[i] =
                    warpAndFill(ref.image, ref.depth, refCam,
                                cameraAt(trajectory[i]), refIndex);
                if (elapsedS() > deadlineOf(i))
                    ++dl.deadlineMisses;
            }
            ref = RenderResult{};
        } else {
            for (int i = f0; i < f1; ++i) {
                Camera cam = low;
                cam.pose = trajectory[i];
                RenderResult r = _model.render(cam);
                out.run.frames[i] = downsampledFrame(
                    r.image, static_cast<int>(out.run.references.size()));
                out.run.references.push_back(
                    SparwReference{trajectory[i], r.work, true});
                ++dl.fallbackFrames;
                if (elapsedS() > deadlineOf(i))
                    ++dl.deadlineMisses;
            }
        }
    }
    dl.frames = n;
    dl.wallS = elapsedS();
    return out;
}

} // namespace cicero
