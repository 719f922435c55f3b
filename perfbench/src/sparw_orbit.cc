/**
 * @file
 * sparw_orbit: SparwPipeline::run with the default SparwConfig over a
 * smooth 30 FPS orbit of lego, Instant-NGP at the Full preset. The
 * paper's algorithmic path — reference render, warp, sparse fill on the
 * dependency-graph schedule — and nothing of serve or DSE.
 *
 * Request: one round of four 18-frame clips, one starting in each
 * quadrant of the orbit, since the cost of a view can depend on where
 * it looks from. Output check: every frame of every clip is
 * bit-identical to a 1-thread run of the same trajectory; the traced
 * pass re-drives each frame as render at the window's reference pose,
 * warpFrame, renderPixels, and must reproduce the frame exactly.
 */

#include <algorithm>
#include <thread>
#include <vector>

#include "accel/gpu_model.hh"
#include "cicero/sparw.hh"
#include "common/rng.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"
#include "workloads.hh"

namespace perfbench {

using namespace cicero;

KernelCost
probeNerfKernels(const NerfModel &model, const Camera &cam, Result &r)
{
    const std::vector<Vec3> pos = model.collectSamplePositions(cam);
    const int dim = model.encoding().featureDim();
    const int n = static_cast<int>(pos.size());
    constexpr int kBlock = 64; // the renderer's widest decode block
    std::vector<float> feats(static_cast<std::size_t>(n) * dim);
    std::vector<DecodedSample> decoded(kBlock);
    const Vec3 viewDir = cam.generateRay(cam.width / 2, cam.height / 2).dir;

    auto gatherAll = [&] {
        for (int b0 = 0; b0 < n; b0 += kBlock) {
            const int m = std::min(kBlock, n - b0);
            model.encoding().gatherFeatureBatch(
                &pos[b0], m, &feats[static_cast<std::size_t>(b0) * dim]);
        }
    };
    auto decodeAll = [&] {
        for (int b0 = 0; b0 < n; b0 += kBlock) {
            const int m = std::min(kBlock, n - b0);
            model.decoder().decodeBatchSoA(
                &feats[static_cast<std::size_t>(b0) * dim],
                static_cast<std::size_t>(m), m, viewDir, decoded.data());
        }
    };
    // Median over repetitions; at least three and at least 0.2 s each.
    auto timeIt = [&](const auto &fn) {
        std::vector<double> reps;
        const Clock::time_point start = Clock::now();
        while (reps.size() < 3 || secondsSince(start) < 0.2) {
            const Clock::time_point t0 = Clock::now();
            fn();
            reps.push_back(secondsSince(t0));
        }
        return median(reps);
    };

    KernelCost cost;
    if (n == 0)
        return cost;
    {
        ScopedSpan s("nerf.gather_probe");
        cost.gatherNsPerSample = timeIt(gatherAll) * 1e9 / n;
    }
    {
        ScopedSpan s("nerf.decode_probe");
        cost.decodeNsPerSample = timeIt(decodeAll) * 1e9 / n;
    }
    r.set("nerf.gather_ns_per_sample", cost.gatherNsPerSample);
    r.set("nerf.decode_ns_per_sample", cost.decodeNsPerSample);
    return cost;
}

namespace {

/** Clips per round, evenly spaced around the orbit. */
constexpr int kClipsPerRound = 4;

struct RoundLoop
{
    std::vector<double> roundS; //!< wall time of kClipsPerRound run() calls
    std::vector<double> cpuS;   //!< process CPU time of the same calls
    std::uint64_t frames = 0;
    std::uint64_t mismatches = 0;
};

} // namespace

void
runSparwOrbit(const Options &o, Result &r)
{
    const int res = o.toy ? 48 : 256;
    const int numFrames = o.toy ? 12 : 18; // three windows of 6

    std::unique_ptr<NerfModel> model;
    std::vector<double> setupS;
    for (int k = 0; k < kSetupRepeats; ++k) {
        model.reset();
        ScopedSpan span("setup", -1, k);
        const Clock::time_point t0 = Clock::now();
        Scene scene = makeScene("lego");
        ModelBuildOptions opts;
        opts.preset = o.toy ? ModelPreset::Fast : ModelPreset::Full;
        model = buildModel(ModelKind::InstantNgp, scene, opts);
        setupS.push_back(secondsSince(t0));
    }
    const Scene &scene = model->scene();

    // Inputs: smooth orbits evenly spaced around the scene from a
    // seeded offset. A round renders all of them.
    Rng rng(o.seed);
    const float spacingDeg = 360.0f / kClipsPerRound;
    const float offsetDeg = rng.uniform(0.0f, spacingDeg);
    std::vector<std::vector<Pose>> trajs;
    for (int c = 0; c < kClipsPerRound; ++c) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = offsetDeg + spacingDeg * c;
        trajs.push_back(orbitTrajectory(orbit, numFrames));
    }
    const Camera intrinsics =
        Camera::fromFov(res, res, scene.fovYDeg, trajs[0][0]);
    const SparwConfig config;
    const SparwPipeline pipe(*model, intrinsics, config);

    // The output oracle: each trajectory run on a 1-thread pool. The
    // clips run side by side on their own threads; with one pool
    // thread every parallel loop and task graph of a run executes
    // inline on its caller, exactly as a lone 1-thread run would.
    std::vector<SparwRun> serial(trajs.size());
    setParallelThreadCount(1);
    {
        std::vector<std::thread> runners;
        for (std::size_t c = 0; c < trajs.size(); ++c)
            runners.emplace_back(
                [&, c] { serial[c] = pipe.run(trajs[c]); });
        for (std::thread &t : runners)
            t.join();
    }
    setParallelThreadCount(o.threads);

    bool corruptPending = o.corrupt == "sparw_frame";
    auto roundLoop = [&](double seconds, int minRounds) {
        RoundLoop loop;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        do {
            const std::int64_t round =
                static_cast<std::int64_t>(loop.roundS.size());
            double roundS = 0.0, cpuS = 0.0;
            for (int c = 0; c < kClipsPerRound; ++c) {
                SparwRun run;
                const Clock::time_point t0 = Clock::now();
                const double cpu0 = processCpuS();
                {
                    ScopedSpan span("sparw.run", -1,
                                    round * kClipsPerRound + c);
                    run = pipe.run(trajs[c]);
                }
                cpuS += processCpuS() - cpu0;
                roundS += secondsSince(t0);
                if (corruptPending && !run.frames.empty()) {
                    flipOnePixel(run.frames[run.frames.size() / 2].image);
                    corruptPending = false;
                }
                loop.frames += static_cast<std::uint64_t>(numFrames);
                for (int i = 0; i < numFrames; ++i)
                    if (static_cast<int>(run.frames.size()) <= i ||
                        !sameImage(run.frames[i].image,
                                   serial[c].frames[i].image))
                        ++loop.mismatches;
            }
            loop.roundS.push_back(roundS);
            loop.cpuS.push_back(cpuS);
        } while (Clock::now() < deadline ||
                 static_cast<int>(loop.roundS.size()) < minRounds);
        return loop;
    };
    auto checkLoop = [&](const RoundLoop &loop) {
        r.attempted += loop.frames;
        r.check(loop.mismatches == 0,
                format("sparw_orbit: %llu of %llu frames differ from the "
                       "1-thread run",
                       static_cast<unsigned long long>(loop.mismatches),
                       static_cast<unsigned long long>(loop.frames)));
    };
    const double framesPerRound =
        static_cast<double>(numFrames) * kClipsPerRound;

    r.note(format("sparw_orbit: lego, Instant-NGP %s, %dx%d, rounds of %d "
                  "clips x %d frames from azimuth %.1f + k x %.0f deg, "
                  "window %d",
                  o.toy ? "Fast" : "Full", res, res, kClipsPerRound,
                  numFrames, offsetDeg, spacingDeg, config.window));

    if (!o.trace) {
        const RoundLoop loop = roundLoop(o.seconds, 3);
        checkLoop(loop);
        const double roundP50 = median(loop.roundS);
        const Tail tail = tailOf(loop.roundS);
        r.set("setup_s", median(setupS));
        r.set("peak_rss_mb", peakRssMb());
        r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
        r.set("rate_per_s", framesPerRound / roundP50);
        r.set("cpu_ms_per_op", median(loop.cpuS) * 1e3 / framesPerRound);
        r.note(format("sparw_orbit: fps %.2f 1/s (displayed frames per "
                      "second, median of %zu rounds); round p50 %.1f ms, "
                      "%s %.1f ms (n=%zu); failed_frac %.4f; setup_s "
                      "%.3f s",
                      framesPerRound / roundP50, loop.roundS.size(),
                      roundP50 * 1e3, tail.label.c_str(), tail.value * 1e3,
                      tail.samples,
                      static_cast<double>(r.failed) / r.attempted,
                      median(setupS)));
        std::string rounds = "sparw_orbit: round ms";
        for (double v : loop.roundS)
            rounds += format(" %.0f", v * 1e3);
        r.note(rounds);
        return;
    }

    // ---- traced pass ----
    const RoundLoop plain = roundLoop(o.seconds / 2, 2);
    tracer().setEnabled(true);
    SchedWindow window;
    window.start();
    const RoundLoop traced = roundLoop(o.seconds / 2, 2);
    window.stop(r);
    checkLoop(plain);
    checkLoop(traced);
    r.set("trace.overhead_frac",
          median(traced.roundS) / median(plain.roundS) - 1.0);
    double overlap = 0.0, rerender = 0.0;
    for (const SparwRun &run : serial) {
        overlap += run.meanOverlap() / kClipsPerRound;
        rerender += run.meanRerender() / kClipsPerRound;
    }
    r.set("cicero.overlap_frac", overlap);
    r.set("cicero.rerender_frac", rerender);

    // Re-drive every frame through the layers one call at a time, and
    // measure quality against ground truth outside every timed region.
    bool corruptRedrive = o.corrupt == "sparw_redrive";
    double refS = 0.0, warpS = 0.0, fillS = 0.0, psnrSum = 0.0;
    std::uint64_t fillPx = 0, redriveMismatch = 0, refs = 0;
    for (int c = 0; c < kClipsPerRound; ++c) {
        const SparwRun &oracle = serial[c];
        const int redrive = tracer().begin("sparw.redrive", -1, c);
        for (std::size_t k = 0; k < oracle.references.size(); ++k) {
            Camera refCam = intrinsics;
            refCam.pose = oracle.references[k].pose;
            RenderResult ref;
            Clock::time_point t0 = Clock::now();
            {
                ScopedSpan span("nerf.render", redrive,
                                static_cast<std::int64_t>(k));
                ref = model->render(refCam);
            }
            refS += secondsSince(t0);
            ++refs;
            const int f0 = static_cast<int>(k) * config.window;
            const int f1 = std::min(numFrames, f0 + config.window);
            for (int i = f0; i < f1; ++i) {
                Camera tgtCam = intrinsics;
                tgtCam.pose = trajs[c][i];
                WarpOutput w;
                t0 = Clock::now();
                {
                    ScopedSpan span("cicero.warp", redrive, i);
                    w = warpFrame(ref.image, ref.depth, refCam, tgtCam,
                                  &model->occupancy(), scene.background,
                                  config.warp);
                }
                warpS += secondsSince(t0);
                t0 = Clock::now();
                {
                    ScopedSpan span("nerf.fill", redrive, i);
                    model->renderPixels(tgtCam, w.needRender, w.image,
                                        w.depth);
                }
                fillS += secondsSince(t0);
                fillPx += w.needRender.size();
                if (corruptRedrive) {
                    flipOnePixel(w.image);
                    corruptRedrive = false;
                }
                if (!sameImage(w.image, oracle.frames[i].image))
                    ++redriveMismatch;
                ScopedSpan span("quality", redrive, i);
                const RenderResult gt = renderGroundTruth(scene, tgtCam);
                psnrSum += std::min(60.0, psnr(oracle.frames[i].image,
                                               gt.image));
            }
        }
        tracer().end(redrive);
    }
    const double frames = framesPerRound;
    r.attempted += static_cast<std::uint64_t>(frames);
    r.check(redriveMismatch == 0,
            format("sparw_orbit: %llu re-driven frames differ from run()",
                   static_cast<unsigned long long>(redriveMismatch)));
    r.set("nerf.ref_render_ms", refS * 1e3 / static_cast<double>(refs));
    r.set("cicero.warp_ms", warpS * 1e3 / frames);
    if (fillPx > 0)
        r.set("nerf.fill_us_per_px", fillS * 1e6 / fillPx);
    r.set("cicero.ref_share", refS / (refS + warpS + fillS));
    r.set("cicero.psnr_db", psnrSum / frames);

    // Fig. 3 on this CPU: where a reference frame's time goes, measured
    // (kernel cost x samples over a 1-thread render) beside StageWork
    // priced by the GPU model.
    Camera refCam = intrinsics;
    refCam.pose = serial.front().references.front().pose;
    const KernelCost kc = probeNerfKernels(*model, refCam, r);
    setParallelThreadCount(1);
    const Clock::time_point t0 = Clock::now();
    RenderResult one;
    {
        ScopedSpan span("nerf.render_1thread");
        one = model->render(refCam);
    }
    const double oneS = secondsSince(t0);
    setParallelThreadCount(o.threads);
    const double samples = static_cast<double>(one.work.samples);
    const double gatherShare = kc.gatherNsPerSample * 1e-9 * samples / oneS;
    const double decodeShare = kc.decodeNsPerSample * 1e-9 * samples / oneS;
    const double otherShare = std::max(0.0, 1.0 - gatherShare - decodeShare);
    r.set("nerf.samples_per_ray",
          samples / static_cast<double>(std::max<std::uint64_t>(
                        1, one.work.rays)));
    r.set("nerf.gather_share", gatherShare);
    r.set("nerf.decode_share", decodeShare);
    r.set("nerf.other_share", otherShare);
    const GpuStageTimes gpu =
        GpuModel().timeNerfFrame(one.work, GatherProfile{});
    const double total = gpu.totalMs();
    r.set("nerf.gather_share_modelled", gpu.gatherMs / total);
    r.set("nerf.decode_share_modelled", gpu.mlpMs / total);
    r.set("nerf.other_share_modelled",
          (gpu.indexMs + gpu.compositeMs) / total);
    r.note(format("sparw_orbit reference frame shares, measured on this "
                  "CPU: gather %.3f decode %.3f other %.3f; modelled "
                  "(StageWork priced by GpuModel): gather %.3f mlp %.3f "
                  "index+composite %.3f",
                  gatherShare, decodeShare, otherShare, gpu.gatherMs / total,
                  gpu.mlpMs / total,
                  (gpu.indexMs + gpu.compositeMs) / total));
    r.note(format("sparw_orbit: psnr_db %.3f dB (mean over %.0f frames vs "
                  "renderGroundTruth), overlap %.4f, rerender %.4f",
                  psnrSum / frames, frames, overlap, rerender));
}

} // namespace perfbench
