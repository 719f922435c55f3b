/**
 * @file
 * Render-engine throughput bench: rays/s of the full NeRF render path
 * at 128x128, serial (1 thread) vs the parallel tile engine, emitted
 * as one JSON object so BENCH_*.json trajectories can track the
 * speedup across PRs. Also proves the parallel output is bit-identical
 * to the serial one — the determinism contract of the engine.
 *
 * Since PR 2 the object additionally reports:
 *  - batched-gather vs scalar-gather samples/s for each encoding
 *    (gatherFeatureBatch must not lose to per-sample gatherFeature);
 *  - traced-run rays/s, 1 thread vs N threads (per-chunk event logs
 *    delivered in chunk order), with the trace streams checked
 *    byte-identical.
 *
 * Since PR 4 the object carries a "simd_backend" field (the backend
 * the process dispatches to by default) and a "simd" section:
 * compiled-backend-vs-forced-scalar samples/s and GFLOP/s for the MLP
 * forwardBatch kernel and each encoding's batched gather (single
 * process, runtime backend override — the same binary measures both
 * sides), with the fp32 outputs checked bit-identical across backends.
 * A gather's "scalar" leg times the reference loop every encoding
 * falls back to under the forced-scalar backend: the base
 * Encoding::gatherFeatureBatch, one gatherFeature() per sample.
 *
 * A "pipeline" section reports SPARW frames/s of the window
 * dependency graph on the work-stealing scheduler (tagged with the
 * scheduler mode) against a one-thread run, on a *straggler*
 * trajectory (one window's reference ~4x costlier than the rest), with
 * the frames checked bit-identical to the one-thread run and measured
 * scheduler counters of one graph run (steals, idle wakeups, idle
 * fraction, overflow migrations, dependency-stall time). Its
 * "realtime" subsection reports deadline-miss and fallback rates of
 * runRealtime() at a zero, a frame-paced, and an unlimited budget,
 * with the two deterministic extremes bit-compared against
 * runDownsampled() and run().
 *
 * --quick cuts repetitions and kernel batch sizes for the CI smoke
 * step; every bit-identity check still runs.
 *
 * The speedups scale with physical cores; on a single-core runner the
 * parallel paths time alike and those sections degenerate to a smoke
 * test (the SIMD section is single-core by construction and measures
 * real kernel speedup everywhere).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cicero/sparw.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "nerf/dense_grid.hh"
#include "nerf/hash_grid.hh"
#include "nerf/tensorf.hh"

using namespace cicero;
using namespace cicero::bench;

namespace {

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

bool
identical(const Image &a, const Image &b)
{
    if (a.pixelCount() != b.pixelCount())
        return false;
    for (std::size_t i = 0; i < a.pixelCount(); ++i)
        if (a.at(i).x != b.at(i).x || a.at(i).y != b.at(i).y ||
            a.at(i).z != b.at(i).z)
            return false;
    return true;
}

bool
identicalTraces(const std::vector<MemAccess> &a,
                const std::vector<MemAccess> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].addr != b[i].addr || a[i].bytes != b[i].bytes ||
            a[i].rayId != b[i].rayId)
            return false;
    return true;
}

/** Per-encoding scalar-vs-batched gather comparison. */
struct GatherResult
{
    std::string name;
    double scalarS = 0.0;
    double batchS = 0.0;
    bool identical = false;
};

GatherResult
benchGather(const Encoding &enc, const std::vector<Vec3> &pos, int reps)
{
    const int n = static_cast<int>(pos.size());
    const int dim = enc.featureDim();
    std::vector<float> scalarOut(static_cast<std::size_t>(n) * dim);
    std::vector<float> batchOut(scalarOut.size());

    GatherResult r;
    r.name = enc.name();
    r.scalarS = secondsOf(
        [&] {
            for (int i = 0; i < n; ++i)
                enc.gatherFeature(pos[i],
                                  scalarOut.data() +
                                      static_cast<std::size_t>(i) * dim);
        },
        reps);
    r.batchS = secondsOf(
        [&] { enc.gatherFeatureBatch(pos.data(), n, batchOut.data()); },
        reps);
    // The batch buffer is channel-major; line the scalar results up
    // before the bit-compare.
    std::vector<float> scalarSoA(scalarOut.size());
    simd::transposeToChannelMajor(scalarOut.data(), n, dim,
                                  scalarSoA.data());
    r.identical = scalarSoA == batchOut;
    return r;
}

/** One kernel's SIMD-vs-forced-scalar measurement. */
struct SimdKernelResult
{
    std::string name;
    double simdS = 0.0;
    double scalarS = 0.0;
    double items = 0.0;
    double flopsPerItem = 0.0;
    bool identical = false;
};

/**
 * Time @p run under the compiled backend (forced explicitly, so a
 * CICERO_SIMD=scalar environment cannot turn the "simd" leg into a
 * second scalar measurement) and under the forced-scalar override,
 * bit-comparing the @p check buffer between the two.
 */
SimdKernelResult
benchSimdKernel(const std::string &name, double items,
                double flopsPerItem,
                const std::function<void()> &run,
                const std::vector<float> &check, int reps)
{
    SimdKernelResult r;
    r.name = name;
    r.items = items;
    r.flopsPerItem = flopsPerItem;
    simd::setSimdBackendOverride(false); // compiled backend
    run(); // warm up + populate check
    std::vector<float> simdOut = check;
    r.simdS = secondsOf(run, reps);
    simd::setSimdBackendOverride(true); // scalar reference
    run();
    std::vector<float> scalarOut = check;
    r.scalarS = secondsOf(run, reps);
    simd::setSimdBackendOverride(false, /*reset=*/true);
    r.identical = simdOut == scalarOut;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--quick")
            quick = true;

    banner("throughput",
           "tile-parallel render engine + batched gather, 128x128");

    const int reps = quick ? 1 : 3;

    Scene scene = makeScene("lego");
    auto model = buildModel(ModelKind::DirectVoxGO, scene);

    const int res = 128;
    std::vector<Pose> traj = sceneOrbit(scene, 2);
    Camera cam = Camera::fromFov(res, res, scene.fovYDeg, traj[0]);
    const double rays = static_cast<double>(res) * res;

    // Warm up once (bakes TLS buffers, faults pages).
    RenderResult warm = model->render(cam);
    (void)warm;

    // ---- functional render: serial vs parallel ----------------------
    setParallelThreadCount(1);
    RenderResult serialOut = model->render(cam);
    double serialS =
        secondsOf([&] { serialOut = model->render(cam); }, reps);

    setParallelThreadCount(0); // CICERO_THREADS / hardware_concurrency
    const int threads = parallelThreadCount();
    RenderResult parallelOut = model->render(cam);
    double parallelS =
        secondsOf([&] { parallelOut = model->render(cam); }, reps);

    const bool bitIdentical =
        identical(serialOut.image, parallelOut.image) &&
        serialOut.work.samples == parallelOut.work.samples &&
        serialOut.work.mlpMacs == parallelOut.work.mlpMacs;
    const double speedup = parallelS > 0.0 ? serialS / parallelS : 0.0;

    // ---- traced run: serial vs chunk-logged parallel capture -------
    const int traceRes = 64;
    Camera traceCam =
        Camera::fromFov(traceRes, traceRes, scene.fovYDeg, traj[0]);
    const double traceRays = static_cast<double>(traceRes) * traceRes;

    setParallelThreadCount(1);
    TraceRecorder traceSerial;
    model->traceWorkload(traceCam, &traceSerial);
    double tracedSerialS = secondsOf(
        [&] {
            TraceRecorder rec;
            model->traceWorkload(traceCam, &rec);
        },
        reps);

    setParallelThreadCount(0);
    TraceRecorder traceParallel;
    model->traceWorkload(traceCam, &traceParallel);
    double tracedParallelS = secondsOf(
        [&] {
            TraceRecorder rec;
            model->traceWorkload(traceCam, &rec);
        },
        reps);

    const bool traceIdentical =
        identicalTraces(traceSerial.trace(), traceParallel.trace());
    const double tracedSpeedup =
        tracedParallelS > 0.0 ? tracedSerialS / tracedParallelS : 0.0;

    // ---- batched vs scalar gather, per encoding ---------------------
    // Single-thread, pure gather kernel: positions of a typical frame's
    // sample set, gathered per-sample vs through one batch call.
    setParallelThreadCount(1);
    std::vector<Vec3> positions;
    {
        Rng rng(17);
        positions.resize(quick ? 50000 : 200000);
        for (Vec3 &p : positions)
            p = rng.uniformVec3();
    }

    std::vector<GatherResult> gathers;
    std::vector<SimdKernelResult> simdKernels;
    {
        DenseGridEncoding dense(96, GridLayout::MVoxelBlocked);
        dense.bake(scene.field);
        gathers.push_back(benchGather(dense, positions, reps));

        HashGridEncoding hash{HashGridConfig{}};
        hash.bake(scene.field);
        gathers.push_back(benchGather(hash, positions, reps));

        TensoRFConfig tcfg;
        tcfg.res = 64;
        tcfg.ranks = 2;
        tcfg.alsIters = 1;
        TensoRFEncoding tensorf(tcfg);
        tensorf.bake(scene.field);
        gathers.push_back(benchGather(tensorf, positions, reps));

        // ---- SIMD kernel layer: compiled backend vs forced scalar ---
        // Same binary, runtime override: measures the explicit vector
        // kernels against their scalar references and proves the fp32
        // outputs bit-identical across backends.
        const int n = static_cast<int>(positions.size());
        const Encoding *encs[] = {&dense, &hash, &tensorf};
        std::vector<float> featOut(static_cast<std::size_t>(n) *
                                   kFeatureDim);
        for (const Encoding *enc : encs) {
            simdKernels.push_back(benchSimdKernel(
                "gather_" + enc->name(), n,
                static_cast<double>(enc->interpOpsPerSample()),
                [&] {
                    enc->gatherFeatureBatch(positions.data(), n,
                                            featOut.data());
                },
                featOut, reps));
        }

        // The decoder-shaped MLP (12 -> 16 -> 16 -> 4) at a frame-like
        // batch size; 2 FLOPs per MAC.
        Mlp mlp({kFeatureDim + 3, 16, 16, 4}, 1);
        const int mlpCount = quick ? 4096 : 16384;
        std::vector<float> mlpIn(static_cast<std::size_t>(mlp.inputDim()) *
                                 mlpCount);
        for (std::size_t i = 0; i < mlpIn.size(); ++i)
            mlpIn[i] = 0.001f * static_cast<float>(i % 997) - 0.5f;
        std::vector<float> mlpOut(
            static_cast<std::size_t>(mlp.outputDim()) * mlpCount);
        simdKernels.push_back(benchSimdKernel(
            "mlp_forward_batch", mlpCount,
            2.0 * static_cast<double>(mlp.macsPerInference()),
            [&] {
                mlp.forwardBatch(mlpIn.data(), mlpOut.data(), mlpCount);
            },
            mlpOut, quick ? 1 : 5));
    }
    bool gatherIdentical = true;
    for (const GatherResult &g : gathers)
        gatherIdentical = gatherIdentical && g.identical;
    bool simdIdentical = true;
    for (const SimdKernelResult &k : simdKernels)
        simdIdentical = simdIdentical && k.identical;

    // ---- SPARW window graph on a straggler trajectory ---------------
    // The trajectory dips toward the scene for the two poses one
    // mid-run window extrapolates its reference from, making that
    // window's reference render several times costlier than the rest:
    // the dependency graph lets every other window stream past it.
    // The pool-width run is checked bit-identical to the one-thread
    // run (the serial ref/frames walk) — overlap must never change
    // pixels.
    setParallelThreadCount(0);
    const int sparwThreads = parallelThreadCount();
    const int sparwRes = 64;
    SparwConfig sparwCfg;
    sparwCfg.window = 2;
    // At least two windows per pool thread, so references have frames
    // to overlap with for most of the run.
    const int sparwFrames = std::max(8, 2 * sparwThreads * sparwCfg.window);
    std::vector<Pose> sparwTraj = sceneOrbit(scene, sparwFrames);
    const int numWindows =
        (sparwFrames + sparwCfg.window - 1) / sparwCfg.window;
    // Pull the two poses that window `stragglerWindow` extrapolates its
    // reference from to ~0.22x the orbit radius: the predicted
    // reference lands close to the scene, where rays collect several
    // times more samples.
    const int stragglerWindow = numWindows / 2;
    for (int k = stragglerWindow * sparwCfg.window - 2;
         k < stragglerWindow * sparwCfg.window; ++k)
        if (k >= 0)
            sparwTraj[k].pos = sparwTraj[k].pos * 0.22f;
    Camera sparwCam =
        Camera::fromFov(sparwRes, sparwRes, scene.fovYDeg, sparwTraj[0]);
    SparwPipeline sparw(*model, sparwCam, sparwCfg);
    const int sparwReps = quick ? 1 : 2;

    setParallelThreadCount(1);
    SparwRun sparwSerial = sparw.run(sparwTraj);
    double sparwSerialS =
        secondsOf([&] { sparw.run(sparwTraj); }, sparwReps);

    // The graph leg is timed (best of reps), then bracketed once
    // between a counter snapshot and a delta so the JSON reports
    // *measured* scheduler behaviour for exactly one run.
    // Snapshot-delta (not reset-snapshot): concurrent measurers — a
    // bench_serve in the same process, another bench thread — can't
    // yank this bracket's baseline, and this bracket can't zero
    // theirs.
    setParallelThreadCount(0);
    SparwRun sparwGraph = sparw.run(sparwTraj);
    double graphS = secondsOf([&] { sparw.run(sparwTraj); }, sparwReps);
    const SchedulerCounters graphBase = parallelSchedulerCounters();
    auto graphT0 = std::chrono::steady_clock::now();
    sparw.run(sparwTraj);
    const double graphWallS = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - graphT0)
                                  .count();
    const SchedulerCounters graphC =
        parallelSchedulerCountersSince(graphBase);
    const double graphIdleFrac =
        graphWallS > 0.0 && sparwThreads > 0
            ? std::min(1.0, static_cast<double>(graphC.idleNanos) /
                                (sparwThreads * graphWallS * 1e9))
            : 0.0;

    bool sparwIdentical =
        sparwSerial.frames.size() == sparwGraph.frames.size();
    for (std::size_t i = 0; sparwIdentical && i < sparwSerial.frames.size();
         ++i)
        sparwIdentical = identical(sparwSerial.frames[i].image,
                                   sparwGraph.frames[i].image);

    // How much costlier the straggler reference really was (median
    // reference = 1.0).
    double stragglerCost = 0.0;
    {
        std::vector<std::uint64_t> refSamples;
        for (const SparwReference &r : sparwSerial.references)
            refSamples.push_back(r.work.samples);
        if (!refSamples.empty()) {
            std::vector<std::uint64_t> sorted = refSamples;
            std::sort(sorted.begin(), sorted.end());
            double median =
                static_cast<double>(sorted[sorted.size() / 2]);
            if (median > 0.0)
                stragglerCost = static_cast<double>(
                                    refSamples[stragglerWindow]) /
                                median;
        }
    }

    auto fps = [&](double wallS) {
        return wallS > 0.0 ? sparwFrames / wallS : 0.0;
    };

    // ---- real-time mode: deadline-driven SPARW ----------------------
    // Three budgets through runRealtime(): unlimited (must reproduce
    // run() bit for bit — every reference lands in time), zero (must
    // reproduce runDownsampled() frame images bit for bit — every
    // window falls back), and a paced budget near the measured
    // per-frame cost (the interesting regime: miss/fallback rates are
    // machine-dependent and reported, not gated).
    SparwRun dsBaseline = sparw.runDownsampled(
        sparwTraj, SparwRealtimeConfig{}.fallbackFactor);

    SparwRealtimeConfig rtUnlimitedCfg;
    rtUnlimitedCfg.frameBudgetS = 1e9f;
    SparwRealtimeRun rtUnlimited =
        sparw.runRealtime(sparwTraj, rtUnlimitedCfg);
    bool rtUnlimitedIdentical =
        rtUnlimited.run.frames.size() == sparwSerial.frames.size();
    for (std::size_t i = 0;
         rtUnlimitedIdentical && i < sparwSerial.frames.size(); ++i)
        rtUnlimitedIdentical = identical(rtUnlimited.run.frames[i].image,
                                         sparwSerial.frames[i].image);

    SparwRealtimeConfig rtZeroCfg;
    rtZeroCfg.frameBudgetS = 0.0f;
    SparwRealtimeRun rtZero = sparw.runRealtime(sparwTraj, rtZeroCfg);
    bool rtZeroMatchesDs =
        rtZero.run.frames.size() == dsBaseline.frames.size() &&
        rtZero.deadline.fallbackFrames == sparwFrames;
    for (std::size_t i = 0;
         rtZeroMatchesDs && i < dsBaseline.frames.size(); ++i)
        rtZeroMatchesDs = identical(rtZero.run.frames[i].image,
                                    dsBaseline.frames[i].image);

    SparwRealtimeConfig rtPacedCfg;
    rtPacedCfg.frameBudgetS = static_cast<float>(
        graphS > 0.0 ? 0.9 * graphS / sparwFrames : 1.0 / 30.0);
    SparwRealtimeRun rtPaced = sparw.runRealtime(sparwTraj, rtPacedCfg);

    const bool realtimeOk = rtUnlimitedIdentical && rtZeroMatchesDs;

    // ---- JSON -------------------------------------------------------
    std::printf("{\"bench\": \"render_throughput\", "
                "\"simd_backend\": \"%s\", "
                "\"resolution\": %d, "
                "\"threads\": %d, "
                "\"serial_s\": %.6f, "
                "\"parallel_s\": %.6f, "
                "\"rays_per_s_serial\": %.1f, "
                "\"rays_per_s_parallel\": %.1f, "
                "\"speedup\": %.3f, "
                "\"bit_identical\": %s, "
                "\"traced\": {\"resolution\": %d, "
                "\"serial_s\": %.6f, \"parallel_s\": %.6f, "
                "\"rays_per_s_serial\": %.1f, "
                "\"rays_per_s_parallel\": %.1f, "
                "\"speedup\": %.3f, \"stream_identical\": %s}, "
                "\"gather\": {",
                simd::backendName(simd::activeBackend()), res, threads,
                serialS, parallelS, rays / serialS,
                rays / parallelS, speedup,
                bitIdentical ? "true" : "false", traceRes, tracedSerialS,
                tracedParallelS, traceRays / tracedSerialS,
                traceRays / tracedParallelS, tracedSpeedup,
                traceIdentical ? "true" : "false");
    for (std::size_t i = 0; i < gathers.size(); ++i) {
        const GatherResult &g = gathers[i];
        const double n = static_cast<double>(positions.size());
        std::printf("%s\"%s\": {\"scalar_samples_per_s\": %.1f, "
                    "\"batched_samples_per_s\": %.1f, "
                    "\"batch_speedup\": %.3f, "
                    "\"bit_identical\": %s}",
                    i ? ", " : "", g.name.c_str(), n / g.scalarS,
                    n / g.batchS,
                    g.batchS > 0.0 ? g.scalarS / g.batchS : 0.0,
                    g.identical ? "true" : "false");
    }
    std::printf("}, \"pipeline\": {\"scheduler\": \"%s\", "
                "\"resolution\": %d, \"frames\": %d, \"window\": %d, "
                "\"threads\": %d, "
                "\"straggler_window\": %d, "
                "\"straggler_ref_cost\": %.2f, "
                "\"serial_s\": %.6f, \"graph_s\": %.6f, "
                "\"fps_serial\": %.2f, \"fps_graph\": %.2f, "
                "\"speedup\": %.3f, "
                "\"bit_identical\": %s",
                parallelSchedulerName(), sparwRes, sparwFrames,
                sparwCfg.window, sparwThreads, stragglerWindow,
                stragglerCost, sparwSerialS, graphS, fps(sparwSerialS),
                fps(graphS), graphS > 0.0 ? sparwSerialS / graphS : 0.0,
                sparwIdentical ? "true" : "false");
    // Counter-based breakdown of one measured graph run: what the
    // scheduler actually did.
    std::printf(", \"counters\": {\"wall_s\": %.6f, "
                "\"idle_frac\": %.3f, "
                "\"steals\": %llu, \"idle_wakeups\": %llu, "
                "\"idle_ms\": %.3f, "
                "\"overflow_migrations\": %llu, "
                "\"tasks\": %llu, \"dep_tasks\": %llu, "
                "\"dep_stall_ms\": %.3f}",
                graphWallS, graphIdleFrac,
                static_cast<unsigned long long>(graphC.steals),
                static_cast<unsigned long long>(graphC.idleWakeups),
                graphC.idleNanos / 1e6,
                static_cast<unsigned long long>(graphC.overflowMigrations),
                static_cast<unsigned long long>(graphC.tasksExecuted),
                static_cast<unsigned long long>(graphC.depTasksSubmitted),
                graphC.depStallNanos / 1e6);
    std::printf(
        ", \"realtime\": {"
        "\"unlimited_budget_matches_run\": %s, "
        "\"zero_budget_matches_downsampled\": %s, "
        "\"frame_budget_ms\": %.3f, "
        "\"frames\": %d, \"deadline_misses\": %d, "
        "\"miss_rate\": %.3f, \"fallback_frames\": %d, "
        "\"fallback_rate\": %.3f, \"predicted_refs\": %d, "
        "\"wall_s\": %.6f}}",
        rtUnlimitedIdentical ? "true" : "false",
        rtZeroMatchesDs ? "true" : "false",
        rtPacedCfg.frameBudgetS * 1e3, rtPaced.deadline.frames,
        rtPaced.deadline.deadlineMisses, rtPaced.deadline.missRate(),
        rtPaced.deadline.fallbackFrames, rtPaced.deadline.fallbackRate(),
        rtPaced.deadline.predictedReferences, rtPaced.deadline.wallS);
    std::printf(", \"simd\": {");
    for (std::size_t i = 0; i < simdKernels.size(); ++i) {
        const SimdKernelResult &k = simdKernels[i];
        const double flops = k.items * k.flopsPerItem;
        std::printf("%s\"%s\": {\"samples_per_s_simd\": %.1f, "
                    "\"samples_per_s_scalar\": %.1f, "
                    "\"gflops_simd\": %.3f, "
                    "\"gflops_scalar\": %.3f, "
                    "\"speedup\": %.3f, "
                    "\"bit_identical\": %s}",
                    i ? ", " : "", k.name.c_str(), k.items / k.simdS,
                    k.items / k.scalarS, flops / k.simdS / 1e9,
                    flops / k.scalarS / 1e9,
                    k.simdS > 0.0 ? k.scalarS / k.simdS : 0.0,
                    k.identical ? "true" : "false");
    }
    std::printf("}}\n");

    setParallelThreadCount(0);
    // The exit code gates only on correctness (bit/stream identity);
    // perf ratios live in the JSON for the BENCH trajectory to track —
    // a noisy runner must not turn a timing wobble into a red build.
    const bool ok = bitIdentical && traceIdentical && gatherIdentical &&
                    simdIdentical && sparwIdentical && realtimeOk;
    return ok ? 0 : 1;
}
