/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot kernels of the
 * functional stack: the sampler's march and SPARW's void test
 * (Indexing), the hash- and dense-grid bakes (model setup), feature
 * gathers per encoding, the decoder MLP, warping, compositing, the
 * memory-model sinks, and one whole frame render at 1 thread and at
 * pool width (the render engine's parallel speedup).
 *
 * The JSON context carries a "simd_backend" key (avx2|neon|scalar —
 * the backend the binary was compiled for; every kernel runs its
 * vector form on it) and the batched-kernel benchmarks report
 * samples/s ("items_per_second") plus a GFLOP/s counter, so BENCH
 * trajectories are comparable across machines and backends. The
 * kernel speedup on a host is a native build against a
 * -DCICERO_FORCE_SCALAR=ON build, or, for the gathers, in one process:
 * BM_*Gather (the per-sample scalar reference) against
 * BM_*GatherBatch.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "cicero/warp.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "dse/driver.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/sram_bank_model.hh"
#include "memory/tracefile.hh"
#include "memory/trace.hh"
#include "nerf/dense_grid.hh"
#include "nerf/hash_grid.hh"
#include "nerf/models.hh"
#include "nerf/tensorf.hh"
#include "nerf/volume_renderer.hh"
#include "scene/scene.hh"
#include "scene/trajectory.hh"

namespace {

using namespace cicero;

/** Register the active backend into the benchmark context once. */
[[maybe_unused]] const bool kContextRegistered = [] {
    benchmark::AddCustomContext(
        "simd_backend", simd::backendName(simd::activeBackend()));
    return true;
}();

/** Positions a batched-gather benchmark sweeps. */
const std::vector<Vec3> &
benchPositions()
{
    static const std::vector<Vec3> pos = [] {
        Rng rng(7);
        std::vector<Vec3> p(65536);
        for (Vec3 &v : p)
            v = rng.uniformVec3();
        return p;
    }();
    return pos;
}

/**
 * Run one batched-gather benchmark over the bench positions in calls of
 * state.range(0) samples (a ray walk gathers a few to a few hundred per
 * call; 65536 is one call over all of them): samples/s via
 * items_per_second, GFLOP/s from the encoding's own interpolation-op
 * accounting.
 */
void
runGatherBatch(benchmark::State &state, const Encoding &enc)
{
    const std::vector<Vec3> &pos = benchPositions();
    const int call = static_cast<int>(state.range(0));
    const int n = static_cast<int>(pos.size()) / call * call;
    std::vector<float> out(static_cast<std::size_t>(call) *
                           enc.featureDim());
    for (auto _ : state) {
        for (int s = 0; s < n; s += call)
            enc.gatherFeatureBatch(pos.data() + s, call, out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.counters["gflops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * n *
            static_cast<double>(enc.interpOpsPerSample()) * 1e-9,
        benchmark::Counter::kIsRate);
}

/** Samples per gatherFeatureBatch call: below, between and at lane
 *  widths, a widest packet round's worth, and one whole-span call. */
void
gatherCallSizes(benchmark::internal::Benchmark *b)
{
    for (int n : {1, 5, 13, 64, 65536})
        b->Arg(n);
}

Scene &
benchScene()
{
    static Scene s = makeScene("lego");
    return s;
}

void
BM_DenseGridGather(benchmark::State &state)
{
    static DenseGridEncoding grid = [] {
        DenseGridEncoding g(64);
        g.bake(benchScene().field);
        return g;
    }();
    Rng rng(1);
    float feat[kFeatureDim];
    for (auto _ : state) {
        grid.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_DenseGridGather);

void
BM_HashGridGather(benchmark::State &state)
{
    static HashGridEncoding grid = [] {
        HashGridEncoding g;
        g.bake(benchScene().field);
        return g;
    }();
    Rng rng(2);
    float feat[kFeatureDim];
    for (auto _ : state) {
        grid.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_HashGridGather);

void
BM_TensoRFGather(benchmark::State &state)
{
    static TensoRFEncoding enc = [] {
        TensoRFConfig cfg;
        cfg.res = 64;
        TensoRFEncoding e(cfg);
        e.bake(benchScene().field);
        return e;
    }();
    Rng rng(3);
    float feat[kFeatureDim];
    for (auto _ : state) {
        enc.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_TensoRFGather);

void
BM_DenseGridGatherBatch(benchmark::State &state)
{
    static DenseGridEncoding grid = [] {
        DenseGridEncoding g(64);
        g.bake(benchScene().field);
        return g;
    }();
    runGatherBatch(state, grid);
}
BENCHMARK(BM_DenseGridGatherBatch)
    ->Unit(benchmark::kMillisecond)
    ->Apply(gatherCallSizes);

void
BM_HashGridGatherBatch(benchmark::State &state)
{
    static HashGridEncoding grid = [] {
        HashGridEncoding g;
        g.bake(benchScene().field);
        return g;
    }();
    runGatherBatch(state, grid);
}
BENCHMARK(BM_HashGridGatherBatch)
    ->Unit(benchmark::kMillisecond)
    ->Apply(gatherCallSizes);

void
BM_TensoRFGatherBatch(benchmark::State &state)
{
    static TensoRFEncoding enc = [] {
        TensoRFConfig cfg;
        cfg.res = 64;
        TensoRFEncoding e(cfg);
        e.bake(benchScene().field);
        return e;
    }();
    runGatherBatch(state, enc);
}
BENCHMARK(BM_TensoRFGatherBatch)
    ->Unit(benchmark::kMillisecond)
    ->Apply(gatherCallSizes);

/**
 * The decoder-shaped MLP GEMM at a frame-like batch size — fp32 and
 * fp16 weight storage. 2 FLOPs per MAC.
 */
void
runMlpForwardBatch(benchmark::State &state, bool fp16)
{
    Mlp mlp({kFeatureDim + 3, 16, 16, 4}, 1);
    if (fp16)
        mlp.quantizeWeightsFp16();
    const int count = 16384;
    std::vector<float> in(static_cast<std::size_t>(mlp.inputDim()) *
                          count);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = 0.001f * static_cast<float>(i % 997) - 0.5f;
    std::vector<float> out(static_cast<std::size_t>(mlp.outputDim()) *
                           count);
    for (auto _ : state) {
        mlp.forwardBatch(in.data(), out.data(), count);
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(state.iterations() * count);
    state.counters["gflops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * count * 2.0 *
            static_cast<double>(mlp.macsPerInference()) * 1e-9,
        benchmark::Counter::kIsRate);
}

void
BM_MlpForwardBatch(benchmark::State &state)
{
    runMlpForwardBatch(state, /*fp16=*/false);
}
BENCHMARK(BM_MlpForwardBatch)->Unit(benchmark::kMillisecond);

void
BM_MlpForwardBatchFp16(benchmark::State &state)
{
    runMlpForwardBatch(state, /*fp16=*/true);
}
BENCHMARK(BM_MlpForwardBatchFp16)->Unit(benchmark::kMillisecond);

void
BM_DecoderDecode(benchmark::State &state)
{
    Decoder dec({0.4f, 0.8f, 0.45f});
    BakedPoint pt;
    pt.sigma = 25.0f;
    pt.diffuse = {0.6f, 0.4f, 0.3f};
    pt.specular = 0.4f;
    float feat[kFeatureDim];
    encodeBakedPoint(pt, feat);
    Vec3 view = Vec3{0.1f, -0.5f, -1.0f}.normalized();
    for (auto _ : state) {
        DecodedSample s = dec.decode(feat, view);
        benchmark::DoNotOptimize(s.rgb.x);
    }
}
BENCHMARK(BM_DecoderDecode);

void
BM_Compositor(benchmark::State &state)
{
    for (auto _ : state) {
        Compositor c;
        for (int i = 0; i < 64; ++i)
            if (!c.add(4.0f, {0.5f, 0.5f, 0.5f}, 1.0f + i * 0.01f,
                       0.01f))
                break;
        CompositeResult r = c.finish({1.0f, 1.0f, 1.0f});
        benchmark::DoNotOptimize(r.rgb.x);
    }
}
BENCHMARK(BM_Compositor);

void
BM_WarpFrame(benchmark::State &state)
{
    static auto setup = [] {
        Scene scene = benchScene();
        SamplerConfig cfg;
        cfg.stepsAcross = 96;
        cfg.occupancyRes = 32;
        auto model = std::make_unique<NerfModel>(
            scene, std::make_unique<DenseGridEncoding>(48), 4096, cfg);
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        auto traj = orbitTrajectory(orbit, 2);
        Camera ref = Camera::fromFov(96, 96, scene.fovYDeg, traj[0]);
        Camera tgt = ref;
        tgt.pose = traj[1];
        RenderResult r = model->render(ref);
        return std::make_tuple(std::move(model), ref, tgt,
                               std::move(r));
    }();
    auto &[model, ref, tgt, r] = setup;
    for (auto _ : state) {
        WarpOutput w =
            warpFrame(r.image, r.depth, ref, tgt, &model->occupancy(),
                      Vec3{1.0f, 1.0f, 1.0f});
        benchmark::DoNotOptimize(w.stats.warped);
    }
}
BENCHMARK(BM_WarpFrame)->Unit(benchmark::kMicrosecond);

/** Time per item, reported next to the wall time per iteration. */
benchmark::Counter
perItem(std::size_t items)
{
    return benchmark::Counter(
        static_cast<double>(items),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/**
 * Indexing: the ray sampler's march through the occupancy grid (with
 * its empty-space skipping) over every pixel of one 128x128 view of
 * lego, at the default sampler settings.
 */
void
BM_SamplerMarch(benchmark::State &state)
{
    static const auto setup = [] {
        Scene scene = benchScene();
        SamplerConfig cfg;
        auto occ = std::make_unique<OccupancyGrid>(
            scene.field, cfg.occupancyRes, cfg.occupancySigma);
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        Camera cam = Camera::fromFov(128, 128, scene.fovYDeg,
                                     orbitTrajectory(orbit, 1)[0]);
        std::vector<Ray> rays;
        for (int y = 0; y < cam.height; ++y)
            for (int x = 0; x < cam.width; ++x)
                rays.push_back(cam.generateRay(x, y));
        return std::make_tuple(std::move(occ), scene.field.bounds(), cfg,
                               std::move(rays));
    }();
    const auto &[occ, bounds, cfg, rays] = setup;
    RaySampler sampler(bounds, occ.get(), cfg);
    std::vector<RaySample> out;
    for (auto _ : state) {
        std::size_t kept = 0;
        for (const Ray &ray : rays)
            kept += sampler.sample(ray, out);
        benchmark::DoNotOptimize(kept);
    }
    state.SetItemsProcessed(state.iterations() * rays.size());
    state.counters["s_per_ray"] = perItem(rays.size());
}
BENCHMARK(BM_SamplerMarch)->Unit(benchmark::kMicrosecond);

/**
 * SPARW's void test: rayHitsOccupied over every hole pixel of one
 * 128x128 warp of lego (a reference render warped to the next orbit
 * pose, whose holes are mostly void background).
 */
void
BM_OccupancyVoidTest(benchmark::State &state)
{
    static const auto setup = [] {
        Scene scene = benchScene();
        SamplerConfig cfg;
        cfg.stepsAcross = 96;
        auto model = std::make_unique<NerfModel>(
            scene, std::make_unique<DenseGridEncoding>(48), 4096, cfg);
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        auto traj = orbitTrajectory(orbit, 2);
        Camera ref = Camera::fromFov(128, 128, scene.fovYDeg, traj[0]);
        Camera tgt = ref;
        tgt.pose = traj[1];
        RenderResult r = model->render(ref);
        WarpOutput w = warpFrame(r.image, r.depth, ref, tgt,
                                 &model->occupancy(), scene.background);
        // Holes keep infinite depth: void ones are set to it and
        // disoccluded ones await the sparse render.
        std::vector<Ray> holes;
        for (int y = 0; y < tgt.height; ++y)
            for (int x = 0; x < tgt.width; ++x)
                if (!std::isfinite(w.depth.at(x, y)))
                    holes.push_back(tgt.generateRay(x, y));
        return std::make_pair(std::move(model), std::move(holes));
    }();
    const auto &[model, holes] = setup;
    const OccupancyGrid &occ = model->occupancy();
    for (auto _ : state) {
        std::size_t hits = 0;
        for (const Ray &ray : holes)
            hits += occ.rayHitsOccupied(ray);
        benchmark::DoNotOptimize(hits);
    }
    state.SetItemsProcessed(state.iterations() * holes.size());
    state.counters["s_per_hole"] = perItem(holes.size());
}
BENCHMARK(BM_OccupancyVoidTest)->Unit(benchmark::kMicrosecond);

/**
 * One 128x128 frame of lego through the full render path (Fast-preset
 * DirectVoxGO, one model built once): rays/s at 1 thread (arg 1) and
 * at pool width (arg 0: CICERO_THREADS, else hardware_concurrency).
 * The ratio of the two is the render engine's parallel speedup on the
 * host. The pool width in force before the run is restored after it.
 */
void
BM_RenderFrame(benchmark::State &state)
{
    static const auto setup = [] {
        auto model = buildModel(ModelKind::DirectVoxGO, benchScene());
        OrbitParams orbit;
        orbit.radius = benchScene().cameraDistance;
        Camera cam = Camera::fromFov(128, 128, benchScene().fovYDeg,
                                     orbitTrajectory(orbit, 1)[0]);
        return std::make_pair(std::move(model), cam);
    }();
    const auto &[model, cam] = setup;
    const int before = parallelThreadCount();
    setParallelThreadCount(static_cast<int>(state.range(0)));
    state.counters["threads"] = parallelThreadCount();
    for (auto _ : state) {
        RenderResult r = model->render(cam);
        benchmark::DoNotOptimize(r.work.samples);
    }
    setParallelThreadCount(before);
    state.SetItemsProcessed(state.iterations() * cam.width * cam.height);
}
BENCHMARK(BM_RenderFrame)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Setup: the Fast-preset bakes of lego on the pool — Instant-NGP's
 * residual hash pyramid (every level's vertices) and DirectVoxGO's
 * 96^3-voxel dense grid.
 */
void
BM_HashGridBake(benchmark::State &state)
{
    const AnalyticField &field = benchScene().field;
    HashGridEncoding grid; // the Fast preset's configuration
    std::size_t verts = 0;
    for (int l = 0; l < grid.config().numLevels; ++l) {
        std::size_t v = grid.levelRes(l) + 1;
        verts += v * v * v;
    }
    for (auto _ : state) {
        grid.bake(field);
        benchmark::DoNotOptimize(grid.levelData(0, 0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * verts);
    state.counters["s_per_vertex"] = perItem(verts);
}
BENCHMARK(BM_HashGridBake)->Unit(benchmark::kMillisecond);

void
BM_DenseGridBake(benchmark::State &state)
{
    const AnalyticField &field = benchScene().field;
    const int n = 96; // the Fast preset's DirectVoxGO grid
    DenseGridEncoding grid(n);
    const std::size_t verts =
        static_cast<std::size_t>(n + 1) * (n + 1) * (n + 1);
    for (auto _ : state) {
        grid.bake(field);
        benchmark::DoNotOptimize(grid.vertexData(0, 0, 0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * verts);
    state.counters["s_per_vertex"] = perItem(verts);
}
BENCHMARK(BM_DenseGridBake)->Unit(benchmark::kMillisecond);

/**
 * The 2 MB LRU gather cache over 4,096 random 18 B accesses, from
 * cold, at state.range(0) ways (0 = fully associative, 8 = the DSE's
 * set-associative point); s_per_access is the time per access.
 */
void
BM_LruCacheSink(benchmark::State &state)
{
    Rng rng(4);
    std::vector<MemAccess> trace;
    for (int i = 0; i < 4096; ++i)
        trace.push_back(MemAccess{rng.uniformInt(1u << 24), 18, 0});
    CacheConfig cfg;
    cfg.ways = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        LruCache cache(cfg);
        for (const auto &a : trace)
            cache.onAccess(a);
        benchmark::DoNotOptimize(cache.stats().misses);
    }
    state.counters["s_per_access"] = perItem(trace.size());
}
BENCHMARK(BM_LruCacheSink)->Arg(0)->Arg(8)->Unit(benchmark::kMicrosecond);

/**
 * One DSE point: dse::evaluatePoint on an in-memory capture of one 8x8
 * lego Instant-NGP view (Fast preset), at state.range(0) cache ways
 * (0 = fully associative, 8 = the DSE's set-associative point). The
 * point replays the trace once into all four accelerator stacks, so
 * s_per_access is the decode plus every stack's sinks per access.
 */
void
BM_DsePoint(benchmark::State &state)
{
    static const auto setup = [] {
        auto model = buildModel(ModelKind::InstantNgp, benchScene());
        OrbitParams orbit;
        orbit.radius = benchScene().cameraDistance;
        const Camera cam = Camera::fromFov(8, 8, benchScene().fovYDeg,
                                           orbitTrajectory(orbit, 1)[0]);
        std::vector<std::uint8_t> ctrace;
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        writer.setWorkloadSummary(
            toSummary(measureWorkload(*model, cam, &writer)));
        writer.close();
        return std::make_unique<TraceFileReader>(ctrace);
    }();
    const TraceFileReader &reader = *setup;
    const TraceWorkloadDescriptor desc = workloadFromTrace(reader);
    dse::DseConfig config;
    config.cacheWays = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        const dse::DsePointResult point =
            dse::evaluatePoint(fileSource(reader), desc, "lego", config);
        benchmark::DoNotOptimize(point.ciceroTimeMs);
    }
    state.counters["s_per_access"] = perItem(reader.counts().accesses);
}
BENCHMARK(BM_DsePoint)->Arg(0)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_DramSink(benchmark::State &state)
{
    Rng rng(5);
    std::vector<MemAccess> trace;
    for (int i = 0; i < 4096; ++i)
        trace.push_back(MemAccess{rng.uniformInt(1u << 24), 18, 0});
    for (auto _ : state) {
        DramModel dram;
        for (const auto &a : trace)
            dram.onAccess(a);
        benchmark::DoNotOptimize(dram.stats().randomAccesses);
    }
}
BENCHMARK(BM_DramSink)->Unit(benchmark::kMicrosecond);

/**
 * GPU warp interleaving (Fig. 4): 1024 rays of 16-47 accesses each
 * through a 32-way WarpInterleaver into a sink that only counts, so
 * the time is the interleaver's buffering and round-robin replay.
 */
void
BM_WarpInterleaver(benchmark::State &state)
{
    struct CountingSink : TraceSink
    {
        std::uint64_t accesses = 0;
        void onAccess(const MemAccess &) override { ++accesses; }
    };

    Rng rng(7);
    std::vector<MemAccess> trace;
    for (std::uint32_t ray = 0; ray < 1024; ++ray) {
        const auto n = static_cast<std::uint32_t>(16 + rng.uniformInt(32));
        for (std::uint32_t i = 0; i < n; ++i)
            trace.push_back(MemAccess{rng.uniformInt(1u << 24), 18, ray});
    }
    for (auto _ : state) {
        CountingSink counter;
        WarpInterleaver interleaver(32);
        interleaver.addSink(&counter);
        for (const auto &a : trace)
            interleaver.onAccess(a);
        interleaver.onFlush();
        benchmark::DoNotOptimize(counter.accesses);
    }
    state.counters["s_per_access"] = perItem(trace.size());
}
BENCHMARK(BM_WarpInterleaver)->Unit(benchmark::kMicrosecond);

void
BM_BankConflictSim(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state) {
        BankConflictSim sim;
        for (std::uint32_t ray = 0; ray < 64; ++ray) {
            for (int i = 0; i < 32; ++i)
                sim.onAccess(
                    MemAccess{rng.uniformInt(1u << 16) * 32, 32, ray});
            sim.onRayEnd(ray);
        }
        sim.onFlush();
        benchmark::DoNotOptimize(sim.stats().stalls);
    }
}
BENCHMARK(BM_BankConflictSim)->Unit(benchmark::kMicrosecond);

} // namespace
