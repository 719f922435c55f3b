/**
 * @file
 * Determinism tests for the tile-parallel render engine: a render at
 * CICERO_THREADS=1 and at N threads must produce bit-identical images,
 * depth maps and StageWork counters, the batched MLP/decoder paths
 * must be bit-identical to their scalar counterparts, and every
 * encoding's pool-parallel bake must store the tables of its serial
 * loop at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "cicero/sparw.hh"
#include "cicero/warp.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "nerf/mlp.hh"
#include "nerf/tensorf.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

void
expectImagesIdentical(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    int mismatches = 0;
    for (std::size_t i = 0; i < a.pixelCount(); ++i) {
        if (a.at(i).x != b.at(i).x || a.at(i).y != b.at(i).y ||
            a.at(i).z != b.at(i).z)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

void
expectDepthIdentical(const DepthMap &a, const DepthMap &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    int mismatches = 0;
    for (int y = 0; y < a.height(); ++y)
        for (int x = 0; x < a.width(); ++x) {
            float da = a.at(x, y);
            float db = b.at(x, y);
            // Infinities compare equal; exact bit equality otherwise.
            if (!(da == db))
                ++mismatches;
        }
    EXPECT_EQ(mismatches, 0);
}

void
expectWorkIdentical(const StageWork &a, const StageWork &b)
{
    EXPECT_EQ(a.rays, b.rays);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.indexOps, b.indexOps);
    EXPECT_EQ(a.vertexFetches, b.vertexFetches);
    EXPECT_EQ(a.gatherBytes, b.gatherBytes);
    EXPECT_EQ(a.interpOps, b.interpOps);
    EXPECT_EQ(a.mlpMacs, b.mlpMacs);
    EXPECT_EQ(a.compositeOps, b.compositeOps);
}

TEST(ParallelDeterminismTest, RenderIsBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(48);

    setParallelThreadCount(1);
    RenderResult serial = model->render(cam);

    setParallelThreadCount(4);
    RenderResult parallel = model->render(cam);

    expectImagesIdentical(serial.image, parallel.image);
    expectDepthIdentical(serial.depth, parallel.depth);
    expectWorkIdentical(serial.work, parallel.work);
}

TEST(ParallelDeterminismTest, SparsePixelsMatchAcrossThreadCounts)
{
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(32);
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < 32 * 32; id += 3)
        ids.push_back(id);

    setParallelThreadCount(1);
    Image img1(32, 32);
    DepthMap dep1(32, 32);
    StageWork w1 = model->renderPixels(cam, ids, img1, dep1);

    setParallelThreadCount(4);
    Image img4(32, 32);
    DepthMap dep4(32, 32);
    StageWork w4 = model->renderPixels(cam, ids, img4, dep4);

    expectImagesIdentical(img1, img4);
    expectDepthIdentical(dep1, dep4);
    expectWorkIdentical(w1, w4);
}

TEST(ParallelDeterminismTest, WorkloadTraceMatchesAcrossThreadCounts)
{
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(24);

    setParallelThreadCount(1);
    StageWork serial = model->traceWorkload(cam);
    std::vector<Vec3> pos1 = model->collectSamplePositions(cam);

    setParallelThreadCount(4);
    StageWork parallel = model->traceWorkload(cam);
    std::vector<Vec3> pos4 = model->collectSamplePositions(cam);

    expectWorkIdentical(serial, parallel);

    // Sample positions must come back in the exact serial order (they
    // feed the Ray Index Table construction).
    ASSERT_EQ(pos1.size(), pos4.size());
    int mismatches = 0;
    for (std::size_t i = 0; i < pos1.size(); ++i)
        if (pos1[i].x != pos4[i].x || pos1[i].y != pos4[i].y ||
            pos1[i].z != pos4[i].z)
            ++mismatches;
    EXPECT_EQ(mismatches, 0);
}

/** Records accesses and, as {~0, 0, rayId}, onRayEnd calls in order. */
struct EventRecorder : TraceSink
{
    std::vector<MemAccess> events;

    void onAccess(const MemAccess &a) override { events.push_back(a); }
    void onRayEnd(std::uint32_t rayId) override
    {
        events.push_back(MemAccess{~0ull, 0, rayId});
    }
};

/** Events where @p a and @p b differ (the longer size if sizes do). */
std::size_t
eventMismatches(const std::vector<MemAccess> &a,
                const std::vector<MemAccess> &b)
{
    if (a.size() != b.size())
        return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].addr != b[i].addr || a[i].bytes != b[i].bytes ||
            a[i].rayId != b[i].rayId)
            ++bad;
    return bad;
}

TEST(ParallelDeterminismTest, TracedWorkloadStreamIsByteIdentical)
{
    // A traced run parallelizes through per-chunk event logs
    // delivered in chunk order: the TraceSink stream at N threads must
    // equal the 1-thread stream event by event (accesses and onRayEnd
    // order), and the downstream DRAM/cache models (which are
    // order-sensitive) must land on identical counters.
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(24);

    auto run = [&](EventRecorder &rec, DramModel &dram, LruCache &cache,
                   StageWork &work) {
        TraceTee tee;
        tee.addSink(&rec);
        tee.addSink(&dram);
        tee.addSink(&cache);
        work = model->traceWorkload(cam, &tee);
    };

    EventRecorder rec1, rec4;
    DramModel dram1, dram4;
    LruCache cache1, cache4;
    StageWork w1, w4;

    setParallelThreadCount(1);
    run(rec1, dram1, cache1, w1);
    setParallelThreadCount(4);
    run(rec4, dram4, cache4, w4);

    expectWorkIdentical(w1, w4);
    EXPECT_EQ(eventMismatches(rec1.events, rec4.events), 0u);

    EXPECT_EQ(dram1.stats().accesses, dram4.stats().accesses);
    EXPECT_EQ(dram1.stats().randomAccesses, dram4.stats().randomAccesses);
    EXPECT_EQ(dram1.stats().streamingAccesses,
              dram4.stats().streamingAccesses);
    EXPECT_EQ(dram1.stats().bytes, dram4.stats().bytes);
    EXPECT_EQ(cache1.stats().accesses, cache4.stats().accesses);
    EXPECT_EQ(cache1.stats().hits, cache4.stats().hits);
    EXPECT_EQ(cache1.stats().misses, cache4.stats().misses);

    // The sparse probe's walk (traceWorkloadPixels) over a pixel list
    // with gaps whose length is not a multiple of kPacketRays, so the
    // last packet is partial and pool chunks end mid-packet.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 3; id < 24 * 24; id += 7)
        ids.push_back(id);
    ASSERT_NE(ids.size() % kPacketRays, 0u);

    std::vector<MemAccess> serialEvents;
    StageWork serialWork;
    for (int threads : {1, 4, 7}) {
        setParallelThreadCount(threads);
        EventRecorder rec;
        const StageWork work = model->traceWorkloadPixels(cam, ids, &rec);
        ASSERT_EQ(work.rays, ids.size());
        if (threads == 1) {
            serialEvents = rec.events;
            serialWork = work;
            continue;
        }
        expectWorkIdentical(serialWork, work);
        EXPECT_EQ(eventMismatches(serialEvents, rec.events), 0u)
            << threads << " threads";
    }
    // Every listed ray ends once, in list order.
    std::vector<std::uint32_t> ends;
    for (const MemAccess &e : serialEvents)
        if (e.addr == ~0ull)
            ends.push_back(e.rayId);
    EXPECT_EQ(ends, ids);
}

TEST(ParallelDeterminismTest, WarpIsBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    std::vector<Pose> traj = test::tinyOrbit(4);
    Camera refCam = test::tinyCamera(48, &traj[0]);
    Camera tgtCam = test::tinyCamera(48, &traj[2]);

    setParallelThreadCount(1);
    RenderResult ref1 = model->render(refCam);
    WarpOutput w1 = warpFrame(ref1.image, ref1.depth, refCam, tgtCam,
                              &model->occupancy(),
                              model->scene().background, WarpParams{});

    setParallelThreadCount(4);
    RenderResult ref4 = model->render(refCam);
    WarpOutput w4 = warpFrame(ref4.image, ref4.depth, refCam, tgtCam,
                              &model->occupancy(),
                              model->scene().background, WarpParams{});

    expectImagesIdentical(w1.image, w4.image);
    expectDepthIdentical(w1.depth, w4.depth);
    EXPECT_EQ(w1.needRender, w4.needRender);
    EXPECT_EQ(w1.stats.pointsTransformed, w4.stats.pointsTransformed);
    EXPECT_EQ(w1.stats.angleRejected, w4.stats.angleRejected);
    EXPECT_EQ(w1.stats.warped, w4.stats.warped);
    EXPECT_EQ(w1.stats.disoccluded, w4.stats.disoccluded);
    EXPECT_EQ(w1.stats.voidHoles, w4.stats.voidHoles);
}

void
expectSparwRunsIdentical(const SparwRun &a, const SparwRun &b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    ASSERT_EQ(a.references.size(), b.references.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        expectImagesIdentical(a.frames[i].image, b.frames[i].image);
        expectDepthIdentical(a.frames[i].depth, b.frames[i].depth);
        expectWorkIdentical(a.frames[i].sparseWork,
                            b.frames[i].sparseWork);
        EXPECT_EQ(a.frames[i].referenceIndex, b.frames[i].referenceIndex);
        EXPECT_EQ(a.frames[i].warpStats.warped, b.frames[i].warpStats.warped);
    }
    for (std::size_t i = 0; i < a.references.size(); ++i)
        expectWorkIdentical(a.references[i].work, b.references[i].work);
}

TEST(ParallelDeterminismTest, SparwWindowGraphMatchesOneThreadWalk)
{
    // run() and runDownsampled() schedule their windows on a
    // dependency graph that streams references ahead of the frames.
    // On a one-thread pool the graph runs ref(w) and then frames(w) in
    // window order — the serial walk — so that run is the reference:
    // at every width, including ones that don't divide the window
    // count, both must reproduce it byte for byte. Four
    // trajectory / window / resolution shapes; the last one has a
    // straggler window whose reference costs several times the rest,
    // so the graph streams other windows past it.
    ThreadCountGuard guard;
    auto model = test::tinyModel();
    struct Shape
    {
        int frames;
        int window;
        int res;
        bool straggler;
    };
    for (const Shape &shape :
         {Shape{5, 2, 32, false}, Shape{9, 2, 32, false},
          Shape{12, 4, 40, false}, Shape{12, 2, 32, true}}) {
        SCOPED_TRACE(testing::Message()
                     << shape.frames << " frames, window "
                     << shape.window << ", " << shape.res << " px"
                     << (shape.straggler ? ", straggler" : ""));
        std::vector<Pose> traj = test::tinyOrbit(shape.frames);
        // The straggler orbit is wide, so most references see the
        // scene small. The two poses that a mid-run window
        // extrapolates its reference from are pulled to 0.22x the
        // orbit radius: that reference lands close to the scene, where
        // its rays collect several times more samples (about 8x the
        // median here).
        const int stragglerWindow =
            (shape.frames + shape.window - 1) / shape.window / 2;
        if (shape.straggler) {
            OrbitParams wide;
            wide.radius = 6.0f;
            traj = orbitTrajectory(wide, shape.frames);
            for (int k = stragglerWindow * shape.window - 2;
                 k < stragglerWindow * shape.window; ++k)
                traj[k].pos = traj[k].pos * 0.22f;
        }
        SparwConfig cfg;
        cfg.window = shape.window;
        SparwPipeline pipeline(*model, test::tinyCamera(shape.res), cfg);

        setParallelThreadCount(1);
        SparwRun baseline = pipeline.run(traj);
        SparwRun dsBaseline = pipeline.runDownsampled(traj, 2);
        if (shape.straggler) {
            std::vector<std::uint64_t> samples;
            for (const SparwReference &r : baseline.references)
                samples.push_back(r.work.samples);
            ASSERT_GT(samples.size(),
                      static_cast<std::size_t>(stragglerWindow));
            const std::uint64_t straggler = samples[stragglerWindow];
            std::sort(samples.begin(), samples.end());
            EXPECT_GT(straggler, 2 * samples[samples.size() / 2]);
        }

        for (int threads : {1, 4, 7}) {
            SCOPED_TRACE(testing::Message() << threads << " threads");
            setParallelThreadCount(threads);
            expectSparwRunsIdentical(baseline, pipeline.run(traj));
            expectSparwRunsIdentical(dsBaseline,
                                     pipeline.runDownsampled(traj, 2));
        }
    }
}

TEST(ParallelDeterminismTest, ConcurrentDistinctRendersMatchSolo)
{
    // The serving layer's substrate: several client threads each
    // driving a *different* render through the shared pool at once
    // (concurrent top-level submitters). Every render must come out
    // bit-identical to the same render run alone — work stealing may
    // move chunks between threads, never change or mix them.
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    struct Client
    {
        std::unique_ptr<NerfModel> model;
        Camera cam;
        RenderResult solo;
        RenderResult concurrent;
    };
    std::vector<Client> clients;
    clients.push_back({test::tinyModel(GridLayout::Linear, 32),
                       test::tinyCamera(40), {}, {}});
    clients.push_back({test::tinyModel(GridLayout::MVoxelBlocked, 32),
                       test::tinyCamera(32), {}, {}});
    clients.push_back({test::tinyModel(GridLayout::Linear, 24),
                       test::tinyCamera(36), {}, {}});

    for (Client &c : clients)
        c.solo = c.model->render(c.cam);

    std::vector<std::thread> threads;
    for (Client &c : clients)
        threads.emplace_back(
            [&c] { c.concurrent = c.model->render(c.cam); });
    for (std::thread &t : threads)
        t.join();

    for (Client &c : clients) {
        expectImagesIdentical(c.solo.image, c.concurrent.image);
        expectDepthIdentical(c.solo.depth, c.concurrent.depth);
        expectWorkIdentical(c.solo.work, c.concurrent.work);
    }
}

TEST(ParallelDeterminismTest, BatchedMlpMatchesScalarExactly)
{
    Mlp mlp({12, 16, 16, 4}, 99);
    const int count = 37;

    // Channel-major batch input.
    std::vector<float> in(12 * count), outBatch(4 * count);
    for (int c = 0; c < 12; ++c)
        for (int b = 0; b < count; ++b)
            in[c * count + b] =
                0.05f * static_cast<float>((c * 31 + b * 7) % 40) - 1.0f;

    mlp.forwardBatch(in.data(), outBatch.data(), count);

    for (int b = 0; b < count; ++b) {
        float one[12], res[4];
        for (int c = 0; c < 12; ++c)
            one[c] = in[c * count + b];
        mlp.forward(one, res);
        for (int o = 0; o < 4; ++o)
            EXPECT_EQ(res[o], outBatch[o * count + b])
                << "item " << b << " output " << o;
    }
}

/**
 * Decode @p count sample-major feature vectors through the channel-major
 * decodeBatchSoA (after simd::transposeToChannelMajor) and require every
 * result to equal the scalar decode() of the same vector, bit for bit.
 */
void
expectSoADecodeMatchesScalar(const Decoder &decoder,
                             const std::vector<float> &features, int count,
                             const Vec3 &viewDir)
{
    std::vector<float> soa(static_cast<std::size_t>(count) * kFeatureDim);
    simd::transposeToChannelMajor(features.data(), count, kFeatureDim,
                                  soa.data());
    std::vector<DecodedSample> batch(count);
    decoder.decodeBatchSoA(soa.data(), static_cast<std::size_t>(count),
                           count, viewDir, batch.data());
    for (int b = 0; b < count; ++b) {
        DecodedSample s = decoder.decode(
            features.data() + static_cast<std::size_t>(b) * kFeatureDim,
            viewDir);
        EXPECT_EQ(s.sigma, batch[b].sigma) << "item " << b;
        EXPECT_EQ(s.rgb.x, batch[b].rgb.x) << "item " << b;
        EXPECT_EQ(s.rgb.y, batch[b].rgb.y) << "item " << b;
        EXPECT_EQ(s.rgb.z, batch[b].rgb.z) << "item " << b;
    }
}

TEST(ParallelDeterminismTest, BatchedDecoderMatchesScalarExactly)
{
    Scene scene = test::tinyScene();
    Decoder decoder(scene.field.lightDir());
    Vec3 viewDir = Vec3{0.3f, -0.2f, -1.0f}.normalized();

    const int count = 21;
    std::vector<float> features(count * kFeatureDim);
    for (int b = 0; b < count; ++b) {
        BakedPoint pt;
        pt.sigma = (b % 4 == 0) ? 0.0f : 1.5f * b; // include empties
        pt.diffuse = {0.1f * (b % 10), 0.5f, 0.9f - 0.04f * b};
        pt.normal = Vec3{0.2f, 1.0f, 0.1f * b}.normalized();
        pt.specular = 0.02f * b;
        pt.shininess = 4.0f + b;
        encodeBakedPoint(pt, features.data() + b * kFeatureDim);
    }
    expectSoADecodeMatchesScalar(decoder, features, count, viewDir);

    // A count above kDecodeChunk crosses the internal chunking
    // boundary, and a stride wider than the count (the block stride of
    // a sub-block decode) must read the same channel values.
    const int big = kDecodeChunk + 37;
    std::vector<float> featBig(static_cast<std::size_t>(big) *
                               kFeatureDim);
    for (int b = 0; b < big; ++b)
        for (int c = 0; c < kFeatureDim; ++c)
            featBig[static_cast<std::size_t>(b) * kFeatureDim + c] =
                features[static_cast<std::size_t>(b % count) *
                             kFeatureDim +
                         c];
    expectSoADecodeMatchesScalar(decoder, featBig, big, viewDir);

    std::vector<float> soa(featBig.size());
    simd::transposeToChannelMajor(featBig.data(), big, kFeatureDim,
                                  soa.data());
    const int sub = big - 5;
    std::vector<DecodedSample> strided(sub);
    decoder.decodeBatchSoA(soa.data(), static_cast<std::size_t>(big), sub,
                           viewDir, strided.data());
    for (int b = 0; b < sub; ++b) {
        DecodedSample s = decoder.decode(
            featBig.data() + static_cast<std::size_t>(b) * kFeatureDim,
            viewDir);
        EXPECT_EQ(s.sigma, strided[b].sigma) << "item " << b;
        EXPECT_EQ(s.rgb.x, strided[b].rgb.x) << "item " << b;
        EXPECT_EQ(s.rgb.y, strided[b].rgb.y) << "item " << b;
        EXPECT_EQ(s.rgb.z, strided[b].rgb.z) << "item " << b;
    }
}

TEST(ParallelDeterminismTest, Fp16DecoderStaysBatchScalarIdentical)
{
    // Quantizing the residual MLP must not break the batch == scalar
    // contract: both paths read the same fp16 weight storage.
    Scene scene = test::tinyScene();
    Decoder decoder(scene.field.lightDir());
    decoder.quantizeWeightsFp16();
    ASSERT_TRUE(decoder.fp16Weights());
    Vec3 viewDir = Vec3{-0.1f, 0.4f, -1.0f}.normalized();

    const int count = 19;
    std::vector<float> features(count * kFeatureDim);
    for (int b = 0; b < count; ++b) {
        BakedPoint pt;
        pt.sigma = 0.5f + b;
        pt.diffuse = {0.08f * (b % 12), 0.3f, 0.75f};
        pt.normal = Vec3{-0.3f, 0.9f, 0.05f * b}.normalized();
        pt.specular = 0.4f;
        pt.shininess = 2.0f + b;
        encodeBakedPoint(pt, features.data() + b * kFeatureDim);
    }
    expectSoADecodeMatchesScalar(decoder, features, count, viewDir);
}

// --- Bake determinism: each encoding's bake runs on the pool, and the
// --- oracles below are the serial loops it replaced.

/** Floats of @p a and @p b (@p n each) whose bit patterns differ. */
int
bitMismatches(const float *a, const float *b, std::size_t n)
{
    int mismatches = 0;
    for (std::size_t i = 0; i < n; ++i)
        mismatches += std::memcmp(a + i, b + i, sizeof(float)) != 0;
    return mismatches;
}

/**
 * The serial residual-pyramid bake: levels in order, vertices in
 * (iz, iy, ix) order, each slot summing its colliding vertices in that
 * order before averaging. @p shape supplies the level geometry and slot
 * mapping only; the returned tables hold one vector per level.
 */
std::vector<std::vector<float>>
serialHashGridBake(const HashGridEncoding &shape, const AnalyticField &field)
{
    const int levels = shape.config().numLevels;
    std::vector<std::vector<float>> tables(levels);
    auto reconstruct = [&](const Vec3 &pn, int upto, float *out) {
        for (int ch = 0; ch < kFeatureDim; ++ch)
            out[ch] = 0.0f;
        for (int l = 0; l < upto; ++l) {
            const int res = shape.levelRes(l);
            float fx = clamp(pn.x, 0.0f, 1.0f) * res;
            float fy = clamp(pn.y, 0.0f, 1.0f) * res;
            float fz = clamp(pn.z, 0.0f, 1.0f) * res;
            int x0 = std::min(static_cast<int>(fx), res - 1);
            int y0 = std::min(static_cast<int>(fy), res - 1);
            int z0 = std::min(static_cast<int>(fz), res - 1);
            float tx = fx - x0;
            float ty = fy - y0;
            float tz = fz - z0;
            for (int c = 0; c < 8; ++c) {
                int dx = c & 1;
                int dy = (c >> 1) & 1;
                int dz = (c >> 2) & 1;
                float w = (dx ? tx : 1.0f - tx) * (dy ? ty : 1.0f - ty) *
                          (dz ? tz : 1.0f - tz);
                const float *v =
                    tables[l].data() +
                    static_cast<std::size_t>(shape.levelSlot(
                        l, x0 + dx, y0 + dy, z0 + dz)) *
                        kFeatureDim;
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    out[ch] += w * v[ch];
            }
        }
    };

    const Aabb &b = field.bounds();
    Vec3 e = b.extent();
    float target[kFeatureDim];
    float recon[kFeatureDim];
    for (int l = 0; l < levels; ++l) {
        const int res = shape.levelRes(l);
        const std::uint32_t slots = shape.levelSlots(l);
        std::vector<float> sum(static_cast<std::size_t>(slots) * kFeatureDim,
                               0.0f);
        std::vector<std::uint32_t> count(slots, 0);
        for (int iz = 0; iz <= res; ++iz) {
            for (int iy = 0; iy <= res; ++iy) {
                for (int ix = 0; ix <= res; ++ix) {
                    Vec3 pn{static_cast<float>(ix) / res,
                            static_cast<float>(iy) / res,
                            static_cast<float>(iz) / res};
                    Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
                           b.lo.z + e.z * pn.z};
                    encodeBakedPoint(field.bakePoint(p), target);
                    reconstruct(pn, l, recon);
                    std::uint32_t slot = shape.levelSlot(l, ix, iy, iz);
                    for (int ch = 0; ch < kFeatureDim; ++ch)
                        sum[static_cast<std::size_t>(slot) * kFeatureDim +
                            ch] += target[ch] - recon[ch];
                    ++count[slot];
                }
            }
        }
        tables[l].assign(sum.size(), 0.0f);
        for (std::uint32_t s = 0; s < slots; ++s) {
            if (count[s] == 0)
                continue;
            float inv = 1.0f / count[s];
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                std::size_t i = static_cast<std::size_t>(s) * kFeatureDim + ch;
                tables[l][i] = sum[i] * inv;
            }
        }
    }
    return tables;
}

/** The serial dense-grid bake of an @p n-voxel grid, x-fastest. */
std::vector<float>
serialDenseGridBake(int n, const AnalyticField &field)
{
    const int v = n + 1;
    std::vector<float> data(static_cast<std::size_t>(v) * v * v *
                            kFeatureDim);
    const Aabb &b = field.bounds();
    Vec3 e = b.extent();
    for (int iz = 0; iz < v; ++iz)
        for (int iy = 0; iy < v; ++iy)
            for (int ix = 0; ix < v; ++ix) {
                Vec3 p{b.lo.x + e.x * ix / n, b.lo.y + e.y * iy / n,
                       b.lo.z + e.z * iz / n};
                encodeBakedPoint(
                    field.bakePoint(p),
                    data.data() +
                        ((static_cast<std::size_t>(iz) * v + iy) * v + ix) *
                            kFeatureDim);
            }
    return data;
}

/** A TensoRF fit laid out like TensoRFEncoding's planes and lines. */
struct TensoRFTables
{
    int n = 0;
    int ranks = 0;
    std::vector<float> planes[3];
    std::vector<float> lines[3];

    float &
    planeAt(int g, int u, int v, int r, int ch)
    {
        return planes[g][((static_cast<std::size_t>(v) * n + u) * ranks + r) *
                             kFeatureDim +
                         ch];
    }

    float &
    lineAt(int g, int w, int r, int ch)
    {
        return lines[g][(static_cast<std::size_t>(w) * ranks + r) *
                            kFeatureDim +
                        ch];
    }
};

/**
 * The serial TensoRF bake: the dense ground truth, then per channel,
 * grouping and rank a rank-1 plane x line fit by alternating
 * projections, deflating the channel's residual after each component.
 */
TensoRFTables
serialTensoRFBake(const TensoRFConfig &cfg, const AnalyticField &field)
{
    static constexpr int kU[3] = {0, 0, 1};
    static constexpr int kV[3] = {1, 2, 2};
    static constexpr int kW[3] = {2, 1, 0};
    const int n = cfg.res;
    const int R = cfg.ranks;
    const Aabb &b = field.bounds();
    Vec3 e = b.extent();

    std::vector<std::vector<float>> dense(
        kFeatureDim, std::vector<float>(static_cast<std::size_t>(n) * n * n));
    float feat[kFeatureDim];
    std::size_t i = 0;
    for (int z = 0; z < n; ++z)
        for (int y = 0; y < n; ++y)
            for (int x = 0; x < n; ++x, ++i) {
                Vec3 p{b.lo.x + e.x * x / (n - 1), b.lo.y + e.y * y / (n - 1),
                       b.lo.z + e.z * z / (n - 1)};
                encodeBakedPoint(field.bakePoint(p), feat);
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    dense[ch][i] = feat[ch];
            }

    TensoRFTables t;
    t.n = n;
    t.ranks = R;
    for (int g = 0; g < 3; ++g) {
        t.planes[g].assign(static_cast<std::size_t>(n) * n * R * kFeatureDim,
                           0.0f);
        t.lines[g].assign(static_cast<std::size_t>(n) * R * kFeatureDim,
                          0.0f);
    }
    auto cell = [n](int u, int v, int w, int g) {
        int xyz[3];
        xyz[kU[g]] = u;
        xyz[kV[g]] = v;
        xyz[kW[g]] = w;
        return (static_cast<std::size_t>(xyz[2]) * n + xyz[1]) * n + xyz[0];
    };
    std::vector<float> plane(static_cast<std::size_t>(n) * n);
    std::vector<float> line(n);
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        std::vector<float> &residual = dense[ch];
        for (int g = 0; g < 3; ++g) {
            for (int r = 0; r < R; ++r) {
                std::fill(line.begin(), line.end(), 1.0f);
                for (int it = 0; it < cfg.alsIters; ++it) {
                    float lineSq = 0.0f;
                    for (int w = 0; w < n; ++w)
                        lineSq += line[w] * line[w];
                    if (lineSq < 1e-20f)
                        break;
                    for (int v = 0; v < n; ++v)
                        for (int u = 0; u < n; ++u) {
                            float acc = 0.0f;
                            for (int w = 0; w < n; ++w)
                                acc += residual[cell(u, v, w, g)] * line[w];
                            plane[static_cast<std::size_t>(v) * n + u] =
                                acc / lineSq;
                        }
                    float planeSq = 0.0f;
                    for (float pv : plane)
                        planeSq += pv * pv;
                    if (planeSq < 1e-20f)
                        break;
                    for (int w = 0; w < n; ++w) {
                        float acc = 0.0f;
                        for (int v = 0; v < n; ++v)
                            for (int u = 0; u < n; ++u)
                                acc += residual[cell(u, v, w, g)] *
                                       plane[static_cast<std::size_t>(v) * n +
                                             u];
                        line[w] = acc / planeSq;
                    }
                }
                for (int v = 0; v < n; ++v)
                    for (int u = 0; u < n; ++u)
                        t.planeAt(g, u, v, r, ch) =
                            plane[static_cast<std::size_t>(v) * n + u];
                for (int w = 0; w < n; ++w)
                    t.lineAt(g, w, r, ch) = line[w];
                for (int w = 0; w < n; ++w)
                    for (int v = 0; v < n; ++v)
                        for (int u = 0; u < n; ++u)
                            residual[cell(u, v, w, g)] -=
                                plane[static_cast<std::size_t>(v) * n + u] *
                                line[w];
            }
        }
    }
    return t;
}

/** The pool sizes every bake runs at: serial, odd, even, oversubscribed. */
constexpr int kBakeThreadCounts[] = {1, 3, 4, 7};

void
expectHashGridBakeMatchesSerial(const HashGridConfig &cfg)
{
    ThreadCountGuard guard;
    Scene scene = test::tinyScene();
    const auto expected =
        serialHashGridBake(HashGridEncoding(cfg), scene.field);
    for (int threads : kBakeThreadCounts) {
        setParallelThreadCount(threads);
        HashGridEncoding enc(cfg);
        enc.bake(scene.field);
        for (int l = 0; l < cfg.numLevels; ++l)
            EXPECT_EQ(bitMismatches(enc.levelData(l, 0),
                                    expected[l].data(), expected[l].size()),
                      0)
                << "level " << l << " at " << threads << " threads";
    }
}

TEST(BakeDeterminismTest, HashGridFastConfigMatchesSerialBake)
{
    expectHashGridBakeMatchesSerial(HashGridConfig{});
}

TEST(BakeDeterminismTest, CollisionHeavyHashGridMatchesSerialBake)
{
    // A prime table size takes the modulo slot path, and the finest
    // level maps about 16 vertices to every slot.
    HashGridConfig cfg;
    cfg.numLevels = 4;
    cfg.baseRes = 6;
    cfg.perLevelScale = 1.6f;
    cfg.tableSize = 997;
    HashGridEncoding shape(cfg);
    ASSERT_FALSE(shape.levelDense(1));
    const int v = shape.levelRes(3) + 1;
    ASSERT_GT(v * v * v, 15 * static_cast<int>(cfg.tableSize));
    expectHashGridBakeMatchesSerial(cfg);
}

TEST(BakeDeterminismTest, DenseGridMatchesSerialBakeInBothLayouts)
{
    ThreadCountGuard guard;
    Scene scene = test::tinyScene();
    const int n = 24;
    const int v = n + 1;
    const std::vector<float> expected = serialDenseGridBake(n, scene.field);
    for (GridLayout layout :
         {GridLayout::Linear, GridLayout::MVoxelBlocked}) {
        for (int threads : kBakeThreadCounts) {
            setParallelThreadCount(threads);
            DenseGridEncoding enc(n, layout);
            enc.bake(scene.field);
            int mismatches = 0;
            for (int iz = 0; iz < v; ++iz)
                for (int iy = 0; iy < v; ++iy)
                    for (int ix = 0; ix < v; ++ix)
                        mismatches += bitMismatches(
                            enc.vertexData(ix, iy, iz),
                            expected.data() +
                                ((static_cast<std::size_t>(iz) * v + iy) * v +
                                 ix) *
                                    kFeatureDim,
                            kFeatureDim);
            EXPECT_EQ(mismatches, 0)
                << "layout " << static_cast<int>(layout) << " at "
                << threads << " threads";
        }
    }
}

TEST(BakeDeterminismTest, TensoRFMatchesSerialBake)
{
    ThreadCountGuard guard;
    Scene scene = test::tinyScene();
    TensoRFConfig cfg;
    cfg.res = 16;
    cfg.ranks = 2;
    TensoRFTables expected = serialTensoRFBake(cfg, scene.field);
    const int n = cfg.res;
    for (int threads : kBakeThreadCounts) {
        setParallelThreadCount(threads);
        TensoRFEncoding enc(cfg);
        enc.bake(scene.field);
        int mismatches = 0;
        for (int g = 0; g < 3; ++g)
            for (int r = 0; r < cfg.ranks; ++r)
                for (int ch = 0; ch < kFeatureDim; ++ch) {
                    for (int v = 0; v < n; ++v)
                        for (int u = 0; u < n; ++u) {
                            float got = enc.planeAt(g, u, v, r, ch);
                            mismatches += bitMismatches(
                                &got, &expected.planeAt(g, u, v, r, ch), 1);
                        }
                    for (int w = 0; w < n; ++w) {
                        float got = enc.lineAt(g, w, r, ch);
                        mismatches += bitMismatches(
                            &got, &expected.lineAt(g, w, r, ch), 1);
                    }
                }
        EXPECT_EQ(mismatches, 0) << "at " << threads << " threads";
    }
}

} // namespace
} // namespace cicero
