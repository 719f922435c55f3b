/**
 * @file
 * Tests for intra-frame ray-block fan-out in the render service: a
 * served frame split into contiguous ray-block tasks must stay
 * bit-identical to a solo render at any thread count and block size,
 * each block's ray packets must decode several ray blocks per pass
 * with counts independent of the thread count, and the fault paths
 * (decode faults inside blocks, per-session quarantine) must keep
 * their graceful-degradation semantics under fan-out.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "scene/trajectory.hh"
#include "serve/render_service.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

ModelKey
tinyKey()
{
    ModelKey key;
    key.scene = "lego";
    key.kind = ModelKind::DirectVoxGO;
    key.preset = ModelPreset::Fast;
    return key;
}

std::vector<Pose>
orbit(int frames, float startDeg = 0.0f)
{
    OrbitParams params;
    params.startDeg = startDeg;
    return orbitTrajectory(params, frames);
}

/** Pixel-exact image comparison. */
int
mismatchedPixels(const Image &a, const Image &b)
{
    if (a.pixelCount() != b.pixelCount())
        return static_cast<int>(a.pixelCount() + b.pixelCount());
    int bad = 0;
    for (std::size_t p = 0; p < a.pixelCount(); ++p)
        if (a.at(p).x != b.at(p).x || a.at(p).y != b.at(p).y ||
            a.at(p).z != b.at(p).z)
            ++bad;
    return bad;
}

TEST(ServeFanoutTest, FramesBitIdenticalToSoloAtAnyThreadCount)
{
    ThreadCountGuard guard;
    const int res = 24;
    const int frames = 2;
    const int sessions = 2;

    // A deliberately awkward block size: 24 rows / 5-row blocks gives
    // four full blocks plus a 4-row tail, exercising the remainder
    // path at every thread count.
    RenderServiceConfig cfg;
    cfg.fanOutBlockRows = 5;
    RenderService svc(cfg);

    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    const Scene &scene = pin.model().scene();

    std::vector<std::vector<Image>> solo(sessions);
    for (int i = 0; i < sessions; ++i)
        for (const Pose &pose : orbit(frames, 40.0f * i)) {
            Camera cam = Camera::fromFov(res, res, scene.fovYDeg, pose);
            solo[i].push_back(pin.model().render(cam).image);
        }

    for (int threadCount : {1, 4, 7}) {
        setParallelThreadCount(threadCount);
        std::vector<int> ids(sessions);
        for (int i = 0; i < sessions; ++i) {
            ServeSessionConfig sc;
            sc.model = tinyKey();
            sc.width = res;
            sc.height = res;
            sc.trajectory = orbit(frames, 40.0f * i);
            ids[i] = svc.admit(sc);
        }
        for (int i = 0; i < sessions; ++i) {
            ServeSessionResult r = svc.wait(ids[i]);
            ASSERT_EQ(r.frames.size(), static_cast<std::size_t>(frames));
            for (int f = 0; f < frames; ++f)
                EXPECT_EQ(mismatchedPixels(r.frames[f].image, solo[i][f]),
                          0)
                    << "threads " << threadCount << " session " << i
                    << " frame " << f;
        }
    }
}

TEST(ServeFanoutTest, PacketDecodeStatsIndependentOfThreadCount)
{
    ThreadCountGuard guard;

    // Fixed 2-row ray blocks: every block task walks the same rays in
    // the same packets at any thread count, so the packet decode
    // counts must match exactly.
    RenderServiceConfig cfg;
    cfg.fanOutBlockRows = 2; // 32 rows -> 16 block tasks per frame

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 32;
    sc.height = 32;
    sc.trajectory = orbit(2);

    std::vector<FusionStats> stats;
    for (int threadCount : {1, 4, 7}) {
        setParallelThreadCount(threadCount);
        RenderService svc(cfg);
        ServeSessionResult r = svc.wait(svc.admit(sc));
        ASSERT_EQ(r.frames.size(), 2u);
        stats.push_back(svc.cache().fusionStatsTotal());
    }

    const FusionStats &fu = stats[0];
    EXPECT_GE(fu.fusedPasses, 1u);
    EXPECT_GT(fu.blocks, fu.passes); // packets decode > 1 block a pass
    EXPECT_GE(fu.samples, fu.blocks);
    EXPECT_EQ(fu.crossSessionPasses, 0u);
    for (std::size_t i = 1; i < stats.size(); ++i) {
        EXPECT_EQ(stats[i].blocks, fu.blocks) << "run " << i;
        EXPECT_EQ(stats[i].samples, fu.samples) << "run " << i;
        EXPECT_EQ(stats[i].passes, fu.passes) << "run " << i;
        EXPECT_EQ(stats[i].fusedPasses, fu.fusedPasses) << "run " << i;
        EXPECT_EQ(stats[i].maxBatchSamples, fu.maxBatchSamples)
            << "run " << i;
    }
}

TEST(ServeFanoutTest, DecodeFaultInsideBlocksStaysBitIdentical)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    RenderServiceConfig cfg;
    cfg.fanOutBlockRows = 2;
    cfg.retryBackoffS = 1e-6;
    RenderService svc(cfg);

    const int res = 24;
    const int frames = 2;

    // Solo references before arming anything — the reference renders
    // decode through the same MLP and would consume the fault window.
    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    const Scene &scene = pin.model().scene();
    std::vector<std::vector<Image>> solo(2);
    for (int i = 0; i < 2; ++i)
        for (const Pose &pose : orbit(frames, 70.0f * i)) {
            Camera cam = Camera::fromFov(res, res, scene.fovYDeg, pose);
            solo[i].push_back(pin.model().render(cam).image);
        }

    // One decode pass dies somewhere inside the fanned-out block
    // tasks. A block task decodes only its own rays, so the fault
    // fails exactly that block attempt, and the frame-level retry
    // re-renders it bit-identically.
    FaultScope scope("mlp_decode:count=1");
    std::vector<int> ids(2);
    for (int i = 0; i < 2; ++i) {
        ServeSessionConfig sc;
        sc.model = tinyKey();
        sc.width = res;
        sc.height = res;
        sc.trajectory = orbit(frames, 70.0f * i);
        ids[i] = svc.admit(sc);
    }
    for (int i = 0; i < 2; ++i) {
        ServeSessionResult r = svc.wait(ids[i]);
        ASSERT_EQ(r.frames.size(), static_cast<std::size_t>(frames));
        for (int f = 0; f < frames; ++f)
            EXPECT_EQ(mismatchedPixels(r.frames[f].image, solo[i][f]), 0)
                << "session " << i << " frame " << f;
    }

    const ServiceCounters c = svc.counters();
    EXPECT_EQ(c.frameRetries, 1u);
    EXPECT_EQ(c.framesFailed, 0u);
    EXPECT_EQ(c.quarantinedSessions, 0u);
}

TEST(ServeFanoutTest, RenderFaultQuarantinesOnlyTheFaultySession)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    RenderServiceConfig cfg;
    cfg.fanOutBlockRows = 4;
    cfg.quarantineThreshold = 2;
    cfg.retryBackoffS = 1e-6;
    RenderService svc(cfg);

    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    std::vector<Pose> healthyTraj = orbit(2, /*startDeg=*/45.0f);
    std::vector<Image> solo;
    for (const Pose &pose : healthyTraj) {
        Camera cam =
            Camera::fromFov(24, 24, pin.model().scene().fovYDeg, pose);
        solo.push_back(pin.model().render(cam).image);
    }

    // Every frame_render check of session 0 fails, forever — and with
    // fan-out every one of its block tasks runs that check. The frame
    // must fail once (retries aggregated as a max over blocks, not a
    // sum), quarantine after two failed frames, and never perturb the
    // healthy session rendering next door.
    FaultScope scope("frame_render:key=0:count=100000");

    ServeSessionConfig bad;
    bad.model = tinyKey();
    bad.width = 16;
    bad.height = 16;
    bad.trajectory = orbit(4);
    bad.inflightWindow = 1;
    bad.maxFrameRetries = 1;

    ServeSessionConfig good = bad;
    good.width = 24;
    good.height = 24;
    good.trajectory = healthyTraj;

    const int badId = svc.admit(bad);
    ASSERT_EQ(badId, 0);
    const int goodId = svc.admit(good);

    ServeSessionResult healthy = svc.wait(goodId);
    ASSERT_EQ(healthy.frames.size(), 2u);
    for (int f = 0; f < 2; ++f)
        EXPECT_EQ(mismatchedPixels(healthy.frames[f].image, solo[f]), 0)
            << "frame " << f;

    EXPECT_THROW(svc.waitFrame(badId, 0), FaultInjectedError);
    EXPECT_THROW(svc.waitFrame(badId, 3), SessionQuarantinedError);
    EXPECT_TRUE(svc.sessionQuarantined(badId));
    EXPECT_THROW(svc.wait(badId), FaultInjectedError);

    const ServiceCounters c = svc.counters();
    EXPECT_EQ(c.framesFailed, 2u);
    EXPECT_EQ(c.framesSkipped, 2u);
    EXPECT_EQ(c.quarantinedSessions, 1u);
    // One retry per failed frame, independent of the block count.
    EXPECT_EQ(c.frameRetries, 2u);
}

} // namespace
} // namespace cicero
