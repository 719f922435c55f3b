/**
 * @file
 * Graceful-degradation tests for the render service, driven by the
 * deterministic fault-injection framework: transient-fault retry and
 * its exponential backoff, session quarantine with fault isolation
 * (healthy sessions stay bit-identical to solo), waitFrameFor
 * timeouts, overload shedding and deadline marking.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "scene/trajectory.hh"
#include "serve/render_service.hh"

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

TEST(ServeRobustnessTest, RetryRecoversTransientFrameFault)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2);

    RenderService svc;
    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 24;
    sc.height = 24;
    sc.trajectory = orbit(3);

    // Solo reference before arming anything.
    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    std::vector<Image> solo;
    for (const Pose &pose : sc.trajectory) {
        Camera cam = Camera::fromFov(sc.width, sc.height,
                                     pin.model().scene().fovYDeg, pose);
        solo.push_back(pin.model().render(cam).image);
    }

    FaultScope scope("frame_render:count=1");
    const int id = svc.admit(sc);
    ServeSessionResult r = svc.wait(id);

    // Exactly one attempt was killed; the retry recovered it and the
    // output is still bit-identical to the solo render.
    ASSERT_EQ(r.frames.size(), 3u);
    int retried = 0;
    for (int f = 0; f < 3; ++f) {
        retried += r.frames[f].retries;
        EXPECT_EQ(mismatchedPixels(r.frames[f].image, solo[f]), 0)
            << "frame " << f;
    }
    EXPECT_EQ(retried, 1);

    const ServiceCounters c = svc.counters();
    EXPECT_EQ(c.frameRetries, 1u);
    EXPECT_EQ(c.framesFailed, 0u);
    EXPECT_EQ(c.framesCompleted, 3u);
    EXPECT_EQ(c.quarantinedSessions, 0u);
}

TEST(ServeRobustnessTest, RetryBackoffDoublesPastThirtyAttempts)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);

    // 33 retries: the doubling backoff must keep doubling past the
    // 31st, where a 32-bit shift would go negative and then undefined.
    constexpr int kRetries = 33;
    RenderServiceConfig cfg;
    cfg.fanOutBlockRows = 8; // the frame height: one block, one retry chain
    cfg.maxFrameRetries = kRetries;
    cfg.retryBackoffS = 1e-12;
    RenderService svc(cfg);

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 8;
    sc.height = 8;
    sc.trajectory = orbit(1);

    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    const Image solo =
        pin.model()
            .render(Camera::fromFov(sc.width, sc.height,
                                    pin.model().scene().fovYDeg,
                                    sc.trajectory[0]))
            .image;

    // The fresh service's first session is id 0.
    FaultScope scope("frame_render:key=0:count=33");
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    ServeSessionResult r = svc.wait(svc.admit(sc));
    const double waitedS =
        std::chrono::duration<double>(Clock::now() - t0).count();

    ASSERT_EQ(r.frames.size(), 1u);
    EXPECT_EQ(r.frames[0].retries, kRetries);
    EXPECT_EQ(mismatchedPixels(r.frames[0].image, solo), 0);
    EXPECT_EQ(svc.counters().frameRetries,
              static_cast<std::uint64_t>(kRetries));
    // Retry k waits 1e-12 * 2^(k-1) s, and sleep_for never returns
    // early, so the frame took at least the sum 1e-12 * (2^33 - 1) s.
    EXPECT_GE(waitedS, 1e-12 * (std::ldexp(1.0, kRetries) - 1.0));
}

TEST(ServeRobustnessTest, QuarantineIsolatesFailingSession)
{
    ThreadCountGuard guard;
    setParallelThreadCount(4);

    RenderServiceConfig cfg;
    cfg.quarantineThreshold = 2;
    cfg.retryBackoffS = 1e-6;
    RenderService svc(cfg);

    // Solo reference for the healthy session.
    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    std::vector<Pose> healthyTraj = orbit(2, /*startDeg=*/45.0f);
    std::vector<Image> solo;
    for (const Pose &pose : healthyTraj) {
        Camera cam =
            Camera::fromFov(24, 24, pin.model().scene().fovYDeg, pose);
        solo.push_back(pin.model().render(cam).image);
    }

    // Every frame_render check of session 0 fails, forever. The fresh
    // service hands out ids from 0, so the first admission is the
    // victim and the keyed fault never touches session 1.
    FaultScope scope("frame_render:key=0:count=100000");

    ServeSessionConfig bad;
    bad.model = tinyKey();
    bad.width = 16;
    bad.height = 16;
    bad.trajectory = orbit(4);
    bad.inflightWindow = 1; // strictly serial: frames 2,3 are *after*
    bad.maxFrameRetries = 1; // the quarantine and deterministically skip

    ServeSessionConfig good = bad;
    good.width = 24;
    good.height = 24;
    good.trajectory = healthyTraj;

    const int badId = svc.admit(bad);
    ASSERT_EQ(badId, 0);
    const int goodId = svc.admit(good);
    EXPECT_FALSE(svc.sessionQuarantined(goodId));

    // The healthy session is untouched: bit-identical to solo even
    // while session 0 is failing and being quarantined next door.
    ServeSessionResult healthy = svc.wait(goodId);
    ASSERT_EQ(healthy.frames.size(), 2u);
    for (int f = 0; f < 2; ++f)
        EXPECT_EQ(mismatchedPixels(healthy.frames[f].image, solo[f]), 0)
            << "frame " << f;

    // Frame 0 exhausted its retries: its own error surfaces.
    EXPECT_THROW(svc.waitFrame(badId, 0), FaultInjectedError);
    // Frame 3 was never attempted: quarantine short-circuited it.
    EXPECT_THROW(svc.waitFrame(badId, 3), SessionQuarantinedError);
    EXPECT_TRUE(svc.sessionQuarantined(badId));

    // wait() rethrows the session's first real error, and retires it.
    EXPECT_THROW(svc.wait(badId), FaultInjectedError);
    EXPECT_THROW(svc.wait(badId), std::runtime_error); // already gone

    const ServiceCounters c = svc.counters();
    EXPECT_EQ(c.framesFailed, 2u);   // frames 0, 1
    EXPECT_EQ(c.framesSkipped, 2u);  // frames 2, 3
    EXPECT_EQ(c.quarantinedSessions, 1u);
    EXPECT_EQ(c.frameRetries, 2u);   // one retry per failed frame
}

TEST(ServeRobustnessTest, WaitFrameForTimesOutThenDelivers)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2);

    RenderServiceConfig cfg;
    cfg.retryBackoffS = 0.1; // the injected failure forces a 0.1 s nap
    RenderService svc(cfg);

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 16;
    sc.height = 16;
    sc.trajectory = orbit(1);

    FaultScope scope("frame_render:count=1");
    const int id = svc.admit(sc);

    // The frame cannot be done inside 10 ms — its first attempt dies
    // and the retry sits in the 100 ms backoff.
    try {
        svc.waitFrameFor(id, 0, 0.01);
        FAIL() << "expected WaitTimeoutError";
    } catch (const WaitTimeoutError &e) {
        EXPECT_EQ(e.sessionId(), id);
        EXPECT_EQ(e.frameIndex(), 0);
    }

    // The frame kept rendering; the blocking wait delivers it.
    ServeFrame frame = svc.waitFrame(id, 0);
    EXPECT_EQ(frame.retries, 1);
    svc.wait(id);
}

TEST(ServeRobustnessTest, OverloadSheddingDownsamplesAdmissions)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2); // async frames: sessions stay in flight

    RenderServiceConfig cfg;
    cfg.maxSessions = 4;
    cfg.shedThreshold = 0.5; // pressure at ceil(0.5 * 4) = 2 active
    RenderService svc(cfg);

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 32;
    sc.height = 32;
    sc.trajectory = orbit(8);

    const int a = svc.admit(sc);
    const int b = svc.admit(sc);
    const int c = svc.admit(sc); // 2 active >= pressure: shed
    ServeSessionResult ra = svc.wait(a);
    ServeSessionResult rb = svc.wait(b);
    ServeSessionResult rc = svc.wait(c);

    EXPECT_FALSE(ra.downsampled);
    EXPECT_FALSE(rb.downsampled);
    EXPECT_TRUE(rc.downsampled);
    // Half resolution: 32x32 -> 16x16.
    EXPECT_EQ(ra.frames[0].image.pixelCount(), 32u * 32u);
    EXPECT_EQ(rc.frames[0].image.pixelCount(), 16u * 16u);
    EXPECT_EQ(svc.counters().shedAdmissions, 1u);

    // Pressure cleared: the next admission runs at full resolution.
    ServeSessionConfig one = sc;
    one.trajectory = orbit(1);
    ServeSessionResult rd = svc.wait(svc.admit(one));
    EXPECT_FALSE(rd.downsampled);
    EXPECT_EQ(rd.frames[0].image.pixelCount(), 32u * 32u);
}

TEST(ServeRobustnessTest, DeadlinesMarkLateFramesWithoutCorruption)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2);

    RenderServiceConfig cfg;
    cfg.defaultFrameDeadlineS = 1e-9; // every frame is "late"
    RenderService svc(cfg);

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 24;
    sc.height = 24;
    sc.trajectory = orbit(2);

    SharedModelCache::Lease pin = svc.cache().acquire(tinyKey());
    std::vector<Image> solo;
    for (const Pose &pose : sc.trajectory) {
        Camera cam = Camera::fromFov(sc.width, sc.height,
                                     pin.model().scene().fovYDeg, pose);
        solo.push_back(pin.model().render(cam).image);
    }

    ServeSessionResult r = svc.wait(svc.admit(sc));
    ASSERT_EQ(r.frames.size(), 2u);
    for (int f = 0; f < 2; ++f) {
        EXPECT_TRUE(r.frames[f].deadlineMiss) << "frame " << f;
        // Marked, never altered.
        EXPECT_EQ(mismatchedPixels(r.frames[f].image, solo[f]), 0)
            << "frame " << f;
    }
    EXPECT_EQ(svc.counters().deadlineMisses, 2u);

    // The injected variant: no real deadline, one forced miss.
    RenderService svc2;
    FaultScope scope("frame_deadline:count=1");
    ServeSessionResult r2 = svc2.wait(svc2.admit(sc));
    int misses = 0;
    for (const ServeFrame &frame : r2.frames)
        misses += frame.deadlineMiss ? 1 : 0;
    EXPECT_EQ(misses, 1);
    EXPECT_EQ(svc2.counters().deadlineMisses, 1u);
}

} // namespace
} // namespace cicero
