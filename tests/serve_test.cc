/**
 * @file
 * Tests for the serving layer: the shared-model cache's refcounted
 * lifetime and the render service's end-to-end contract — every
 * session's frames bit-identical to a solo render at any thread
 * count, admission control, and the waitFrame/wait API surface.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

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

TEST(ServeTest, CacheRefcountsAndEvictsOnLastRelease)
{
    SharedModelCache cache;
    const ModelKey key = tinyKey();

    SharedModelCache::Lease a = cache.acquire(key);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.liveEntries(), 1u);

    SharedModelCache::Lease b = cache.acquire(key);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.liveEntries(), 1u);
    // Shares literally one cache entry and one model instance.
    EXPECT_EQ(&a.key(), &b.key());
    EXPECT_EQ(&a.model(), &b.model());

    a.release();
    EXPECT_EQ(cache.liveEntries(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    a.release(); // idempotent
    EXPECT_EQ(cache.liveEntries(), 1u);

    b.release();
    EXPECT_EQ(cache.liveEntries(), 0u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Re-acquire after eviction rebuilds.
    SharedModelCache::Lease c = cache.acquire(key);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.liveEntries(), 1u);
}

TEST(ServeTest, CacheFp16IsADistinctKey)
{
    SharedModelCache cache;
    ModelKey fp32 = tinyKey();
    ModelKey fp16 = fp32;
    fp16.fp16 = true;
    EXPECT_FALSE(fp32 == fp16);

    SharedModelCache::Lease a = cache.acquire(fp32);
    SharedModelCache::Lease b = cache.acquire(fp16);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.liveEntries(), 2u);
    EXPECT_NE(&a.model(), &b.model());
}

TEST(ServeTest, ServiceFramesBitIdenticalToSoloAtAnyThreadCount)
{
    ThreadCountGuard guard;
    const ModelKey key = tinyKey();
    const int res = 24;
    const int frames = 2;
    const int sessions = 3;

    RenderService svc;
    // Pin the model across legs so it builds once.
    SharedModelCache::Lease pin = svc.cache().acquire(key);
    const Scene &scene = pin.model().scene();

    auto trajectory = [&](int i) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = 30.0f * static_cast<float>(i);
        return orbitTrajectory(orbit, frames);
    };

    // Solo reference frames through the ordinary parallel renderer.
    std::vector<std::vector<Image>> solo(sessions);
    for (int i = 0; i < sessions; ++i)
        for (const Pose &pose : trajectory(i)) {
            Camera cam =
                Camera::fromFov(res, res, scene.fovYDeg, pose);
            solo[i].push_back(pin.model().render(cam).image);
        }

    for (int threadCount : {1, 4, 7}) {
        setParallelThreadCount(threadCount);
        std::vector<int> ids(sessions);
        for (int i = 0; i < sessions; ++i) {
            ServeSessionConfig sc;
            sc.model = key;
            sc.width = res;
            sc.height = res;
            sc.trajectory = trajectory(i);
            ids[i] = svc.admit(sc);
        }
        for (int i = 0; i < sessions; ++i) {
            ServeSessionResult r = svc.wait(ids[i]);
            ASSERT_EQ(r.frames.size(), static_cast<std::size_t>(frames));
            for (int f = 0; f < frames; ++f) {
                const Image &img = r.frames[f].image;
                const Image &ref = solo[i][f];
                ASSERT_EQ(img.pixelCount(), ref.pixelCount());
                int mismatches = 0;
                for (std::size_t p = 0; p < img.pixelCount(); ++p)
                    if (img.at(p).x != ref.at(p).x ||
                        img.at(p).y != ref.at(p).y ||
                        img.at(p).z != ref.at(p).z)
                        ++mismatches;
                EXPECT_EQ(mismatches, 0)
                    << "threads " << threadCount << " session " << i
                    << " frame " << f;
            }
        }
    }
    EXPECT_EQ(svc.counters().framesCompleted,
              static_cast<std::uint64_t>(3 * sessions * frames));
}

TEST(ServeTest, AdmissionControlRejectsAtCapacity)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2); // async frames: sessions stay in flight

    RenderServiceConfig cfg;
    cfg.maxSessions = 1;
    RenderService svc(cfg);

    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 48;
    sc.height = 48;
    OrbitParams orbit;
    sc.trajectory = orbitTrajectory(orbit, 8);

    const int id = svc.admit(sc);
    EXPECT_EQ(svc.activeSessions(), 1);
    EXPECT_EQ(svc.tryAdmit(sc), -1);
    EXPECT_THROW(svc.admit(sc), std::runtime_error);
    EXPECT_EQ(svc.counters().rejected, 2u);

    svc.wait(id);
    EXPECT_EQ(svc.activeSessions(), 0);
    const int id2 = svc.tryAdmit(sc);
    EXPECT_GE(id2, 0);
    svc.wait(id2);
}

TEST(ServeTest, WaitFrameMatchesWaitAndApiValidates)
{
    ThreadCountGuard guard;
    setParallelThreadCount(2);

    RenderService svc;
    ServeSessionConfig sc;
    sc.model = tinyKey();
    sc.width = 24;
    sc.height = 24;
    OrbitParams orbit;
    sc.trajectory = orbitTrajectory(orbit, 3);

    // Invalid configs are rejected before admission.
    ServeSessionConfig bad = sc;
    bad.trajectory.clear();
    EXPECT_THROW(svc.admit(bad), std::runtime_error);
    bad = sc;
    bad.width = 0;
    EXPECT_THROW(svc.admit(bad), std::runtime_error);

    const int id = svc.admit(sc);
    EXPECT_THROW(svc.waitFrame(id, -1), std::runtime_error);
    EXPECT_THROW(svc.waitFrame(id, 3), std::runtime_error);
    EXPECT_THROW(svc.waitFrame(id + 99, 0), std::runtime_error);

    const ServeFrame early = svc.waitFrame(id, 1);
    ServeSessionResult all = svc.wait(id);
    ASSERT_EQ(all.frames.size(), 3u);
    ASSERT_EQ(early.image.pixelCount(), all.frames[1].image.pixelCount());
    for (std::size_t p = 0; p < early.image.pixelCount(); ++p) {
        ASSERT_EQ(early.image.at(p).x, all.frames[1].image.at(p).x);
        ASSERT_EQ(early.image.at(p).y, all.frames[1].image.at(p).y);
        ASSERT_EQ(early.image.at(p).z, all.frames[1].image.at(p).z);
    }

    // A collected session is gone.
    EXPECT_THROW(svc.wait(id), std::runtime_error);
    EXPECT_THROW(svc.waitFrame(id, 0), std::runtime_error);
}

} // namespace
} // namespace cicero
