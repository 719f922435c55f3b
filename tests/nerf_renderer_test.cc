/**
 * @file
 * Tests for the volume compositor, the sampler/occupancy grid and the
 * pixel-centric renderer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "cicero/warp.hh"
#include "common/rng.hh"
#include "nerf/renderer.hh"
#include "nerf/volume_renderer.hh"
#include "test_util.hh"

namespace cicero {
namespace {

TEST(CompositorTest, EmptyRayIsBackground)
{
    Compositor c;
    CompositeResult r = c.finish({0.2f, 0.4f, 0.6f});
    EXPECT_FLOAT_EQ(r.opacity, 0.0f);
    EXPECT_FLOAT_EQ(r.rgb.x, 0.2f);
    EXPECT_TRUE(std::isinf(r.depth));
}

TEST(CompositorTest, OpaqueSampleDominates)
{
    Compositor c;
    // Very dense sample: alpha ~ 1.
    c.add(1000.0f, {1.0f, 0.0f, 0.0f}, 2.0f, 0.1f);
    CompositeResult r = c.finish({0.0f, 1.0f, 0.0f});
    EXPECT_NEAR(r.opacity, 1.0f, 1e-4f);
    EXPECT_NEAR(r.rgb.x, 1.0f, 1e-4f);
    EXPECT_NEAR(r.rgb.y, 0.0f, 1e-4f);
    EXPECT_NEAR(r.depth, 2.0f, 1e-3f);
}

TEST(CompositorTest, TransmittanceDecreasesMonotonically)
{
    Compositor c;
    float prev = c.transmittance();
    for (int i = 0; i < 10; ++i) {
        c.add(5.0f, {0.5f, 0.5f, 0.5f}, 1.0f + i * 0.1f, 0.05f);
        EXPECT_LE(c.transmittance(), prev);
        prev = c.transmittance();
    }
    EXPECT_GE(prev, 0.0f);
}

TEST(CompositorTest, EarlyStopSignalled)
{
    Compositor c;
    bool keep = true;
    int steps = 0;
    while (keep && steps < 100) {
        keep = c.add(200.0f, {1.0f, 1.0f, 1.0f}, 1.0f, 0.05f);
        ++steps;
    }
    EXPECT_LT(steps, 10);
    EXPECT_LE(c.transmittance(), Compositor::kEarlyStopT);
}

TEST(CompositorTest, ZeroDensityContributesNothing)
{
    Compositor c;
    c.add(0.0f, {9.0f, 9.0f, 9.0f}, 1.0f, 1.0f);
    CompositeResult r = c.finish({0.0f, 0.0f, 0.0f});
    EXPECT_FLOAT_EQ(r.opacity, 0.0f);
    EXPECT_FLOAT_EQ(r.rgb.x, 0.0f);
}

TEST(CompositorTest, WeightsFormPartitionWithBackground)
{
    // Accumulated color of constant-radiance samples + background of
    // the same color must reproduce that color exactly.
    Compositor c;
    Vec3 col{0.3f, 0.6f, 0.9f};
    for (int i = 0; i < 20; ++i)
        if (!c.add(7.0f, col, 1.0f + 0.1f * i, 0.1f))
            break;
    CompositeResult r = c.finish(col);
    EXPECT_NEAR(r.rgb.x, col.x, 1e-5f);
    EXPECT_NEAR(r.rgb.y, col.y, 1e-5f);
    EXPECT_NEAR(r.rgb.z, col.z, 1e-5f);
}

TEST(OccupancyTest, MarksSphereOccupied)
{
    Scene s = test::tinyScene();
    OccupancyGrid occ(s.field, 32, 0.5f);
    EXPECT_TRUE(occ.occupied({0.0f, 0.0f, 0.0f}));
    EXPECT_FALSE(occ.occupied({0.9f, 0.9f, 0.9f}));
    EXPECT_FALSE(occ.occupied({5.0f, 0.0f, 0.0f})); // outside bounds
    EXPECT_GT(occ.occupancyFraction(), 0.01);
    EXPECT_LT(occ.occupancyFraction(), 0.6);
}

TEST(OccupancyTest, RayTestSeparatesHitAndMiss)
{
    Scene s = test::tinyScene();
    OccupancyGrid occ(s.field, 32, 0.5f);
    Ray hit{{0.0f, 0.0f, 2.0f}, {0.0f, 0.0f, -1.0f}};
    Ray miss{{0.0f, 2.5f, 2.0f},
             Vec3{0.0f, 0.3f, -1.0f}.normalized()};
    EXPECT_TRUE(occ.rayHitsOccupied(hit));
    EXPECT_FALSE(occ.rayHitsOccupied(miss));
}

TEST(SamplerTest, SkipsEmptySpace)
{
    Scene s = test::tinyScene();
    OccupancyGrid occ(s.field, 32, 0.5f);
    SamplerConfig cfg;
    cfg.stepsAcross = 128;
    RaySampler with(s.field.bounds(), &occ, cfg);
    RaySampler without(s.field.bounds(), nullptr, cfg);

    Ray ray{{0.0f, 0.0f, 2.0f}, {0.0f, 0.0f, -1.0f}};
    std::vector<RaySample> a, b;
    with.sample(ray, a);
    without.sample(ray, b);
    EXPECT_GT(a.size(), 0u);
    EXPECT_GE(b.size(), 2 * a.size());
    // Samples lie inside bounds with valid normalized coords.
    for (const auto &smp : a) {
        EXPECT_TRUE(s.field.bounds().contains(smp.pos));
        EXPECT_GE(smp.pn.x, 0.0f);
        EXPECT_LE(smp.pn.x, 1.0f);
    }
}

TEST(SamplerTest, SamplesAreOrderedAndSpaced)
{
    Scene s = test::tinyScene();
    SamplerConfig cfg;
    cfg.stepsAcross = 64;
    RaySampler sampler(s.field.bounds(), nullptr, cfg);
    Ray ray{{0.0f, 0.1f, 2.0f}, Vec3{0.1f, 0.0f, -1.0f}.normalized()};
    std::vector<RaySample> out;
    sampler.sample(ray, out);
    ASSERT_GT(out.size(), 4u);
    for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_GT(out[i].t, out[i - 1].t);
        EXPECT_NEAR(out[i].t - out[i - 1].t, sampler.stepSize(), 1e-4f);
    }
}

TEST(SamplerTest, RespectsMaxSamples)
{
    Scene s = test::tinyScene();
    SamplerConfig cfg;
    cfg.stepsAcross = 512;
    cfg.maxSamplesPerRay = 16;
    RaySampler sampler(s.field.bounds(), nullptr, cfg);
    Ray ray{{0.0f, 0.0f, 2.0f}, {0.0f, 0.0f, -1.0f}};
    std::vector<RaySample> out;
    EXPECT_LE(sampler.sample(ray, out), 16);
}

// ---------------------------------------------------------------------
// Empty-space skipping: the skipping marches must keep exactly the
// samples and verdicts of the exhaustive marches they replace. The
// oracles below are the exhaustive loops, one lookup per step.
// ---------------------------------------------------------------------

/** The sampler's exhaustive march: one occupancy lookup per step. */
int
exhaustiveSample(const Aabb &bounds, const OccupancyGrid *occ,
                 const SamplerConfig &cfg, float step, const Ray &ray,
                 std::vector<RaySample> &out)
{
    out.clear();
    auto hit = bounds.intersect(ray);
    if (!hit)
        return 0;
    auto [t0, t1] = *hit;
    Vec3 e = bounds.extent();
    for (float t = t0 + 0.5f * step;
         t < t1 && static_cast<int>(out.size()) < cfg.maxSamplesPerRay;
         t += step) {
        Vec3 p = ray.at(t);
        Vec3 pn{(p.x - bounds.lo.x) / e.x, (p.y - bounds.lo.y) / e.y,
                (p.z - bounds.lo.z) / e.z};
        if (occ && !occ->occupiedNormalized(pn))
            continue;
        out.push_back(RaySample{p, pn, t, step});
    }
    return static_cast<int>(out.size());
}

/** The void test's exhaustive half-cell march over raw occupancy. */
bool
exhaustiveHitsOccupied(const OccupancyGrid &occ, const Ray &ray)
{
    const Aabb &b = occ.bounds();
    auto hit = b.intersect(ray);
    if (!hit)
        return false;
    auto [t0, t1] = *hit;
    float step = 0.5f * (b.extent().minComponent() / occ.res());
    for (float t = t0 + 0.5f * step; t < t1; t += step) {
        Vec3 p = ray.at(t);
        if (!b.contains(p))
            continue;
        if (occ.distanceNormalized(b.normalize(p)) == 0)
            return true;
    }
    return false;
}

bool
sameBits(float a, float b)
{
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    return ua == ub;
}

bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return sameBits(a.x, b.x) && sameBits(a.y, b.y) && sameBits(a.z, b.z);
}

/** Differences between the skipping and the exhaustive marches. */
struct MarchDiff
{
    std::uint64_t rays = 0;
    std::uint64_t samples = 0;        //!< samples the oracle kept
    std::uint64_t differingRays = 0;  //!< count or any sample differs
    std::uint64_t differingSamples = 0;
    std::uint64_t hits = 0;           //!< oracle void-test hits
    std::uint64_t differingVerdicts = 0;
    bool gridOccupied = false; //!< the grid has any raw-occupied cell
};

void
compareRay(const RaySampler &sampler, const OccupancyGrid &occ,
           const Aabb &bounds, const Ray &ray, MarchDiff &diff)
{
    std::vector<RaySample> got, want;
    int n = sampler.sample(ray, got);
    int m = exhaustiveSample(bounds, &occ, sampler.config(),
                             sampler.stepSize(), ray, want);
    ++diff.rays;
    diff.samples += want.size();
    std::uint64_t bad = n != m ? 1 : 0;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        const RaySample &a = got[i];
        const RaySample &b = want[i];
        if (!sameBits(a.pos, b.pos) || !sameBits(a.pn, b.pn) ||
            !sameBits(a.t, b.t) || !sameBits(a.dt, b.dt))
            ++bad;
    }
    diff.differingSamples += bad;
    diff.differingRays += bad ? 1 : 0;

    bool hit = exhaustiveHitsOccupied(occ, ray);
    diff.hits += hit;
    diff.differingVerdicts += hit != occ.rayHitsOccupied(ray);
}

/** Every pixel of four orbit views of @p scene. */
std::vector<Ray>
orbitViewRays(const Scene &scene, int res)
{
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    orbit.degPerSecond = 90.0f * orbit.fps; // a quarter turn per view
    orbit.startDeg = 17.0f;
    std::vector<Ray> rays;
    for (const Pose &pose : orbitTrajectory(orbit, 4)) {
        Camera cam = Camera::fromFov(res, res, scene.fovYDeg, pose);
        for (int y = 0; y < res; ++y)
            for (int x = 0; x < res; ++x)
                rays.push_back(cam.generateRay(x, y));
    }
    return rays;
}

/**
 * Hand-built rays that stress the skip bound: axis-parallel rays (two
 * zero direction components) through cell faces and cell centres,
 * origins inside the box and inside occupied space, grazing and
 * reversed directions, and random rays from inside and around the box.
 */
std::vector<Ray>
handBuiltRays(const Aabb &b, int res)
{
    std::vector<Ray> rays;
    Vec3 e = b.extent();
    const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    for (int a = 0; a < 3; ++a) {
        int u = (a + 1) % 3, v = (a + 2) % 3;
        for (int i = 0; i <= res; ++i) {
            for (float frac : {0.0f, 0.5f}) {
                float cu = (i + frac) / res, cv = (i * 7 % res + frac) / res;
                for (float sign : {1.0f, -1.0f}) {
                    Vec3 o = b.center();
                    o[a] = sign > 0 ? b.lo[a] - 0.5f : b.hi[a] + 0.5f;
                    o[u] = b.lo[u] + e[u] * cu; // on a cell face at frac 0
                    o[v] = b.lo[v] + e[v] * cv;
                    rays.push_back({o, axes[a] * sign});
                }
            }
        }
    }
    Rng rng(19);
    for (int i = 0; i < 4000; ++i) {
        Vec3 d{rng.normal(), rng.normal(), rng.normal()};
        if (i % 5 == 0)
            d[i % 3] = 0.0f; // one zero component
        if (d.norm() < 1e-3f)
            continue;
        // Origins inside the box (including its centre, occupied in
        // every test scene) and outside it.
        Vec3 u = rng.uniformVec3();
        Vec3 o = i % 3 == 0 ? b.center()
                            : Vec3{b.lo.x + e.x * (2.0f * u.x - 0.5f),
                                   b.lo.y + e.y * (2.0f * u.y - 0.5f),
                                   b.lo.z + e.z * (2.0f * u.z - 0.5f)};
        rays.push_back({o, d.normalized()});
    }
    return rays;
}

// The occupied-bounds cull: a ray whose span misses the padded box
// around the occupied cells is settled without a march. The boxes must
// bound their cells, and rays grazing every face must still get the
// exhaustive marches' verdicts and samples.

/** Cell ranges [lo, hi] per axis of a grid's raw and dilated cells. */
struct CellRanges
{
    int rawLo[3] = {1 << 20, 1 << 20, 1 << 20};
    int rawHi[3] = {-1, -1, -1};
    int dilLo[3] = {1 << 20, 1 << 20, 1 << 20};
    int dilHi[3] = {-1, -1, -1};
    int rawCells = 0;
};

CellRanges
cellRanges(const OccupancyGrid &occ)
{
    CellRanges r;
    const int res = occ.res();
    for (int z = 0; z < res; ++z) {
        for (int y = 0; y < res; ++y) {
            for (int x = 0; x < res; ++x) {
                Vec3 pn{(x + 0.5f) / res, (y + 0.5f) / res,
                        (z + 0.5f) / res};
                const int c[3] = {x, y, z};
                const bool raw = occ.distanceNormalized(pn) == 0;
                const bool dil = occ.occupiedNormalized(pn);
                r.rawCells += raw;
                for (int a = 0; a < 3; ++a) {
                    if (raw) {
                        r.rawLo[a] = std::min(r.rawLo[a], c[a]);
                        r.rawHi[a] = std::max(r.rawHi[a], c[a]);
                    }
                    if (dil) {
                        r.dilLo[a] = std::min(r.dilLo[a], c[a]);
                        r.dilHi[a] = std::max(r.dilHi[a], c[a]);
                    }
                }
            }
        }
    }
    return r;
}

/** World coordinate of the face between cells @p i - 1 and @p i. */
float
cellFace(const Aabb &b, int res, int a, int i)
{
    return b.lo[a] + b.extent()[a] * i / res;
}

/**
 * @p box bounds the cells [lo, hi]: each face lies strictly outside the
 * cells, by less than a cell, except that a face where the cells reach
 * the grid boundary lies at least one cell past it. Empty ranges give
 * an empty box.
 */
void
expectBoxBoundsCells(const OccupancyGrid &occ, const Aabb &box,
                     const int lo[3], const int hi[3], const char *what)
{
    SCOPED_TRACE(what);
    const int res = occ.res();
    const Aabb &b = occ.bounds();
    if (hi[0] < 0) {
        EXPECT_FALSE(box.valid());
        return;
    }
    ASSERT_TRUE(box.valid());
    for (int a = 0; a < 3; ++a) {
        SCOPED_TRACE("axis " + std::to_string(a));
        const float cell = b.extent()[a] / res;
        const float faceLo = cellFace(b, res, a, lo[a]);
        const float faceHi = cellFace(b, res, a, hi[a] + 1);
        if (lo[a] == 0) {
            EXPECT_LE(box.lo[a], b.lo[a] - cell);
            EXPECT_GT(box.lo[a], b.lo[a] - 2.0f * cell);
        } else {
            EXPECT_LT(box.lo[a], faceLo);
            EXPECT_GT(box.lo[a], faceLo - cell);
        }
        if (hi[a] == res - 1) {
            EXPECT_GE(box.hi[a], b.hi[a] + cell);
            EXPECT_LT(box.hi[a], b.hi[a] + 2.0f * cell);
        } else {
            EXPECT_GT(box.hi[a], faceHi);
            EXPECT_LT(box.hi[a], faceHi + cell);
        }
    }
}

/**
 * Rays grazing the faces of the raw cells, the dilated cells and the
 * grid: parallel to each face, at a few ulps and at fractions of a cell
 * on either side of it, along both in-face axes in both directions,
 * plus slightly tilted copies that cross the face plane.
 */
std::vector<Ray>
grazingRays(const OccupancyGrid &occ, const CellRanges &r)
{
    std::vector<Ray> rays;
    const int res = occ.res();
    const Aabb &b = occ.bounds();
    const Vec3 e = b.extent();
    const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    std::vector<std::pair<int, float>> planes; // (axis, coordinate)
    for (int a = 0; a < 3; ++a) {
        for (int i : {0, res})
            planes.push_back({a, cellFace(b, res, a, i)});
        if (r.rawHi[a] < 0)
            continue;
        for (int i : {r.rawLo[a], r.rawHi[a] + 1, r.dilLo[a],
                      r.dilHi[a] + 1})
            planes.push_back({a, cellFace(b, res, a, i)});
    }
    for (auto [a, plane] : planes) {
        const float cell = e[a] / res;
        std::vector<float> coords;
        float up = plane, down = plane;
        for (int k = 0; k < 8; ++k) {
            coords.push_back(up);
            coords.push_back(down);
            up = std::nextafter(up, 1e30f);
            down = std::nextafter(down, -1e30f);
        }
        for (float f : {0.1f, 0.3f, 0.6f, 1.1f}) {
            coords.push_back(plane + f * cell);
            coords.push_back(plane - f * cell);
        }
        for (int du = 1; du <= 2; ++du) {
            const int u = (a + du) % 3;     // the ray runs along u
            const int v = (a + 3 - du) % 3; // and sits at fixed v
            // Through the occupied cells' middle and along their edge.
            std::vector<float> vs = {b.center()[v]};
            if (r.rawHi[v] >= 0) {
                vs.push_back(cellFace(b, res, v, r.rawLo[v]) + 0.5f *
                             e[v] / res);
                vs.push_back(cellFace(b, res, v, r.rawHi[v]) + 0.5f *
                             e[v] / res);
            }
            for (float c : coords) {
                for (float vc : vs) {
                    for (float sign : {1.0f, -1.0f}) {
                        Vec3 o = b.center();
                        o[a] = c;
                        o[v] = vc;
                        o[u] = sign > 0 ? b.lo[u] - 0.5f : b.hi[u] + 0.5f;
                        rays.push_back({o, axes[u] * sign});
                        for (float tilt : {1e-3f, -1e-3f}) {
                            Vec3 d = axes[u] * sign;
                            d[a] = tilt;
                            rays.push_back({o, d.normalized()});
                        }
                    }
                }
            }
        }
    }
    return rays;
}

/**
 * Compare both marches with their exhaustive oracles on @p scene's
 * grid at @p occupancyRes with threshold @p sigma, over orbit,
 * hand-built and grazing rays, and check both cull boxes against the
 * cells they bound.
 */
MarchDiff
compareScene(const Scene &scene, int occupancyRes, int maxSamples = 256,
             float sigma = 0.5f, CellRanges *ranges = nullptr)
{
    OccupancyGrid occ(scene.field, occupancyRes, sigma);
    const CellRanges r = cellRanges(occ);
    expectBoxBoundsCells(occ, occ.occupiedBox(), r.rawLo, r.rawHi, "raw");
    expectBoxBoundsCells(occ, occ.dilatedBox(), r.dilLo, r.dilHi,
                         "dilated");
    SamplerConfig cfg;
    cfg.maxSamplesPerRay = maxSamples;
    RaySampler sampler(scene.field.bounds(), &occ, cfg);
    MarchDiff diff;
    diff.gridOccupied = r.rawCells > 0;
    for (const Ray &ray : orbitViewRays(scene, 64))
        compareRay(sampler, occ, scene.field.bounds(), ray, diff);
    for (const Ray &ray : handBuiltRays(scene.field.bounds(), occupancyRes))
        compareRay(sampler, occ, scene.field.bounds(), ray, diff);
    for (const Ray &ray : grazingRays(occ, r))
        compareRay(sampler, occ, scene.field.bounds(), ray, diff);
    if (ranges)
        *ranges = r;
    return diff;
}

void
expectIdentical(const MarchDiff &d, const char *what, int res)
{
    SCOPED_TRACE(std::string(what) + " res " + std::to_string(res));
    EXPECT_EQ(d.differingRays, 0u);
    EXPECT_EQ(d.differingSamples, 0u);
    EXPECT_EQ(d.differingVerdicts, 0u);
    // The comparison saw real work: kept samples and both verdicts. (A
    // res-2 grid may bake no occupied cell centre: then every march
    // skips to its end.)
    if (!d.gridOccupied)
        return;
    EXPECT_GT(d.samples, 0u);
    EXPECT_GT(d.hits, 0u);
    EXPECT_LT(d.hits, d.rays);
}

TEST(EmptySpaceSkipTest, SamplerAndVoidTestMatchExhaustiveMarch)
{
    Scene tiny = test::tinyScene();
    Scene lego = makeScene("lego");
    for (int res : {2, 5, 32, 64}) {
        expectIdentical(compareScene(tiny, res), "tiny", res);
        expectIdentical(compareScene(lego, res), "lego", res);
    }
}

TEST(EmptySpaceSkipTest, CappedRaysMatchExhaustiveMarch)
{
    // maxSamplesPerRay ends the march mid-box: the skip must stop on
    // the same sample the exhaustive march stops on.
    Scene lego = makeScene("lego");
    for (int cap : {1, 4, 9})
        expectIdentical(compareScene(lego, 64, cap), "lego capped", cap);
}

TEST(EmptySpaceSkipTest, SamplerWithoutOccupancyMatchesExhaustiveMarch)
{
    Scene s = test::tinyScene();
    RaySampler sampler(s.field.bounds(), nullptr, SamplerConfig{});
    std::uint64_t bad = 0;
    for (const Ray &ray : handBuiltRays(s.field.bounds(), 8)) {
        std::vector<RaySample> got, want;
        sampler.sample(ray, got);
        exhaustiveSample(s.field.bounds(), nullptr, sampler.config(),
                         sampler.stepSize(), ray, want);
        bad += got.size() != want.size();
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
            bad += !sameBits(got[i].t, want[i].t) ||
                   !sameBits(got[i].pos, want[i].pos);
    }
    EXPECT_EQ(bad, 0u);
}

TEST(EmptySpaceSkipTest, WarpHoleVerdictsMatchExhaustiveMarch)
{
    // Every hole pixel of one warp: disoccluded holes are exactly the
    // pixels whose ray hits raw occupancy under the exhaustive march.
    auto model = test::tinyModel();
    std::vector<Pose> orbit = test::tinyOrbit(20, 60.0f);
    Camera ref = test::tinyCamera(64, &orbit.front());
    Camera tgt = test::tinyCamera(64, &orbit.back());
    RenderResult r = model->render(ref);
    const OccupancyGrid &occ = model->occupancy();
    WarpOutput w = warpFrame(r.image, r.depth, ref, tgt, &occ,
                             model->scene().background);
    std::vector<char> needs(64 * 64, 0);
    for (std::uint32_t id : w.needRender)
        needs[id] = 1;
    std::uint64_t holes = 0, bad = 0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            // Holes keep infinite depth: void ones are set to it and
            // disoccluded ones await the sparse render.
            if (std::isfinite(w.depth.at(x, y)))
                continue;
            ++holes;
            Ray ray = tgt.generateRay(x, y);
            bool want = exhaustiveHitsOccupied(occ, ray);
            bad += want != occ.rayHitsOccupied(ray);
            bad += want != static_cast<bool>(needs[y * 64 + x]);
        }
    }
    EXPECT_EQ(holes, w.stats.voidHoles + w.stats.disoccluded);
    EXPECT_GT(w.stats.voidHoles, 0u);
    EXPECT_GT(w.stats.disoccluded, 0u);
    EXPECT_EQ(bad, 0u);
}

TEST(EmptySpaceSkipTest, DistanceFieldEncodesRawAndDilatedOccupancy)
{
    // At every cell: distance 0 is the raw occupancy baked at the cell
    // centre, occupiedNormalized() is the 27-neighbour dilation of it
    // (clipped at the grid boundary), and the distance is the
    // Chebyshev distance: 0 on raw cells, else one more than the
    // smallest neighbour's (capped at 255).
    Scene s = test::tinyScene();
    for (int res : {2, 3, 32}) {
        SCOPED_TRACE("res " + std::to_string(res));
        OccupancyGrid occ(s.field, res, 0.5f);
        const Aabb &b = occ.bounds();
        Vec3 e = b.extent();
        auto at = [res](int x, int y, int z) {
            return (static_cast<std::size_t>(z) * res + y) * res + x;
        };
        std::vector<char> raw(static_cast<std::size_t>(res) * res * res);
        std::vector<int> dist(raw.size());
        for (int z = 0; z < res; ++z) {
            for (int y = 0; y < res; ++y) {
                for (int x = 0; x < res; ++x) {
                    Vec3 p{b.lo.x + e.x * (x + 0.5f) / res,
                           b.lo.y + e.y * (y + 0.5f) / res,
                           b.lo.z + e.z * (z + 0.5f) / res};
                    raw[at(x, y, z)] = s.field.density(p) > 0.5f;
                    Vec3 pn{(x + 0.5f) / res, (y + 0.5f) / res,
                            (z + 0.5f) / res};
                    dist[at(x, y, z)] = occ.distanceNormalized(pn);
                }
            }
        }
        int badRaw = 0, badDilated = 0, badDist = 0;
        for (int z = 0; z < res; ++z) {
            for (int y = 0; y < res; ++y) {
                for (int x = 0; x < res; ++x) {
                    bool dilated = false;
                    int nearest = 255;
                    for (int dz = -1; dz <= 1; ++dz) {
                        for (int dy = -1; dy <= 1; ++dy) {
                            for (int dx = -1; dx <= 1; ++dx) {
                                int nx = x + dx, ny = y + dy, nz = z + dz;
                                if (nx < 0 || ny < 0 || nz < 0 ||
                                    nx >= res || ny >= res || nz >= res)
                                    continue;
                                dilated |= raw[at(nx, ny, nz)] != 0;
                                if (dx || dy || dz)
                                    nearest = std::min(
                                        nearest, dist[at(nx, ny, nz)]);
                            }
                        }
                    }
                    std::size_t i = at(x, y, z);
                    Vec3 pn{(x + 0.5f) / res, (y + 0.5f) / res,
                            (z + 0.5f) / res};
                    badRaw += (dist[i] == 0) != (raw[i] != 0);
                    badDilated += occ.occupiedNormalized(pn) != dilated;
                    int want = raw[i] ? 0 : std::min(255, nearest + 1);
                    badDist += dist[i] != want;
                }
            }
        }
        EXPECT_EQ(badRaw, 0);
        EXPECT_EQ(badDilated, 0);
        EXPECT_EQ(badDist, 0);
    }
}

TEST(EmptySpaceSkipTest, OccupancyFractionPinned)
{
    // Dilated-cell counts of the default 64^3 grid, as baked by the
    // two-array (raw + dilated) grid the distance field replaced.
    const std::size_t cells = 64 * 64 * 64;
    OccupancyGrid lego(makeScene("lego").field, 64, 0.5f);
    OccupancyGrid ship(makeScene("ship").field, 64, 0.5f);
    EXPECT_EQ(lego.occupancyFraction(), 19352.0 / cells);
    EXPECT_EQ(ship.occupancyFraction(), 41868.0 / cells);
}

/** A scene holding one box primitive with half-extent @p half. */
Scene
boxScene(const Vec3 &center, const Vec3 &half)
{
    Scene s;
    s.name = "box";
    Primitive box;
    box.shape = PrimShape::Box;
    box.center = center;
    box.size = half;
    s.field.addPrimitive(box);
    return s;
}

TEST(EmptySpaceSkipTest, EmptyGridCullsEveryRay)
{
    // No cell reaches the threshold: both boxes are empty, every ray
    // is culled, and the exhaustive marches find nothing either.
    Scene tiny = test::tinyScene();
    for (int res : {2, 8, 32}) {
        MarchDiff d = compareScene(tiny, res, 256, 1e30f);
        expectIdentical(d, "empty", res);
        EXPECT_EQ(d.samples, 0u);
        EXPECT_EQ(d.hits, 0u);
    }
}

TEST(EmptySpaceSkipTest, SingleOccupiedCellMatchesExhaustiveMarch)
{
    // A box much smaller than a cell, centred on cell (5, 2, 3) of an
    // 8^3 grid over [-1, 1]^3 (cells 0.25 wide): only that cell's
    // centre is inside it.
    Scene s = boxScene({0.375f, -0.375f, -0.125f}, {0.05f, 0.05f, 0.05f});
    CellRanges r;
    MarchDiff d = compareScene(s, 8, 256, 0.5f, &r);
    expectIdentical(d, "single cell", 8);
    EXPECT_EQ(r.rawCells, 1);
    const int want[3] = {5, 2, 3};
    for (int a = 0; a < 3; ++a) {
        EXPECT_EQ(r.rawLo[a], want[a]);
        EXPECT_EQ(r.rawHi[a], want[a]);
    }
}

TEST(EmptySpaceSkipTest, OccupancyTouchingEachGridFaceMatchesExhaustiveMarch)
{
    // A slab whose cells reach one face of the grid, for each of the
    // six faces: that face's boxes reach past the grid.
    for (int a = 0; a < 3; ++a) {
        for (float side : {-1.0f, 1.0f}) {
            SCOPED_TRACE("axis " + std::to_string(a) + " side " +
                         std::to_string(side));
            Vec3 center{0.1f, -0.2f, 0.15f};
            Vec3 half{0.3f, 0.25f, 0.35f};
            center[a] = side;
            half[a] = 0.15f;
            Scene s = boxScene(center, half);
            for (int res : {8, 21}) {
                CellRanges r;
                MarchDiff d = compareScene(s, res, 256, 0.5f, &r);
                expectIdentical(d, "face", res);
                // That face only: the cells stop short of the other.
                if (side < 0) {
                    EXPECT_EQ(r.rawLo[a], 0);
                    EXPECT_LT(r.rawHi[a], res - 1);
                } else {
                    EXPECT_GT(r.rawLo[a], 0);
                    EXPECT_EQ(r.rawHi[a], res - 1);
                }
            }
        }
    }
}

TEST(EmptySpaceSkipTest, RayWithoutDirectionIsCulled)
{
    // A zero, NaN or infinite direction from inside the lego grid: the
    // void test must say "misses" and the sampler must place nothing,
    // rather than march a span that never ends or index cells from NaN
    // positions. The slab test is asserted first, so a regression fails
    // here instead of hanging in the march.
    Scene lego = makeScene("lego");
    const Aabb &b = lego.field.bounds();
    OccupancyGrid occ(lego.field, 64, 0.5f);
    RaySampler sampler(b, &occ, SamplerConfig{});
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const Vec3 dirs[] = {{0.0f, 0.0f, 0.0f},
                         {nan, nan, nan},
                         {0.0f, 0.0f, nan},
                         {inf, 0.0f, 0.0f}};
    // The grid's centre and points a quarter of the way in from two
    // opposite corners, each in an empty or an occupied cell.
    const Vec3 origins[] = {b.center(),
                            b.lo + b.extent() * 0.25f,
                            b.hi - b.extent() * 0.25f};
    for (const Vec3 &o : origins) {
        for (const Vec3 &d : dirs) {
            Ray ray{o, d};
            ASSERT_FALSE(b.intersect(ray).has_value());
            EXPECT_FALSE(occ.rayHitsOccupied(ray));
            std::vector<RaySample> out;
            EXPECT_EQ(sampler.sample(ray, out), 0);
            EXPECT_TRUE(out.empty());
        }
    }
}

TEST(RendererTest, QualityAgainstGroundTruth)
{
    auto model = test::tinyModel(GridLayout::Linear, 64);
    Camera cam = test::tinyCamera(48);
    RenderResult nerf = model->render(cam);
    RenderResult gt = renderGroundTruth(model->scene(), cam, 192);
    EXPECT_GT(psnr(nerf.image, gt.image), 24.0);
}

TEST(RendererTest, FinerGridHigherQuality)
{
    Camera cam = test::tinyCamera(48);
    RenderResult gt =
        renderGroundTruth(test::tinyScene(), cam, 192);
    auto coarse = test::tinyModel(GridLayout::Linear, 24);
    auto fine = test::tinyModel(GridLayout::Linear, 64);
    EXPECT_GT(psnr(fine->render(cam).image, gt.image),
              psnr(coarse->render(cam).image, gt.image));
}

TEST(RendererTest, WorkCountersPopulated)
{
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(32);
    RenderResult r = model->render(cam);
    EXPECT_EQ(r.work.rays, 32u * 32);
    EXPECT_GT(r.work.samples, 0u);
    EXPECT_EQ(r.work.vertexFetches, r.work.samples * 8);
    EXPECT_GT(r.work.mlpMacs, 0u);
    EXPECT_EQ(r.work.mlpMacs, r.work.samples * 4096);
}

TEST(RendererTest, DepthFiniteOnObjectInfiniteOnBackground)
{
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(48);
    RenderResult r = model->render(cam);
    // Center pixel hits the sphere.
    EXPECT_TRUE(std::isfinite(r.depth.at(24, 24)));
    // Top corner is background.
    EXPECT_FALSE(std::isfinite(r.depth.at(1, 1)));
    // Depth at center approximates distance to sphere front surface
    // (camera at distance ~2.55 from origin; sphere radius 0.45).
    EXPECT_NEAR(r.depth.at(24, 24), 2.55f - 0.45f, 0.2f);
}

TEST(RendererTest, SparsePixelsMatchFullRender)
{
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(32);
    RenderResult full = model->render(cam);

    std::vector<std::uint32_t> ids = {0, 17, 512, 1023,
                                      16 * 32 + 16};
    Image img(32, 32);
    DepthMap depth(32, 32);
    model->renderPixels(cam, ids, img, depth);
    for (std::uint32_t id : ids) {
        int x = id % 32, y = id / 32;
        EXPECT_NEAR(img.at(x, y).x, full.image.at(x, y).x, 1e-5f);
        EXPECT_NEAR(img.at(x, y).y, full.image.at(x, y).y, 1e-5f);
    }
}

TEST(RendererTest, TraceWorkloadGathersAllMarchedSamples)
{
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(24);
    RenderResult quality = model->render(cam);
    StageWork workload = model->traceWorkload(cam);
    // Workload mode marches every in-box sample: strictly more gathers
    // than the occupancy-skipped, early-terminated quality render.
    EXPECT_GT(workload.samples, quality.work.samples);
    // But MLP work only covers occupied samples.
    EXPECT_LT(workload.mlpMacs, workload.samples * 4096);
    EXPECT_GT(workload.mlpMacs, 0u);
}

TEST(RendererTest, GroundTruthConvergesWithSteps)
{
    Scene s = test::tinyScene();
    Camera cam = test::tinyCamera(24);
    RenderResult coarse = renderGroundTruth(s, cam, 96);
    RenderResult fine = renderGroundTruth(s, cam, 384);
    RenderResult finer = renderGroundTruth(s, cam, 512);
    // Finer marching converges: fine vs finer closer than coarse vs finer.
    EXPECT_GT(psnr(fine.image, finer.image),
              psnr(coarse.image, finer.image));
}

TEST(RendererTest, ModelBytesIncludeDecoder)
{
    auto model = test::tinyModel();
    EXPECT_GT(model->modelBytes(), model->encoding().modelBytes());
}

} // namespace
} // namespace cicero
