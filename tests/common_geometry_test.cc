/**
 * @file
 * Unit tests for AABB/ray intersection and the pinhole camera model
 * (the geometry Eqs. 1-3 rely on).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/geometry.hh"

namespace cicero {
namespace {

TEST(AabbTest, ContainsAndExpand)
{
    Aabb box({0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f});
    EXPECT_TRUE(box.contains({0.5f, 0.5f, 0.5f}));
    EXPECT_TRUE(box.contains({0.0f, 0.0f, 0.0f}));
    EXPECT_FALSE(box.contains({1.5f, 0.5f, 0.5f}));
    box.expand({2.0f, -1.0f, 0.5f});
    EXPECT_TRUE(box.contains({1.5f, -0.5f, 0.5f}));
}

TEST(AabbTest, EmptyBoxInvalid)
{
    Aabb box;
    EXPECT_FALSE(box.valid());
    box.expand({1.0f, 2.0f, 3.0f});
    EXPECT_TRUE(box.valid());
}

TEST(AabbTest, RayThroughCenter)
{
    Aabb box({-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f});
    Ray ray{{0.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 1.0f}};
    auto hit = box.intersect(ray);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->first, 4.0f, 1e-5f);
    EXPECT_NEAR(hit->second, 6.0f, 1e-5f);
}

TEST(AabbTest, RayMisses)
{
    Aabb box({-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f});
    Ray ray{{0.0f, 5.0f, -5.0f}, {0.0f, 0.0f, 1.0f}};
    EXPECT_FALSE(box.intersect(ray).has_value());
}

TEST(AabbTest, RayStartingInside)
{
    Aabb box({-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f});
    Ray ray{{0.0f, 0.0f, 0.0f}, {1.0f, 0.0f, 0.0f}};
    auto hit = box.intersect(ray);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->first, 0.0f, 1e-5f);
    EXPECT_NEAR(hit->second, 1.0f, 1e-5f);
}

TEST(AabbTest, AxisParallelRayOutsideSlabs)
{
    Aabb box({-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f});
    Ray ray{{2.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 1.0f}};
    EXPECT_FALSE(box.intersect(ray).has_value());
}

TEST(AabbTest, RayWithoutDirectionMisses)
{
    // A zero, NaN or infinite direction goes nowhere: the slab test must
    // miss even from inside the box, or a march over [t0, t1] would
    // never end.
    Aabb box({-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f});
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const Vec3 dirs[] = {
        {0.0f, 0.0f, 0.0f}, {1e-13f, -1e-13f, 0.0f}, {nan, nan, nan},
        {0.0f, nan, 1.0f},  {inf, 0.0f, 0.0f},       {1.0f, -inf, 0.0f},
    };
    for (const Vec3 &d : dirs) {
        EXPECT_FALSE(box.intersect(Ray{{0.0f, 0.0f, 0.0f}, d}).has_value())
            << d.x << " " << d.y << " " << d.z;
        EXPECT_FALSE(box.intersect(Ray{{0.0f, 0.0f, -5.0f}, d}).has_value())
            << d.x << " " << d.y << " " << d.z;
    }
}

TEST(AabbTest, NormalizeMapsToUnitCube)
{
    Aabb box({-2.0f, 0.0f, 2.0f}, {2.0f, 4.0f, 6.0f});
    Vec3 n = box.normalize({0.0f, 2.0f, 4.0f});
    EXPECT_NEAR(n.x, 0.5f, 1e-6f);
    EXPECT_NEAR(n.y, 0.5f, 1e-6f);
    EXPECT_NEAR(n.z, 0.5f, 1e-6f);
}

TEST(CameraTest, FromFovFocal)
{
    Camera c = Camera::fromFov(800, 800, 90.0f);
    // tan(45 deg) = 1 -> focal = h/2.
    EXPECT_NEAR(c.focal, 400.0f, 1e-2f);
    EXPECT_NEAR(c.cx, 400.0f, 1e-6f);
    EXPECT_NEAR(c.cy, 400.0f, 1e-6f);
}

TEST(CameraTest, CenterPixelRayAlongForward)
{
    Pose p = Pose::lookAt({0.0f, 0.0f, 3.0f}, {0.0f, 0.0f, 0.0f},
                          {0.0f, 1.0f, 0.0f});
    Camera c = Camera::fromFov(101, 101, 60.0f, p);
    Ray r = c.generateRay(50, 50);
    EXPECT_NEAR(r.dir.x, 0.0f, 1e-2f);
    EXPECT_NEAR(r.dir.y, 0.0f, 1e-2f);
    EXPECT_NEAR(r.dir.z, -1.0f, 1e-2f);
}

TEST(CameraTest, ImageYGrowsDownward)
{
    Camera c = Camera::fromFov(100, 100, 60.0f);
    Ray top = c.generateRay(50, 10);
    Ray bottom = c.generateRay(50, 90);
    // Camera looks down -Z with +Y up: top-of-image rays point up.
    EXPECT_GT(top.dir.y, 0.0f);
    EXPECT_LT(bottom.dir.y, 0.0f);
}

/**
 * Property sweep over pixels: backproject(project(p)) round-trips —
 * the consistency of Eq. 1 and Eq. 3.
 */
class ProjectRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(ProjectRoundTrip, BackprojectInvertsProject)
{
    int i = GetParam();
    Camera c = Camera::fromFov(64, 64, 45.0f);
    int px = (i * 7) % 64;
    int py = (i * 13) % 64;
    float depth = 1.0f + 0.37f * i;

    Vec3 pc = c.backproject(static_cast<float>(px),
                            static_cast<float>(py), depth);
    EXPECT_NEAR(pc.z, -depth, 1e-4f);

    Vec3 proj = c.projectCameraSpace(pc);
    EXPECT_NEAR(proj.x, static_cast<float>(px), 1e-2f);
    EXPECT_NEAR(proj.y, static_cast<float>(py), 1e-2f);
    EXPECT_NEAR(proj.z, depth, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProjectRoundTrip,
                         ::testing::Range(0, 20));

TEST(CameraTest, GenerateRayHitsBackprojectedPoint)
{
    Pose p = Pose::lookAt({1.0f, 2.0f, 3.0f}, {0.0f, 0.0f, 0.0f},
                          {0.0f, 1.0f, 0.0f});
    Camera c = Camera::fromFov(64, 64, 50.0f, p);
    // A world point backprojected from pixel (20, 30) at depth 2 must
    // lie on the ray through pixel (20, 30).
    Vec3 w = c.backprojectWorld(20.0f, 30.0f, 2.0f);
    Ray r = c.generateRay(20, 30);
    Vec3 toPoint = (w - r.origin).normalized();
    EXPECT_NEAR(toPoint.dot(r.dir), 1.0f, 1e-3f);
}

TEST(CameraTest, BehindCameraProjectsInvalid)
{
    Camera c = Camera::fromFov(64, 64, 45.0f);
    Vec3 proj = c.projectCameraSpace({0.0f, 0.0f, 1.0f}); // +Z = behind
    EXPECT_LT(proj.z, 0.0f);
}

} // namespace
} // namespace cicero
