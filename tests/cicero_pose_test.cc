/**
 * @file
 * Tests for reference-pose extrapolation (Eqs. 5-6).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cicero/pose_extrapolation.hh"
#include "test_util.hh"

namespace cicero {
namespace {

TEST(PoseExtrapolationTest, LinearMotionExtrapolatesPosition)
{
    Pose prev, curr;
    prev.pos = {0.0f, 0.0f, 0.0f};
    curr.pos = {0.1f, 0.0f, 0.0f};
    // Window 4, lead 1: t_r = (1 + 2) frames ahead of curr.
    Pose ref = extrapolateReferencePose(prev, curr, 1.0f / 30.0f, 4);
    EXPECT_NEAR(ref.pos.x, 0.1f + 0.1f * 3.0f, 1e-5f);
    EXPECT_NEAR(ref.pos.y, 0.0f, 1e-6f);
}

TEST(PoseExtrapolationTest, StationaryCameraStays)
{
    Pose p;
    p.pos = {1.0f, 2.0f, 3.0f};
    Pose ref = extrapolateReferencePose(p, p, 1.0f / 30.0f, 16);
    EXPECT_NEAR(distance(ref.pos, p.pos), 0.0f, 1e-5f);
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_NEAR(ref.rot.m[i], p.rot.m[i], 1e-4f);
}

TEST(PoseExtrapolationTest, RotationExtrapolates)
{
    Pose prev, curr;
    prev.rot = Mat3::identity();
    curr.rot = Mat3::rotationY(deg2rad(2.0f));
    Pose ref = extrapolateReferencePose(prev, curr, 1.0f / 30.0f, 4);
    // 3 frames ahead at 2 deg/frame => 2 + 6 = 8 degrees total.
    Mat3 expect = Mat3::rotationY(deg2rad(8.0f));
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_NEAR(ref.rot.m[i], expect.m[i], 1e-3f);
}

TEST(PoseExtrapolationTest, WindowCentersReference)
{
    // With larger windows the reference lands farther ahead.
    Pose prev, curr;
    curr.pos = {0.05f, 0.0f, 0.0f};
    Pose small = extrapolateReferencePose(prev, curr, 1.0f, 4);
    Pose large = extrapolateReferencePose(prev, curr, 1.0f, 16);
    EXPECT_GT(large.pos.x, small.pos.x);
}

TEST(PoseExtrapolationTest, TracksOrbitTrajectoryClosely)
{
    // The extrapolated reference should be near the actual future
    // mid-window pose on a smooth orbit (the property Fig. 10 needs).
    auto traj = test::tinyOrbit(40, 20.0f);
    const int window = 6;
    const int k = 10; // window starts here
    Pose ref = extrapolateReferencePose(traj[k - 2], traj[k - 1],
                                        1.0f / 30.0f, window);
    Pose actualMid = traj[k + window / 2];
    // Within a few percent of the orbit radius.
    EXPECT_LT(distance(ref.pos, actualMid.pos), 0.08f);
    EXPECT_LT(rad2deg(angleBetween(ref.forward(), actualMid.forward())),
              2.0f);
}

TEST(PoseExtrapolationTest, ExtrapolationBeatsHoldingLastPose)
{
    auto traj = test::tinyOrbit(40, 30.0f);
    const int window = 8;
    const int k = 12;
    Pose ref = extrapolateReferencePose(traj[k - 2], traj[k - 1],
                                        1.0f / 30.0f, window);
    Pose actualMid = traj[k + window / 2];
    // Compared to just reusing the last known pose (the on-trajectory
    // strategy's best immediate option).
    EXPECT_LT(distance(ref.pos, actualMid.pos),
              distance(traj[k - 1].pos, actualMid.pos));
}

TEST(PoseExtrapolationTest, VelocityEstimateRecoversLinearAndAngular)
{
    Pose prev, curr;
    const float dt = 1.0f / 30.0f;
    prev.pos = {1.0f, 2.0f, 3.0f};
    curr.pos = prev.pos + Vec3{0.3f, -0.06f, 0.09f} * dt;
    prev.rot = Mat3::identity();
    curr.rot = Mat3::rotationY(deg2rad(3.0f));

    PoseVelocity vel = estimatePoseVelocity(prev, curr, dt);
    EXPECT_NEAR(vel.linear.x, 0.3f, 1e-4f);
    EXPECT_NEAR(vel.linear.y, -0.06f, 1e-4f);
    EXPECT_NEAR(vel.linear.z, 0.09f, 1e-4f);
    // Rotation about +Y at 3 degrees per frame.
    EXPECT_NEAR(std::abs(vel.axis.y), 1.0f, 1e-4f);
    EXPECT_NEAR(vel.axis.y * vel.angularRadPerS,
                deg2rad(3.0f) / dt, 1e-3f);

    // Re-applying the velocity over dt must land back on curr.
    Pose again = extrapolatePose(prev, vel, dt);
    EXPECT_NEAR(distance(again.pos, curr.pos), 0.0f, 1e-5f);
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_NEAR(again.rot.m[i], curr.rot.m[i], 1e-4f);
}

TEST(PoseExtrapolationTest, DegenerateDtIsClampedAndFinite)
{
    // A zero (or negative) frame interval must not produce NaN or inf:
    // the divisor is clamped to kMinPoseDtSeconds.
    Pose prev, curr;
    prev.pos = {0.0f, 0.0f, 0.0f};
    curr.pos = {0.01f, 0.0f, 0.0f};
    curr.rot = Mat3::rotationY(deg2rad(1.0f));

    for (float dt : {0.0f, -1.0f, 1e-9f}) {
        PoseVelocity vel = estimatePoseVelocity(prev, curr, dt);
        EXPECT_TRUE(std::isfinite(vel.linear.x)) << "dt " << dt;
        EXPECT_TRUE(std::isfinite(vel.angularRadPerS)) << "dt " << dt;
        // Clamping means the velocity equals delta / kMinPoseDtSeconds.
        EXPECT_NEAR(vel.linear.x, 0.01f / kMinPoseDtSeconds,
                    0.01f / kMinPoseDtSeconds * 1e-3f);
        Pose ahead = extrapolatePose(curr, vel, 0.5f);
        EXPECT_TRUE(std::isfinite(ahead.pos.x));
        for (std::size_t i = 0; i < 9; ++i)
            EXPECT_TRUE(std::isfinite(ahead.rot.m[i]));
    }
}

TEST(PoseExtrapolationTest, OrbitErrorBoundedAcrossAllWindows)
{
    // TracksOrbitTrajectoryClosely spot-checks one window; the
    // real-time driver leans on the bound holding for *every* window
    // of a smooth orbit, so walk them all and bound the worst case.
    auto traj = test::tinyOrbit(60, 20.0f);
    const int window = 6;
    float worstPos = 0.0f;
    float worstAngleDeg = 0.0f;
    for (int k = 2; k + window / 2 < static_cast<int>(traj.size());
         k += window) {
        Pose ref = extrapolateReferencePose(traj[k - 2], traj[k - 1],
                                            1.0f / 30.0f, window);
        Pose actualMid = traj[k + window / 2];
        worstPos = std::max(worstPos, distance(ref.pos, actualMid.pos));
        worstAngleDeg = std::max(
            worstAngleDeg, rad2deg(angleBetween(ref.forward(),
                                                actualMid.forward())));
    }
    EXPECT_LT(worstPos, 0.1f);
    EXPECT_LT(worstAngleDeg, 2.5f);
}

TEST(PoseExtrapolationTest, HeadJitterErrorStaysBounded)
{
    // Hand-held jitter breaks the constant-velocity assumption frame
    // to frame; prediction quality degrades but must stay bounded (the
    // warp can absorb small reference error — wild extrapolations
    // would torpedo the overlap fraction). Fixed seed: deterministic.
    auto traj = test::tinyOrbit(60, 20.0f);
    JitterParams jitter;
    jitter.posSigma = 0.004f;
    jitter.rotSigmaDeg = 0.25f;
    jitter.seed = 77;
    applyJitter(traj, jitter);

    const int window = 6;
    float worstPos = 0.0f;
    float worstAngleDeg = 0.0f;
    for (int k = 2; k + window / 2 < static_cast<int>(traj.size());
         k += window) {
        Pose ref = extrapolateReferencePose(traj[k - 2], traj[k - 1],
                                            1.0f / 30.0f, window);
        Pose actualMid = traj[k + window / 2];
        worstPos = std::max(worstPos, distance(ref.pos, actualMid.pos));
        worstAngleDeg = std::max(
            worstAngleDeg, rad2deg(angleBetween(ref.forward(),
                                                actualMid.forward())));
    }
    // Noise amplified by the (kReferenceLeadFrames + N/2) horizon: the
    // bound is looser than the smooth orbit's but still a small
    // fraction of the 2.5-unit orbit radius.
    EXPECT_LT(worstPos, 0.25f);
    EXPECT_LT(worstAngleDeg, 10.0f);
}

} // namespace
} // namespace cicero
