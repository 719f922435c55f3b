#include "cicero/pose_extrapolation.hh"

#include <algorithm>
#include <cmath>

namespace cicero {

namespace {

/**
 * Decompose a unit quaternion into axis + angle on the shortest arc.
 * Returns angle 0 and a zero axis for (numerically) identity rotations.
 */
void
toAxisAngle(Quat q, Vec3 &axis, float &angle)
{
    // Double cover: q and -q are the same rotation; force w >= 0 so the
    // extracted angle is the short way around.
    if (q.w < 0.0f) {
        q.w = -q.w;
        q.x = -q.x;
        q.y = -q.y;
        q.z = -q.z;
    }
    float s = std::sqrt(q.x * q.x + q.y * q.y + q.z * q.z);
    if (s < 1e-8f) {
        axis = {0.0f, 0.0f, 0.0f};
        angle = 0.0f;
        return;
    }
    axis = Vec3{q.x / s, q.y / s, q.z / s};
    angle = 2.0f * std::atan2(s, q.w);
}

} // namespace

PoseVelocity
estimatePoseVelocity(const Pose &prev, const Pose &curr, float dtSeconds)
{
    float dt = std::max(dtSeconds, kMinPoseDtSeconds);

    PoseVelocity vel;
    vel.linear = (curr.pos - prev.pos) / dt;

    // Relative rotation carrying prev to curr, in the world frame.
    Quat qPrev = Quat::fromMatrix(prev.rot);
    Quat qCurr = Quat::fromMatrix(curr.rot);
    Quat rel = (qCurr * qPrev.conjugate()).normalized();
    float angle = 0.0f;
    toAxisAngle(rel, vel.axis, angle);
    vel.angularRadPerS = angle / dt;
    return vel;
}

Pose
extrapolatePose(const Pose &curr, const PoseVelocity &vel,
                float aheadSeconds)
{
    Pose out;
    out.pos = curr.pos + vel.linear * aheadSeconds;
    float angle = vel.angularRadPerS * aheadSeconds;
    if (std::fabs(angle) < 1e-8f) {
        out.rot = curr.rot;
        return out;
    }
    Quat qCurr = Quat::fromMatrix(curr.rot);
    Quat spin = Quat::fromAxisAngle(vel.axis, angle);
    out.rot = (spin * qCurr).normalized().toMatrix();
    return out;
}

Pose
extrapolateReferencePose(const Pose &prev, const Pose &curr,
                         float dtSeconds, int window)
{
    // Eq. 5: velocity from the last two rendered poses; Eq. 6 projects
    // it t_r = (kReferenceLeadFrames + N/2) Δt ahead, near the window
    // center.
    float dt = std::max(dtSeconds, kMinPoseDtSeconds);
    PoseVelocity vel = estimatePoseVelocity(prev, curr, dt);
    float framesAhead = kReferenceLeadFrames + 0.5f * window;
    return extrapolatePose(curr, vel, framesAhead * dt);
}

} // namespace cicero
