/**
 * @file
 * Reference-pose extrapolation (Sec. III-C, Eqs. 5-6).
 *
 * SPARW's key scheduling idea: reference frames need not sit on the
 * camera trajectory — they only have to be *near* it. Their poses are
 * extrapolated from already-known target poses (velocity at the latest
 * pose, projected half a window ahead), which breaks the
 * reference-to-target dependency and lets reference rendering overlap
 * target rendering (Fig. 11b).
 *
 * Both SPARW drivers, the offline run() and the real-time
 * runRealtime(), resolve every window's reference through
 * extrapolateReferencePose; runRealtime renders the next window's
 * reference at that predicted pose while the current window is warped.
 * estimatePoseVelocity/extrapolatePose are its two steps (Eq. 5, then
 * Eq. 6) and never clamp the horizon.
 */

#ifndef CICERO_CICERO_POSE_EXTRAPOLATION_HH
#define CICERO_CICERO_POSE_EXTRAPOLATION_HH

#include "common/math.hh"

namespace cicero {

/**
 * Smallest frame interval estimatePoseVelocity will divide by. Pose
 * deltas over intervals shorter than this (duplicate timestamps,
 * clock glitches) would explode the velocity estimate; the dt is
 * clamped up to this floor instead.
 */
constexpr float kMinPoseDtSeconds = 1e-4f;

/**
 * First-order rigid-body velocity estimated from two poses: linear
 * velocity plus an axis/angular-rate decomposition of the relative
 * rotation (Eq. 5). `axis` is unit length, or zero when the two poses
 * share an orientation (angularRadPerS is then zero too).
 */
struct PoseVelocity
{
    Vec3 linear;                 //!< m/s
    Vec3 axis;                   //!< unit rotation axis (world frame)
    float angularRadPerS = 0.0f; //!< signed rate about `axis`
};

/**
 * Estimate the velocity carrying @p prev to @p curr over @p dtSeconds.
 * dtSeconds is clamped to kMinPoseDtSeconds so degenerate intervals
 * cannot produce NaN/inf velocities.
 */
PoseVelocity estimatePoseVelocity(const Pose &prev, const Pose &curr,
                                  float dtSeconds);

/**
 * Project @p curr forward by @p aheadSeconds at velocity @p vel
 * (Eq. 6: constant linear velocity, constant-rate rotation about the
 * estimated axis).
 */
Pose extrapolatePose(const Pose &curr, const PoseVelocity &vel,
                     float aheadSeconds);

/**
 * Frames between the latest known pose and the start of the next
 * window: the window a reference serves begins one frame after the
 * two poses it is extrapolated from.
 */
constexpr int kReferenceLeadFrames = 1;

/**
 * Extrapolate the reference pose for the *next* warping window.
 *
 * @param prev       pose T_{k-1} (older of the two known poses)
 * @param curr       pose T_k (latest known pose)
 * @param dtSeconds  frame interval Δt
 * @param window     N, the number of target frames per reference
 *
 * Position follows Eq. 6: R = T_k + v * t_r with v = (T_k - T_{k-1})/Δt
 * and t_r = (kReferenceLeadFrames + N/2) * Δt, placing the reference
 * near the center of its window. Orientation extrapolates the relative
 * rotation at its estimated angular rate. The horizon is not clamped —
 * large windows legitimately look many frames ahead.
 */
Pose extrapolateReferencePose(const Pose &prev, const Pose &curr,
                              float dtSeconds, int window);

} // namespace cicero

#endif // CICERO_CICERO_POSE_EXTRAPOLATION_HH
