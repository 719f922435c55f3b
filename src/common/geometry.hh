/**
 * @file
 * Rays, axis-aligned bounding boxes and the pinhole camera model.
 */

#ifndef CICERO_COMMON_GEOMETRY_HH
#define CICERO_COMMON_GEOMETRY_HH

#include <optional>
#include <utility>

#include "common/math.hh"

namespace cicero {

/** A parametric ray o + t * d. */
struct Ray
{
    Vec3 origin;
    Vec3 dir; //!< not required to be unit length

    Vec3 at(float t) const { return origin + dir * t; }
};

/** Axis-aligned bounding box. */
struct Aabb
{
    Vec3 lo{ 1e30f,  1e30f,  1e30f};
    Vec3 hi{-1e30f, -1e30f, -1e30f};

    Aabb() = default;
    Aabb(const Vec3 &lo_, const Vec3 &hi_) : lo(lo_), hi(hi_) {}

    bool
    valid() const
    {
        return lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z;
    }

    Vec3 extent() const { return hi - lo; }
    Vec3 center() const { return (lo + hi) * 0.5f; }

    bool
    contains(const Vec3 &p) const
    {
        return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
               p.z >= lo.z && p.z <= hi.z;
    }

    void
    expand(const Vec3 &p)
    {
        lo = Vec3::min(lo, p);
        hi = Vec3::max(hi, p);
    }

    /**
     * Slab-test the ray against the box.
     *
     * @return the entry/exit parameters (tmin, tmax), clipped to
     * [tLo, tHi], or nullopt if the ray misses. A ray with a
     * non-finite direction component, or with every component below
     * 1e-12 in magnitude, goes nowhere and misses.
     */
    std::optional<std::pair<float, float>>
    intersect(const Ray &ray, float tLo = 0.0f, float tHi = 1e30f) const
    {
        bool moves = false;
        for (int a = 0; a < 3; ++a) {
            if (!std::isfinite(ray.dir[a]))
                return std::nullopt;
            moves = moves || std::fabs(ray.dir[a]) >= 1e-12f;
        }
        if (!moves)
            return std::nullopt;
        float t0 = tLo;
        float t1 = tHi;
        for (int a = 0; a < 3; ++a) {
            float d = ray.dir[a];
            float o = ray.origin[a];
            if (std::fabs(d) < 1e-12f) {
                if (o < lo[a] || o > hi[a])
                    return std::nullopt;
                continue;
            }
            float inv = 1.0f / d;
            float tn = (lo[a] - o) * inv;
            float tf = (hi[a] - o) * inv;
            if (tn > tf)
                std::swap(tn, tf);
            t0 = std::fmax(t0, tn);
            t1 = std::fmin(t1, tf);
            if (t0 > t1)
                return std::nullopt;
        }
        return std::make_pair(t0, t1);
    }

    /** Normalize @p p into [0,1]^3 coordinates of this box. */
    Vec3
    normalize(const Vec3 &p) const
    {
        Vec3 e = extent();
        return {(p.x - lo.x) / e.x, (p.y - lo.y) / e.y, (p.z - lo.z) / e.z};
    }
};

/**
 * Pinhole camera: intrinsics (focal length in pixels, principal point)
 * plus an extrinsic Pose. Matches the intrinsic matrix used by Eqs. (1)
 * and (3) of the paper.
 */
struct Camera
{
    int width = 0;      //!< image width in pixels
    int height = 0;     //!< image height in pixels
    float focal = 0.0f; //!< focal length in pixels
    float cx = 0.0f;    //!< principal point x
    float cy = 0.0f;    //!< principal point y
    Pose pose;          //!< camera-to-world pose

    /** Build a camera from a vertical field of view in degrees. */
    static Camera
    fromFov(int w, int h, float fovYDeg, const Pose &pose = Pose{})
    {
        Camera c;
        c.width = w;
        c.height = h;
        c.focal = 0.5f * h / std::tan(0.5f * deg2rad(fovYDeg));
        c.cx = 0.5f * w;
        c.cy = 0.5f * h;
        c.pose = pose;
        return c;
    }

    /**
     * Generate the world-space ray through the center of pixel
     * (@p px, @p py). Camera looks down -Z; image y grows downward.
     */
    Ray
    generateRay(int px, int py) const
    {
        float x = (px + 0.5f - cx) / focal;
        float y = -(py + 0.5f - cy) / focal;
        Vec3 dirCam{x, y, -1.0f};
        Ray r;
        r.origin = pose.pos;
        r.dir = (pose.rot * dirCam).normalized();
        return r;
    }

    /**
     * Project a camera-space point (-Z in front) to continuous pixel
     * coordinates and depth.
     *
     * @return (px, py, depth) where depth > 0 means in front of camera.
     */
    Vec3
    projectCameraSpace(const Vec3 &pc) const
    {
        float depth = -pc.z;
        if (depth <= 1e-6f)
            return {-1.0f, -1.0f, -1.0f};
        float px = focal * (pc.x / depth) + cx - 0.5f;
        float py = -focal * (pc.y / depth) + cy - 0.5f;
        return {px, py, depth};
    }

    /**
     * Back-project pixel (@p px, @p py) at depth @p depth (distance along
     * the -Z camera axis) to a camera-space point. This is Eq. (1).
     */
    Vec3
    backproject(float px, float py, float depth) const
    {
        float x = (px + 0.5f - cx) / focal * depth;
        float y = -(py + 0.5f - cy) / focal * depth;
        return {x, y, -depth};
    }

    /** World-space position of pixel (@p px, @p py) at depth @p depth. */
    Vec3
    backprojectWorld(float px, float py, float depth) const
    {
        return pose.cameraToWorld(backproject(px, py, depth));
    }
};

} // namespace cicero

#endif // CICERO_COMMON_GEOMETRY_HH
