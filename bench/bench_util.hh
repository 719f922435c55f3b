/**
 * @file
 * Helpers shared by the bench programs: a banner, and the standard
 * scene orbit, Full-preset model and quality camera at bench scale.
 */

#ifndef CICERO_BENCH_BENCH_UTIL_HH
#define CICERO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "cicero/probe.hh"
#include "cicero/sparw.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"

namespace cicero::bench {

/** Print a bench banner. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
}

/** Build the standard 30 FPS orbit for a scene. */
inline std::vector<Pose>
sceneOrbit(const Scene &scene, int frames, float degPerSecond = 20.0f)
{
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    orbit.degPerSecond = degPerSecond;
    return orbitTrajectory(orbit, frames);
}

/** Build a Full-preset model for (kind, scene). */
inline std::unique_ptr<NerfModel>
fullModel(ModelKind kind, const Scene &scene,
          GridLayout layout = GridLayout::MVoxelBlocked)
{
    ModelBuildOptions opts;
    opts.preset = ModelPreset::Full;
    opts.gridLayout = layout;
    return buildModel(kind, scene, opts);
}

/** Camera at bench quality resolution. */
inline Camera
qualityCamera(const Scene &scene, const Pose &pose, int res = 72)
{
    return Camera::fromFov(res, res, scene.fovYDeg, pose);
}

} // namespace cicero::bench

#endif // CICERO_BENCH_BENCH_UTIL_HH
