/**
 * @file
 * Shared helpers for the test suite: a minimal fast-to-bake scene and
 * small model builders.
 */

#ifndef CICERO_TESTS_TEST_UTIL_HH
#define CICERO_TESTS_TEST_UTIL_HH

#include "nerf/hash_grid.hh"
#include "nerf/models.hh"
#include "scene/scene.hh"
#include "scene/trajectory.hh"

namespace cicero::test {

/** A tiny diffuse scene (one sphere, one ground slab): fast to bake. */
inline Scene
tinyScene()
{
    Scene s;
    s.name = "tiny";
    Primitive sphere;
    sphere.shape = PrimShape::Sphere;
    sphere.center = {0.0f, 0.0f, 0.0f};
    sphere.size = {0.45f, 0.45f, 0.45f};
    sphere.albedo = {0.8f, 0.3f, 0.2f};
    s.field.addPrimitive(sphere);
    Primitive slab;
    slab.shape = PrimShape::Box;
    slab.center = {0.0f, -0.7f, 0.0f};
    slab.size = {0.9f, 0.05f, 0.9f};
    slab.albedo = {0.3f, 0.5f, 0.7f};
    s.field.addPrimitive(slab);
    return s;
}

/**
 * The same geometry as tinyScene() but with a strongly specular sphere,
 * so warping-quality comparisons isolate view dependence.
 */
inline Scene
tinySpecularScene()
{
    Scene s = tinyScene();
    s.name = "tiny-specular";
    Scene t;
    t.name = s.name;
    for (Primitive p : s.field.primitives()) {
        if (p.shape == PrimShape::Sphere) {
            p.specular = 0.8f;
            p.shininess = 12.0f;
        }
        t.field.addPrimitive(p);
    }
    return t;
}

/** A small dense-grid model over the tiny scene. */
inline std::unique_ptr<NerfModel>
tinyModel(GridLayout layout = GridLayout::Linear, int gridRes = 32)
{
    Scene s = tinyScene();
    SamplerConfig sampler;
    sampler.stepsAcross = 64;
    sampler.occupancyRes = 24;
    return std::make_unique<NerfModel>(
        s, std::make_unique<DenseGridEncoding>(gridRes, layout), 4096,
        sampler);
}

/**
 * A small hash-grid model over the tiny scene whose hash table is small
 * enough that the finer levels hash while the coarse ones stay dense.
 */
inline std::unique_ptr<NerfModel>
tinyHashModel()
{
    Scene s = tinyScene();
    HashGridConfig cfg;
    cfg.numLevels = 5;
    cfg.baseRes = 6;
    cfg.perLevelScale = 1.8f;
    cfg.tableSize = 4096; // forces the top levels to hash
    SamplerConfig sampler;
    sampler.stepsAcross = 96;
    sampler.occupancyRes = 32;
    return std::make_unique<NerfModel>(
        s, std::make_unique<HashGridEncoding>(cfg), 8192, sampler);
}

/** A short orbit around the tiny scene. */
inline std::vector<Pose>
tinyOrbit(int frames, float degPerSecond = 20.0f)
{
    OrbitParams p;
    p.radius = 2.5f;
    p.degPerSecond = degPerSecond;
    return orbitTrajectory(p, frames);
}

/** Small camera aimed at the origin. */
inline Camera
tinyCamera(int res = 48, const Pose *pose = nullptr)
{
    Pose p = pose ? *pose
                  : Pose::lookAt({0.0f, 0.5f, 2.5f}, {0.0f, 0.0f, 0.0f},
                                 {0.0f, 1.0f, 0.0f});
    return Camera::fromFov(res, res, 40.0f, p);
}

} // namespace cicero::test

#endif // CICERO_TESTS_TEST_UTIL_HH
