/**
 * @file
 * Analytic volumetric radiance fields.
 *
 * The paper evaluates on trained NeRF checkpoints; we substitute a
 * procedural ground-truth field (signed-distance primitives with smooth
 * density falloff, per-primitive albedo and a controllable specular lobe)
 * that the NeRF encodings in src/nerf are *baked* from, so every model
 * has an exact ground truth to be measured against.
 */

#ifndef CICERO_SCENE_FIELD_HH
#define CICERO_SCENE_FIELD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hh"
#include "common/math.hh"

namespace cicero {

/** Supported signed-distance primitive shapes. */
enum class PrimShape
{
    Sphere,
    Box,
    Torus,
    Cylinder,
    RoundBox,
};

/**
 * One volumetric primitive: a signed-distance shape with appearance.
 *
 * Density is sigmaMax inside the surface and decays smoothly over
 * `softness` world units outside it, so primitives have fuzzy NeRF-like
 * boundaries rather than hard surfaces.
 */
struct Primitive
{
    PrimShape shape = PrimShape::Sphere;
    Vec3 center;              //!< world-space position
    Vec3 size{0.25f, 0.25f, 0.25f}; //!< radius / half-extent / (R, r) for torus
    Mat3 rot = Mat3::identity();    //!< world-to-local rotation
    Vec3 albedo{0.8f, 0.8f, 0.8f};  //!< diffuse base color
    float specular = 0.0f;    //!< strength of view-dependent lobe [0, 1]
    float shininess = 16.0f;  //!< specular exponent
    float sigmaMax = 40.0f;   //!< peak volume density
    float softness = 0.02f;   //!< density falloff width (world units)

    /** Signed distance from @p p to the primitive surface (<0 inside). */
    float sdf(const Vec3 &p) const;
};

/**
 * Point-sample of a radiance field: volume density plus view-dependent
 * emitted radiance. This is exactly what a NeRF MLP regresses.
 */
struct FieldSample
{
    float sigma = 0.0f; //!< volume density
    Vec3 rgb;           //!< emitted radiance toward the query direction
};

/**
 * The view-independent appearance of a point, i.e. what NeRF encodings
 * bake into their feature grids. The view-dependent
 * radiance is reconstructed from it by shadePoint().
 */
struct BakedPoint
{
    float sigma = 0.0f;   //!< volume density
    Vec3 diffuse;         //!< Lambert-shaded base color
    Vec3 normal{0.0f, 1.0f, 0.0f}; //!< surface normal estimate
    float specular = 0.0f; //!< view-dependent lobe strength
    float shininess = 16.0f;
};

/**
 * Reconstruct view-dependent radiance from a baked point: diffuse term
 * plus a Blinn-Phong lobe toward @p lightDir seen from @p viewDir.
 */
Vec3 shadePoint(const BakedPoint &pt, const Vec3 &viewDir,
                const Vec3 &lightDir);

/**
 * An analytic radiance field: union of Primitives over an AABB with a
 * fixed directional light providing Lambertian shading and per-primitive
 * Blinn-Phong specular view dependence (the "non-diffuse surfaces" of the
 * paper's Sec. VIII).
 */
class AnalyticField
{
  public:
    AnalyticField() = default;

    void addPrimitive(const Primitive &prim) { _prims.push_back(prim); }
    const std::vector<Primitive> &primitives() const { return _prims; }

    const Aabb &bounds() const { return _bounds; }
    const Vec3 &lightDir() const { return _lightDir; }

    /** Volume density at @p p; zero outside the bounds. */
    float density(const Vec3 &p) const;

    /**
     * Density and radiance at @p p for a ray travelling in @p viewDir.
     * Radiance blends the contributions of overlapping primitives by
     * their local densities. Equivalent to shading bakePoint(p).
     */
    FieldSample sample(const Vec3 &p, const Vec3 &viewDir) const;

    /** View-independent appearance at @p p, for encoding bakes. */
    BakedPoint bakePoint(const Vec3 &p) const;

    /** Numerical SDF-union gradient (outward normal direction). */
    Vec3 normalAt(const Vec3 &p) const;

    /** Minimum signed distance over all primitives. */
    float unionSdf(const Vec3 &p) const;

  private:
    std::vector<Primitive> _prims;
    Aabb _bounds{Vec3{-1.0f, -1.0f, -1.0f}, Vec3{1.0f, 1.0f, 1.0f}};
    Vec3 _lightDir{0.4f, 0.8f, 0.45f};
};

} // namespace cicero

#endif // CICERO_SCENE_FIELD_HH
