/**
 * @file
 * Ray sampling: uniform marching through the scene AABB with
 * occupancy-grid empty-space skipping (the coarse grid every modern
 * NeRF model maintains).
 */

#ifndef CICERO_NERF_SAMPLER_HH
#define CICERO_NERF_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "scene/field.hh"

namespace cicero {

/** Sampling parameters. */
struct SamplerConfig
{
    int stepsAcross = 192;    //!< uniform steps across the AABB diagonal
    int maxSamplesPerRay = 256;
    int occupancyRes = 64;    //!< occupancy grid voxels per axis
    float occupancySigma = 0.5f; //!< density threshold for "occupied"
};

/**
 * A binary occupancy grid over the scene bounds, baked from the analytic
 * field with one voxel of dilation. Also provides the cheap
 * ray-vs-occupancy test SPARW uses to separate void from disocclusion.
 *
 * The grid stores one Chebyshev distance field: each cell holds its
 * distance in cells to the nearest raw-occupied cell (capped at 255).
 * Raw occupancy is distance 0 and the dilated occupancy is distance
 * <= 1; a larger distance tells both marches how many whole cells they
 * can cross before reaching an occupied one, so they skip runs of empty
 * cells without changing which samples they keep.
 *
 * The grid also keeps two world-space boxes: one around the raw cells
 * and one around the dilated cells. Each is padded by a quarter cell
 * (far more than any float rounding of a sample's position) and, on
 * every face where its cells reach the grid boundary, extended one more
 * cell past it (samples just outside the grid clamp into the edge
 * cells). A sample can only land in an occupied cell inside its box, so
 * a ray whose span through the grid misses the box needs no march.
 */
class OccupancyGrid
{
  public:
    OccupancyGrid(const AnalyticField &field, int res, float sigmaThresh);

    int res() const { return _res; }
    const Aabb &bounds() const { return _bounds; }

    /** Occupancy (dilated) at normalized position @p pn in [0,1]^3. */
    bool occupiedNormalized(const Vec3 &pn) const;

    /** Occupancy (dilated) at world position @p p. */
    bool occupied(const Vec3 &p) const;

    /**
     * March @p ray through the bounds at occupancy-cell granularity.
     * Uses the *raw* (un-dilated) occupancy: the dilation exists to keep
     * sampling conservative, but the SPARW void test wants the tight
     * surface so silhouette-adjacent background pixels classify as void
     * rather than triggering needless sparse rendering.
     *
     * A ray whose span through the grid misses occupiedBox() returns
     * false without marching.
     *
     * @return true if any occupied cell is crossed (SPARW's depth test).
     */
    bool rayHitsOccupied(const Ray &ray) const;

    /**
     * The padded world-space box around the raw-occupied cells (see the
     * class comment); empty (not valid()) when no cell is occupied.
     */
    const Aabb &occupiedBox() const { return _occupiedBox; }

    /** The same box around the dilated cells (the sampler's cull). */
    const Aabb &dilatedBox() const { return _dilatedBox; }

    /**
     * Chebyshev distance in cells from the cell holding normalized
     * position @p pn (clamped into the grid) to the nearest raw-occupied
     * cell, capped at 255.
     */
    int distanceNormalized(const Vec3 &pn) const
    {
        return _dist[cellIndex(pn)];
    }

    /** Fraction of occupied (dilated) cells (diagnostics). */
    double occupancyFraction() const;

  private:
    /**
     * Index of cell (@p x, @p y, @p z) in @c _dist, which pads the grid
     * with one never-occupied cell on every side.
     */
    std::size_t idx(int x, int y, int z) const
    {
        const std::size_t pr = static_cast<std::size_t>(_res) + 2;
        return ((z + 1) * pr + (y + 1)) * pr + (x + 1);
    }

    std::size_t
    cellIndex(const Vec3 &pn) const
    {
        int x = clamp(static_cast<int>(pn.x * _res), 0, _res - 1);
        int y = clamp(static_cast<int>(pn.y * _res), 0, _res - 1);
        int z = clamp(static_cast<int>(pn.z * _res), 0, _res - 1);
        return idx(x, y, z);
    }

    int _res;
    Aabb _bounds;
    std::vector<std::uint8_t> _dist; //!< distance to raw occupancy, padded
    Aabb _occupiedBox; //!< around the raw cells
    Aabb _dilatedBox;  //!< around the dilated cells
};

/** One ray sample produced by the sampler. */
struct RaySample
{
    Vec3 pos;  //!< world position
    Vec3 pn;   //!< normalized [0,1]^3 position
    float t;   //!< ray parameter
    float dt;  //!< segment length for compositing
};

/**
 * Uniform ray marcher with occupancy skipping.
 */
class RaySampler
{
  public:
    RaySampler(const Aabb &bounds, const OccupancyGrid *occupancy,
               const SamplerConfig &config);

    /**
     * Sample @p ray; appends to @p out (which is cleared first). With
     * an occupancy grid (which must cover the same bounds), a ray whose
     * span misses its dilatedBox() produces no samples without marching.
     * @return number of samples produced.
     */
    int sample(const Ray &ray, std::vector<RaySample> &out) const;

    float stepSize() const { return _step; }
    const SamplerConfig &config() const { return _config; }

  private:
    Aabb _bounds;
    const OccupancyGrid *_occupancy;
    SamplerConfig _config;
    float _step;
};

} // namespace cicero

#endif // CICERO_NERF_SAMPLER_HH
