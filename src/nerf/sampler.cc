#include "nerf/sampler.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cicero {

namespace {

/**
 * How many march steps a ray may skip while every skipped sample's cell
 * stays within a given Chebyshev distance of the current sample's cell.
 *
 * One step moves the cell coordinate on axis a by at most
 * step * |dir_a| * res / extent_a; the largest axis (zero direction
 * components drop out) bounds the move on all three. Two float effects
 * widen the bound:
 * - each `t += step` may round up by half an ulp of the largest |t|
 *   the march reaches, so a step counts as step + eps * |t|max;
 * - each sample's cell coordinate carries the rounding of its
 *   position, normalization and scaling, a few ulps of the coordinate
 *   magnitudes; @c _slack covers both samples' share plus a fixed
 *   sixteenth of a cell.
 * Clamping a coordinate into the grid never increases a distance, so
 * samples just outside the box are covered too.
 */
class SkipBudget
{
  public:
    SkipBudget(const Ray &ray, const Aabb &box, int res, float step,
               float t0, float t1)
    {
        constexpr float eps = std::numeric_limits<float>::epsilon();
        float tAbs = std::max(std::fabs(t0), std::fabs(t1) + step);
        Vec3 e = box.extent();
        float rate = 0.0f;
        float mag = 0.0f;
        for (int a = 0; a < 3; ++a) {
            float cellsPerT = res / e[a];
            rate = std::max(rate, std::fabs(ray.dir[a]) * cellsPerT);
            mag = std::max(mag, (std::fabs(ray.origin[a]) +
                                 std::fabs(ray.dir[a]) * tAbs +
                                 std::fabs(box.lo[a])) *
                                    cellsPerT);
        }
        _cellsPerStep = rate * (step + eps * tAbs);
        _slack = 1.0f / 16.0f + 8.0f * eps * (mag + res);
    }

    /** Steps whose samples all stay within @p cells of this one's cell. */
    int
    steps(int cells) const
    {
        float k = (cells - _slack) / _cellsPerStep;
        if (!(k >= 1.0f))
            return 0;
        return k >= 1e9f ? 1000000000 : static_cast<int>(k);
    }

  private:
    float _cellsPerStep = 0.0f;
    float _slack = 0.0f;
};

/**
 * Whether the part [t0, t1] of @p ray meets @p box; never for an empty
 * box.
 */
bool
spanMeets(const Aabb &box, const Ray &ray, float t0, float t1)
{
    return box.valid() && box.intersect(ray, t0, t1).has_value();
}

/**
 * The world-space box around the cells [lo, hi] (per axis) of a
 * @p res^3 grid over @p bounds: padded by a quarter cell, and by one
 * more cell on every face where the range reaches the grid boundary.
 * Empty when the range is empty (lo > hi on some axis).
 */
Aabb
cellRangeBox(const Aabb &bounds, int res, const int lo[3], const int hi[3])
{
    Aabb box;
    if (lo[0] > hi[0] || lo[1] > hi[1] || lo[2] > hi[2])
        return box;
    Vec3 e = bounds.extent();
    for (int a = 0; a < 3; ++a) {
        float cell = e[a] / res;
        float pad = 0.25f * cell;
        box.lo[a] = bounds.lo[a] + e[a] * lo[a] / res - pad -
                    (lo[a] == 0 ? cell : 0.0f);
        box.hi[a] = bounds.lo[a] + e[a] * (hi[a] + 1) / res + pad +
                    (hi[a] == res - 1 ? cell : 0.0f);
    }
    return box;
}

} // namespace

OccupancyGrid::OccupancyGrid(const AnalyticField &field, int res,
                             float sigmaThresh)
    : _res(res), _bounds(field.bounds()),
      _dist(static_cast<std::size_t>(res + 2) * (res + 2) * (res + 2), 255)
{
    assert(res >= 2);
    Vec3 e = _bounds.extent();
    // Sample cell centers, tracking the range of the occupied ones.
    int lo[3] = {res, res, res};
    int hi[3] = {-1, -1, -1};
    for (int z = 0; z < res; ++z) {
        for (int y = 0; y < res; ++y) {
            for (int x = 0; x < res; ++x) {
                Vec3 p{_bounds.lo.x + e.x * (x + 0.5f) / res,
                       _bounds.lo.y + e.y * (y + 0.5f) / res,
                       _bounds.lo.z + e.z * (z + 0.5f) / res};
                if (field.density(p) > sigmaThresh) {
                    _dist[idx(x, y, z)] = 0;
                    const int c[3] = {x, y, z};
                    for (int a = 0; a < 3; ++a) {
                        lo[a] = std::min(lo[a], c[a]);
                        hi[a] = std::max(hi[a], c[a]);
                    }
                }
            }
        }
    }
    _occupiedBox = cellRangeBox(_bounds, res, lo, hi);
    // The dilation grows the range by one cell, clipped to the grid.
    int dlo[3], dhi[3];
    for (int a = 0; a < 3; ++a) {
        dlo[a] = std::max(lo[a] - 1, 0);
        dhi[a] = std::min(hi[a] + 1, res - 1);
    }
    _dilatedBox = cellRangeBox(_bounds, res, dlo, dhi);
    // Chebyshev distance transform in place: a raster pass, then a
    // reverse one, each taking one more than the smallest of the 13
    // neighbours the pass has already visited. It is exact because
    // the steps of a shortest 26-neighbour path can be reordered into
    // the raster-forward ones first, then the backward ones. The
    // padding cells stay at 255, so no neighbour needs a bounds check.
    const std::ptrdiff_t pr = res + 2;
    std::vector<std::ptrdiff_t> earlier; // offsets of those neighbours
    for (int dz = -1; dz <= 0; ++dz)
        for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
                if (dz < 0 || dy < 0 || (dy == 0 && dx < 0))
                    earlier.push_back((dz * pr + dy) * pr + dx);
    for (int dir : {1, -1}) {
        for (int i = 0; i < res * res; ++i) {
            int row = dir > 0 ? i : res * res - 1 - i; // z * res + y
            std::size_t c0 = idx(0, row % res, row / res);
            for (int k = 0; k < res; ++k) {
                std::size_t c = c0 + (dir > 0 ? k : res - 1 - k);
                int d = _dist[c];
                for (std::ptrdiff_t o : earlier)
                    d = std::min(d, _dist[c + dir * o] + 1);
                _dist[c] = static_cast<std::uint8_t>(d);
            }
        }
    }
}

bool
OccupancyGrid::occupiedNormalized(const Vec3 &pn) const
{
    return _dist[cellIndex(pn)] <= 1;
}

bool
OccupancyGrid::occupied(const Vec3 &p) const
{
    if (!_bounds.contains(p))
        return false;
    return occupiedNormalized(_bounds.normalize(p));
}

bool
OccupancyGrid::rayHitsOccupied(const Ray &ray) const
{
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return false;
    auto [t0, t1] = *hit;
    if (!spanMeets(_occupiedBox, ray, t0, t1))
        return false;
    float cell = _bounds.extent().minComponent() / _res;
    float step = 0.5f * cell;
    SkipBudget budget(ray, _bounds, _res, step, t0, t1);
    for (float t = t0 + 0.5f * step; t < t1; t += step) {
        Vec3 p = ray.at(t);
        if (!_bounds.contains(p))
            continue;
        int d = _dist[cellIndex(_bounds.normalize(p))];
        if (d == 0)
            return true;
        // Cells within d - 1 of this one are all empty: skip the steps
        // that stay among them (same t sequence, no lookups).
        for (int k = budget.steps(d - 1); k > 0 && t < t1; --k)
            t += step;
    }
    return false;
}

double
OccupancyGrid::occupancyFraction() const
{
    std::size_t occ = 0;
    for (std::uint8_t d : _dist) // padding cells are never <= 1
        occ += d <= 1;
    return static_cast<double>(occ) /
           (static_cast<double>(_res) * _res * _res);
}

RaySampler::RaySampler(const Aabb &bounds, const OccupancyGrid *occupancy,
                       const SamplerConfig &config)
    : _bounds(bounds), _occupancy(occupancy), _config(config),
      _step(bounds.extent().norm() / config.stepsAcross)
{
}

int
RaySampler::sample(const Ray &ray, std::vector<RaySample> &out) const
{
    out.clear();
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return 0;
    auto [t0, t1] = *hit;
    if (_occupancy && !spanMeets(_occupancy->dilatedBox(), ray, t0, t1))
        return 0;

    Vec3 e = _bounds.extent();
    SkipBudget budget(ray, _bounds, _occupancy ? _occupancy->res() : 1,
                      _step, t0, t1);
    for (float t = t0 + 0.5f * _step;
         t < t1 &&
         static_cast<int>(out.size()) < _config.maxSamplesPerRay;
         t += _step) {
        Vec3 p = ray.at(t);
        Vec3 pn{(p.x - _bounds.lo.x) / e.x, (p.y - _bounds.lo.y) / e.y,
                (p.z - _bounds.lo.z) / e.z};
        if (_occupancy) {
            int d = _occupancy->distanceNormalized(pn);
            if (d > 1) {
                // Cells within d - 2 of this one are all outside the
                // dilated occupancy: skip the steps that stay among
                // them, advancing t exactly as the plain march would.
                for (int k = budget.steps(d - 2); k > 0 && t < t1; --k)
                    t += _step;
                continue;
            }
        }
        out.push_back(RaySample{p, pn, t, _step});
    }
    return static_cast<int>(out.size());
}

} // namespace cicero
