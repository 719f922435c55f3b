#include "nerf/dense_grid.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"

namespace cicero {

DenseGridEncoding::DenseGridEncoding(int voxelsPerAxis, GridLayout layout,
                                     int blockVerts)
    : _n(voxelsPerAxis),
      _v(voxelsPerAxis + 1),
      _layout(layout),
      _blockVerts(blockVerts),
      _blocksPerAxis((_v + blockVerts - 1) / blockVerts),
      _data(static_cast<std::size_t>(_v) * _v * _v * kFeatureDim, 0.0f)
{
    assert(voxelsPerAxis >= 1 && blockVerts >= 2);
}

std::size_t
DenseGridEncoding::storageIndex(int ix, int iy, int iz) const
{
    return ((static_cast<std::size_t>(iz) * _v + iy) * _v + ix) *
           kFeatureDim;
}

std::uint64_t
DenseGridEncoding::modelBytes() const
{
    return static_cast<std::uint64_t>(_v) * _v * _v * vertexBytes();
}

std::uint64_t
DenseGridEncoding::interpOpsPerSample() const
{
    // Weight computation plus 8-corner weighted accumulation per channel.
    return 24 + 8ull * kFeatureDim;
}

void
DenseGridEncoding::bake(const AnalyticField &field)
{
    // z-planes bake on the pool; every vertex writes only its own
    // storage, so the grid is bit-identical at any thread count.
    const Aabb &b = field.bounds();
    Vec3 e = b.extent();
    parallelFor(0, _v, 1, [&](std::int64_t z0, std::int64_t z1) {
        for (int iz = static_cast<int>(z0); iz < z1; ++iz) {
            for (int iy = 0; iy < _v; ++iy) {
                for (int ix = 0; ix < _v; ++ix) {
                    Vec3 p{b.lo.x + e.x * ix / _n, b.lo.y + e.y * iy / _n,
                           b.lo.z + e.z * iz / _n};
                    BakedPoint bp = field.bakePoint(p);
                    encodeBakedPoint(
                        bp, _data.data() + storageIndex(ix, iy, iz));
                }
            }
        }
    });
    if (_featuresFp16)
        quantizeFeaturesFp16(); // sticky: re-bakes stay 2-byte-valued
}

std::uint32_t
DenseGridEncoding::mvoxelOfVertex(int ix, int iy, int iz) const
{
    std::uint32_t bx = ix / _blockVerts;
    std::uint32_t by = iy / _blockVerts;
    std::uint32_t bz = iz / _blockVerts;
    return (bz * _blocksPerAxis + by) * _blocksPerAxis + bx;
}

std::uint32_t
DenseGridEncoding::numMVoxels() const
{
    return _blocksPerAxis * _blocksPerAxis * _blocksPerAxis;
}

std::uint64_t
DenseGridEncoding::mvoxelBytes() const
{
    return static_cast<std::uint64_t>(_blockVerts) * _blockVerts *
           _blockVerts * vertexBytes();
}

std::uint64_t
DenseGridEncoding::mvoxelBaseAddr(std::uint32_t id) const
{
    return id * mvoxelBytes();
}

std::uint64_t
DenseGridEncoding::vertexAddr(int ix, int iy, int iz) const
{
    if (_layout == GridLayout::Linear) {
        return ((static_cast<std::uint64_t>(iz) * _v + iy) * _v + ix) *
               vertexBytes();
    }
    // MVoxelBlocked: block base + x-fastest offset within the block.
    std::uint32_t block = mvoxelOfVertex(ix, iy, iz);
    int lx = ix % _blockVerts;
    int ly = iy % _blockVerts;
    int lz = iz % _blockVerts;
    std::uint64_t local =
        (static_cast<std::uint64_t>(lz) * _blockVerts + ly) * _blockVerts +
        lx;
    return mvoxelBaseAddr(block) + local * vertexBytes();
}

const float *
DenseGridEncoding::vertexData(int ix, int iy, int iz) const
{
    return _data.data() + storageIndex(ix, iy, iz);
}

std::array<GridCorner, 8>
DenseGridEncoding::corners(const Vec3 &pn) const
{
    float fx = clamp(pn.x, 0.0f, 1.0f) * _n;
    float fy = clamp(pn.y, 0.0f, 1.0f) * _n;
    float fz = clamp(pn.z, 0.0f, 1.0f) * _n;
    int x0 = std::min(static_cast<int>(fx), _n - 1);
    int y0 = std::min(static_cast<int>(fy), _n - 1);
    int z0 = std::min(static_cast<int>(fz), _n - 1);
    float tx = fx - x0;
    float ty = fy - y0;
    float tz = fz - z0;

    std::array<GridCorner, 8> out;
    for (int c = 0; c < 8; ++c) {
        int dx = c & 1;
        int dy = (c >> 1) & 1;
        int dz = (c >> 2) & 1;
        GridCorner &gc = out[c];
        gc.ix = x0 + dx;
        gc.iy = y0 + dy;
        gc.iz = z0 + dz;
        gc.weight = (dx ? tx : 1.0f - tx) * (dy ? ty : 1.0f - ty) *
                    (dz ? tz : 1.0f - tz);
        gc.addr = vertexAddr(gc.ix, gc.iy, gc.iz);
        gc.mvoxel = mvoxelOfVertex(gc.ix, gc.iy, gc.iz);
    }
    return out;
}

void
DenseGridEncoding::gatherFeature(const Vec3 &pn, float *out) const
{
    auto cs = corners(pn);
    for (int ch = 0; ch < kFeatureDim; ++ch)
        out[ch] = 0.0f;
    for (const GridCorner &c : cs) {
        const float *v = vertexData(c.ix, c.iy, c.iz);
        for (int ch = 0; ch < kFeatureDim; ++ch)
            out[ch] += c.weight * v[ch];
    }
}

void
DenseGridEncoding::gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                                  std::vector<MemAccess> &out) const
{
    auto cs = corners(pn);
    for (const GridCorner &c : cs)
        out.push_back(MemAccess{c.addr, vertexBytes(), rayId});
}

void
DenseGridEncoding::gatherFeatureBatch(const Vec3 *pn, int n,
                                      float *out) const
{
    using simd::VecF;
    using simd::VecI;
    constexpr int L = VecF::kLanes;

    // The vector kernel indexes with int32 lanes: grids whose scaled
    // vertex index could exceed INT32_MAX (res >= ~644) take the
    // reference loop, which indexes with size_t.
    const bool indexable =
        static_cast<std::uint64_t>(_v) * _v * _v * kFeatureDim <=
        0x7fffffffull;
    if (!indexable) {
        Encoding::gatherFeatureBatch(pn, n, out);
        return;
    }

    // Vectorized 8-corner trilinear kernel, one lane per sample: the
    // corner weights and storage indices of L samples are computed at
    // once, then each channel's lane sweep gathers the corner values
    // and accumulates with unfused madds from zero. Arithmetic
    // expressions and per-sample accumulation order match
    // gatherFeature() exactly — results are bit-identical. The last
    // block runs at full width over padded positions and is stored to
    // a block-sized scratch, from which its live columns are copied.
    const PositionsSoA pos = transposePositionsSoA(pn, n);
    const float *px = pos.x;
    const float *py = pos.y;
    const float *pz = pos.z;

    const VecF vZero = VecF::zero();
    const VecF vOne = VecF::broadcast(1.0f);
    const VecF vScale = VecF::broadcast(static_cast<float>(_n));
    const VecI vHi = VecI::broadcast(_n - 1);
    const VecI vRow = VecI::broadcast(_v);
    const VecI vDim = VecI::broadcast(kFeatureDim);
    const VecI vOneI = VecI::broadcast(1);
    const float *data = _data.data();

    float last[kFeatureDim][L];
    for (int s0 = 0; s0 < n; s0 += L) {
        const VecF fx =
            vmin(vmax(VecF::load(px + s0), vZero), vOne) * vScale;
        const VecF fy =
            vmin(vmax(VecF::load(py + s0), vZero), vOne) * vScale;
        const VecF fz =
            vmin(vmax(VecF::load(pz + s0), vZero), vOne) * vScale;
        const VecI x0 = vmin(truncToInt(fx), vHi);
        const VecI y0 = vmin(truncToInt(fy), vHi);
        const VecI z0 = vmin(truncToInt(fz), vHi);
        const VecF tx = fx - toFloat(x0);
        const VecF ty = fy - toFloat(y0);
        const VecF tz = fz - toFloat(z0);
        const VecF mx = vOne - tx;
        const VecF my = vOne - ty;
        const VecF mz = vOne - tz;

        VecF w[8];
        VecI idx[8];
        for (int c = 0; c < 8; ++c) {
            const bool dx = c & 1;
            const bool dy = (c >> 1) & 1;
            const bool dz = (c >> 2) & 1;
            w[c] = ((dx ? tx : mx) * (dy ? ty : my)) * (dz ? tz : mz);
            const VecI cx = dx ? x0 + vOneI : x0;
            const VecI cy = dy ? y0 + vOneI : y0;
            const VecI cz = dz ? z0 + vOneI : z0;
            idx[c] = ((cz * vRow + cy) * vRow + cx) * vDim;
        }

        const int live = std::min(L, n - s0);
        for (int ch = 0; ch < kFeatureDim; ++ch) {
            VecF acc = vZero;
            for (int c = 0; c < 8; ++c)
                acc = simd::madd(w[c], simd::gather(data + ch, idx[c]),
                                 acc);
            float *o = out + static_cast<std::size_t>(ch) * n + s0;
            acc.store(live == L ? o : last[ch]);
        }
        if (live < L)
            for (int ch = 0; ch < kFeatureDim; ++ch)
                std::copy_n(last[ch], live,
                            out + static_cast<std::size_t>(ch) * n + s0);
    }
}

void
DenseGridEncoding::quantizeFeaturesFp16()
{
    _featuresFp16 = true;
    simd::roundBufferThroughFp16(_data.data(), _data.size());
}

StreamPlan
DenseGridEncoding::streamingFootprint(
    const std::vector<Vec3> &positions) const
{
    StreamPlan plan;
    std::unordered_set<std::uint32_t> touched;
    for (const Vec3 &pn : positions) {
        auto cs = corners(pn);
        // RIT entries: one per (sample, distinct MVoxel) pair — partial
        // interpolation accumulates across MVoxel boundaries, so a
        // straddling sample is queued once in each MVoxel it touches.
        std::uint32_t seen[8];
        int nSeen = 0;
        for (const GridCorner &c : cs) {
            touched.insert(c.mvoxel);
            bool dup = false;
            for (int i = 0; i < nSeen; ++i)
                dup = dup || seen[i] == c.mvoxel;
            if (!dup)
                seen[nSeen++] = c.mvoxel;
        }
        plan.ritEntries += nSeen;
    }
    plan.streamedBytes = touched.size() * mvoxelBytes();
    plan.ritBytes = plan.ritEntries * 48; // paper: 48 B per RIT entry
    return plan;
}

} // namespace cicero
