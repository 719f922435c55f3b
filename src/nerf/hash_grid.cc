#include "nerf/hash_grid.hh"

#include <cassert>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"

namespace cicero {

namespace {

/** The Instant-NGP spatial-hash primes (Teschner et al.) — one
 *  definition shared by the scalar hash and the vector kernel, so the
 *  two paths cannot silently diverge. */
constexpr std::uint32_t kHashPrimeY = 2654435761u;
constexpr std::uint32_t kHashPrimeZ = 805459861u;

/** The spatial hash of Instant-NGP. */
inline std::uint32_t
spatialHash(int ix, int iy, int iz)
{
    return static_cast<std::uint32_t>(ix) * 1u ^
           static_cast<std::uint32_t>(iy) * kHashPrimeY ^
           static_cast<std::uint32_t>(iz) * kHashPrimeZ;
}

} // namespace

HashGridConfig
HashGridConfig::full()
{
    HashGridConfig c;
    c.numLevels = 8;
    c.baseRes = 16;
    c.perLevelScale = 1.38f;
    c.tableSize = 1u << 17;
    return c;
}

HashGridEncoding::HashGridEncoding(const HashGridConfig &config)
    : _config(config)
{
    assert(config.numLevels >= 1);
    std::uint64_t addr = 0;
    float res = static_cast<float>(config.baseRes);
    for (int l = 0; l < config.numLevels; ++l) {
        Level lvl;
        lvl.res = static_cast<int>(std::floor(res));
        std::uint64_t verts = static_cast<std::uint64_t>(lvl.res + 1) *
                              (lvl.res + 1) * (lvl.res + 1);
        lvl.dense = verts <= config.tableSize;
        lvl.slots = lvl.dense ? static_cast<std::uint32_t>(verts)
                              : config.tableSize;
        lvl.baseAddr = addr;
        lvl.data.assign(static_cast<std::size_t>(lvl.slots) * kFeatureDim,
                        0.0f);
        addr += static_cast<std::uint64_t>(lvl.slots) * vertexBytes();
        _levels.push_back(std::move(lvl));
        res *= config.perLevelScale;
    }
}

std::uint64_t
HashGridEncoding::modelBytes() const
{
    std::uint64_t bytes = 0;
    for (const Level &lvl : _levels)
        bytes += static_cast<std::uint64_t>(lvl.slots) * vertexBytes();
    return bytes;
}

std::uint64_t
HashGridEncoding::interpOpsPerSample() const
{
    return static_cast<std::uint64_t>(_config.numLevels) *
           (24 + 8ull * kFeatureDim);
}

int
HashGridEncoding::revertLevel() const
{
    for (int l = 0; l < _config.numLevels; ++l)
        if (!_levels[l].dense)
            return l;
    return _config.numLevels;
}

std::uint32_t
HashGridEncoding::slotOf(const Level &lvl, int ix, int iy, int iz) const
{
    int v = lvl.res + 1;
    if (lvl.dense) {
        return (static_cast<std::uint32_t>(iz) * v + iy) * v + ix;
    }
    // A power-of-two table masks, as the vector kernel does: for an
    // unsigned hash, h % 2^k == h & (2^k - 1).
    const std::uint32_t h = spatialHash(ix, iy, iz);
    return (lvl.slots & (lvl.slots - 1)) == 0 ? h & (lvl.slots - 1)
                                               : h % lvl.slots;
}

void
HashGridEncoding::gatherUpto(const Vec3 &pn, int uptoLevel,
                             float *out) const
{
    for (int ch = 0; ch < kFeatureDim; ++ch)
        out[ch] = 0.0f;
    for (int l = 0; l < uptoLevel; ++l) {
        const Level &lvl = _levels[l];
        float fx = clamp(pn.x, 0.0f, 1.0f) * lvl.res;
        float fy = clamp(pn.y, 0.0f, 1.0f) * lvl.res;
        float fz = clamp(pn.z, 0.0f, 1.0f) * lvl.res;
        int x0 = std::min(static_cast<int>(fx), lvl.res - 1);
        int y0 = std::min(static_cast<int>(fy), lvl.res - 1);
        int z0 = std::min(static_cast<int>(fz), lvl.res - 1);
        float tx = fx - x0;
        float ty = fy - y0;
        float tz = fz - z0;
        for (int c = 0; c < 8; ++c) {
            int dx = c & 1;
            int dy = (c >> 1) & 1;
            int dz = (c >> 2) & 1;
            float w = (dx ? tx : 1.0f - tx) * (dy ? ty : 1.0f - ty) *
                      (dz ? tz : 1.0f - tz);
            std::uint32_t slot =
                slotOf(lvl, x0 + dx, y0 + dy, z0 + dz);
            const float *v =
                lvl.data.data() +
                static_cast<std::size_t>(slot) * kFeatureDim;
            for (int ch = 0; ch < kFeatureDim; ++ch)
                out[ch] += w * v[ch];
        }
    }
}

void
HashGridEncoding::gatherFeature(const Vec3 &pn, float *out) const
{
    gatherUpto(pn, _config.numLevels, out);
}

void
HashGridEncoding::gatherFeatureBatch(const Vec3 *pn, int n,
                                     float *out) const
{
    using simd::VecF;
    using simd::VecI;
    constexpr int L = VecF::kLanes;
    // A vertex row's kFeatureDim contiguous channels: kRowVecs vector
    // loads, then kRowTail channels read one by one.
    constexpr int kRowVecs = kFeatureDim / L;
    constexpr int kRowTail = kFeatureDim % L;

    // The vector kernel indexes with int32 lanes: a table whose scaled
    // element index could exceed INT32_MAX takes the reference loop
    // (slots is bounded by tableSize, so this only triggers on extreme
    // configurations).
    bool indexable = true;
    for (const Level &lvl : _levels)
        indexable = indexable &&
                    static_cast<std::uint64_t>(lvl.slots) * kFeatureDim <=
                        0x7fffffffull;
    if (!indexable) {
        Encoding::gatherFeatureBatch(pn, n, out);
        return;
    }

    // Vectorized level-major 8-corner kernel, one lane per sample: per
    // level and corner the kernel computes the trilinear weight and the
    // table slot for L samples at once, then each live sample loads its
    // corner vertices' whole channel rows and accumulates them into its
    // own sample-major accumulator with an unfused mul-then-add. Per
    // (sample, channel) the accumulation order (levels ascending,
    // corners ascending) and every arithmetic expression match
    // gatherFeature() exactly, so results are bit-identical to it. The
    // last block runs at full width over padded positions; only its
    // live lanes load rows. The accumulators are transposed into the
    // channel-major output once, after the last level.
    thread_local std::vector<float> accBuf;
    if (accBuf.size() < static_cast<std::size_t>(n) * kFeatureDim)
        accBuf.resize(static_cast<std::size_t>(n) * kFeatureDim);
    float *acc = accBuf.data();
    const PositionsSoA pos = transposePositionsSoA(pn, n);
    const VecF vZero = VecF::zero();
    const VecF vOne = VecF::broadcast(1.0f);
    const VecI vOneI = VecI::broadcast(1);
    const VecI vDim = VecI::broadcast(kFeatureDim);

    for (std::size_t l = 0; l < _levels.size(); ++l) {
        const Level &lvl = _levels[l];
        const VecF vRes = VecF::broadcast(static_cast<float>(lvl.res));
        const VecI vHi = VecI::broadcast(lvl.res - 1);
        const VecI vV = VecI::broadcast(lvl.res + 1);
        const VecI vSlotMask =
            VecI::broadcast(static_cast<std::int32_t>(lvl.slots - 1));
        const float *data = lvl.data.data();
        const bool slotsPow2 = (lvl.slots & (lvl.slots - 1)) == 0;

        for (int s0 = 0; s0 < n; s0 += L) {
            // fx = clamp(p, 0, 1) * res; x0 = min(int(fx), res - 1);
            // tx = fx - x0 — identical expressions, lane-wise.
            const VecF fx =
                vmin(vmax(VecF::load(pos.x + s0), vZero), vOne) * vRes;
            const VecF fy =
                vmin(vmax(VecF::load(pos.y + s0), vZero), vOne) * vRes;
            const VecF fz =
                vmin(vmax(VecF::load(pos.z + s0), vZero), vOne) * vRes;
            const VecI x0 = vmin(truncToInt(fx), vHi);
            const VecI y0 = vmin(truncToInt(fy), vHi);
            const VecI z0 = vmin(truncToInt(fz), vHi);
            const VecF tx = fx - toFloat(x0);
            const VecF ty = fy - toFloat(y0);
            const VecF tz = fz - toFloat(z0);
            const VecF mx = vOne - tx;
            const VecF my = vOne - ty;
            const VecF mz = vOne - tz;

            // Per corner: lane weights and row offsets (slot * dim).
            float w[8][L];
            std::int32_t row[8][L];
            for (int c = 0; c < 8; ++c) {
                const bool dx = c & 1;
                const bool dy = (c >> 1) & 1;
                const bool dz = (c >> 2) & 1;
                (((dx ? tx : mx) * (dy ? ty : my)) * (dz ? tz : mz))
                    .store(w[c]);
                const VecI cx = dx ? x0 + vOneI : x0;
                const VecI cy = dy ? y0 + vOneI : y0;
                const VecI cz = dz ? z0 + vOneI : z0;
                VecI slot;
                if (lvl.dense) {
                    slot = (cz * vV + cy) * vV + cx;
                } else {
                    const VecI h =
                        cx ^
                        cy * VecI::broadcast(
                                 static_cast<std::int32_t>(kHashPrimeY)) ^
                        cz * VecI::broadcast(
                                 static_cast<std::int32_t>(kHashPrimeZ));
                    if (slotsPow2) {
                        slot = h & vSlotMask;
                    } else {
                        // Non-power-of-two tables: unsigned modulo has
                        // no vector form — round-trip through a lane
                        // array.
                        std::int32_t lanes[VecI::kLanes];
                        h.store(lanes);
                        for (std::int32_t &lv : lanes)
                            lv = static_cast<std::int32_t>(
                                static_cast<std::uint32_t>(lv) %
                                lvl.slots);
                        slot = VecI::load(lanes);
                    }
                }
                (slot * vDim).store(row[c]);
            }

            const int live = std::min(L, n - s0);
            for (int s = 0; s < live; ++s) {
                float *a = acc + static_cast<std::size_t>(s0 + s) *
                                     kFeatureDim;
                VecF head[kRowVecs > 0 ? kRowVecs : 1];
                float tail[kRowTail > 0 ? kRowTail : 1];
                for (int k = 0; k < kRowVecs; ++k)
                    head[k] = l == 0 ? vZero : VecF::load(a + k * L);
                for (int t = 0; t < kRowTail; ++t)
                    tail[t] = l == 0 ? 0.0f : a[kRowVecs * L + t];
                for (int c = 0; c < 8; ++c) {
                    const float *v = data + row[c][s];
                    const VecF ws = VecF::broadcast(w[c][s]);
                    for (int k = 0; k < kRowVecs; ++k)
                        head[k] =
                            simd::madd(ws, VecF::load(v + k * L), head[k]);
                    for (int t = 0; t < kRowTail; ++t)
                        tail[t] = tail[t] + w[c][s] * v[kRowVecs * L + t];
                }
                for (int k = 0; k < kRowVecs; ++k)
                    head[k].store(a + k * L);
                for (int t = 0; t < kRowTail; ++t)
                    a[kRowVecs * L + t] = tail[t];
            }
        }
    }

    for (int s = 0; s < n; ++s)
        for (int ch = 0; ch < kFeatureDim; ++ch)
            out[static_cast<std::size_t>(ch) * n + s] =
                acc[static_cast<std::size_t>(s) * kFeatureDim + ch];
}

void
HashGridEncoding::quantizeFeaturesFp16()
{
    _featuresFp16 = true;
    for (Level &lvl : _levels)
        simd::roundBufferThroughFp16(lvl.data.data(), lvl.data.size());
}

void
HashGridEncoding::bake(const AnalyticField &field)
{
    // Residual-pyramid bake: level l stores (target - reconstruction of
    // levels < l) at its vertices. Hashed levels accumulate colliding
    // vertices and average them — real Instant-NGP collision behaviour.
    //
    // Levels run in order (level l reconstructs from levels < l); within
    // a level the pool splits the slot range into parts. Each part scans
    // the vertices in (iz, iy, ix) order and bakes only those whose slot
    // it owns, so every slot sums its colliding vertices in the same
    // order on one thread — the tables are bit-identical whatever the
    // partition or thread count.
    const Aabb &b = field.bounds();
    Vec3 e = b.extent();

    for (int l = 0; l < _config.numLevels; ++l) {
        Level &lvl = _levels[l];
        std::vector<float> sum(
            static_cast<std::size_t>(lvl.slots) * kFeatureDim, 0.0f);
        std::vector<std::uint32_t> count(lvl.slots, 0);

        const int v = lvl.res + 1;
        const std::int64_t plane = static_cast<std::int64_t>(v) * v;
        const std::int64_t parts = 4 * parallelThreadCount();
        const std::int64_t grain = (lvl.slots + parts - 1) / parts;
        parallelFor(0, lvl.slots, grain, [&](std::int64_t s0,
                                             std::int64_t s1) {
            // A dense level's slot is the linear vertex index, so its
            // part visits only the z-planes its slots lie in.
            const int zBegin = lvl.dense ? static_cast<int>(s0 / plane) : 0;
            const int zEnd =
                lvl.dense ? static_cast<int>((s1 - 1) / plane) + 1 : v;
            float target[kFeatureDim];
            float recon[kFeatureDim];
            for (int iz = zBegin; iz < zEnd; ++iz) {
                for (int iy = 0; iy < v; ++iy) {
                    for (int ix = 0; ix < v; ++ix) {
                        std::uint32_t slot = slotOf(lvl, ix, iy, iz);
                        if (slot < s0 || slot >= s1)
                            continue;
                        Vec3 pn{static_cast<float>(ix) / lvl.res,
                                static_cast<float>(iy) / lvl.res,
                                static_cast<float>(iz) / lvl.res};
                        Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
                               b.lo.z + e.z * pn.z};
                        encodeBakedPoint(field.bakePoint(p), target);
                        gatherUpto(pn, l, recon);

                        float *dst =
                            sum.data() +
                            static_cast<std::size_t>(slot) * kFeatureDim;
                        for (int ch = 0; ch < kFeatureDim; ++ch)
                            dst[ch] += target[ch] - recon[ch];
                        ++count[slot];
                    }
                }
            }

            for (std::int64_t s = s0; s < s1; ++s) {
                if (count[s] == 0)
                    continue;
                float inv = 1.0f / count[s];
                float *dst = lvl.data.data() +
                             static_cast<std::size_t>(s) * kFeatureDim;
                const float *src =
                    sum.data() + static_cast<std::size_t>(s) * kFeatureDim;
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    dst[ch] = src[ch] * inv;
            }
        });
    }

    if (_featuresFp16)
        quantizeFeaturesFp16(); // sticky: re-bakes stay 2-byte-valued
}

void
HashGridEncoding::gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                                 std::vector<MemAccess> &out) const
{
    for (const Level &lvl : _levels) {
        float fx = clamp(pn.x, 0.0f, 1.0f) * lvl.res;
        float fy = clamp(pn.y, 0.0f, 1.0f) * lvl.res;
        float fz = clamp(pn.z, 0.0f, 1.0f) * lvl.res;
        int x0 = std::min(static_cast<int>(fx), lvl.res - 1);
        int y0 = std::min(static_cast<int>(fy), lvl.res - 1);
        int z0 = std::min(static_cast<int>(fz), lvl.res - 1);
        for (int c = 0; c < 8; ++c) {
            std::uint32_t slot = slotOf(lvl, x0 + (c & 1),
                                        y0 + ((c >> 1) & 1),
                                        z0 + ((c >> 2) & 1));
            out.push_back(MemAccess{
                lvl.baseAddr +
                    static_cast<std::uint64_t>(slot) * vertexBytes(),
                vertexBytes(), rayId});
        }
    }
}

StreamPlan
HashGridEncoding::streamingFootprint(
    const std::vector<Vec3> &positions) const
{
    StreamPlan plan;
    const int bv = _config.blockVerts;
    const std::uint64_t blockBytes =
        static_cast<std::uint64_t>(bv) * bv * bv * vertexBytes();

    for (int l = 0; l < _config.numLevels; ++l) {
        const Level &lvl = _levels[l];
        if (lvl.dense) {
            // Streamable level: unique 8^3 vertex blocks touched.
            std::unordered_set<std::uint64_t> touched;
            std::uint32_t blocksPerAxis = (lvl.res + 1 + bv - 1) / bv;
            for (const Vec3 &pn : positions) {
                float fx = clamp(pn.x, 0.0f, 1.0f) * lvl.res;
                float fy = clamp(pn.y, 0.0f, 1.0f) * lvl.res;
                float fz = clamp(pn.z, 0.0f, 1.0f) * lvl.res;
                int x0 = std::min(static_cast<int>(fx), lvl.res - 1);
                int y0 = std::min(static_cast<int>(fy), lvl.res - 1);
                int z0 = std::min(static_cast<int>(fz), lvl.res - 1);
                std::uint64_t seen[8];
                int nSeen = 0;
                for (int c = 0; c < 8; ++c) {
                    std::uint64_t bx = (x0 + (c & 1)) / bv;
                    std::uint64_t by = (y0 + ((c >> 1) & 1)) / bv;
                    std::uint64_t bz = (z0 + ((c >> 2) & 1)) / bv;
                    std::uint64_t blk =
                        (bz * blocksPerAxis + by) * blocksPerAxis + bx;
                    touched.insert(blk);
                    bool dup = false;
                    for (int i = 0; i < nSeen; ++i)
                        dup = dup || seen[i] == blk;
                    if (!dup)
                        seen[nSeen++] = blk;
                }
                plan.ritEntries += nSeen;
            }
            plan.streamedBytes += touched.size() * blockBytes;
        } else {
            // Hashed level: reverts to the original (random) data flow.
            plan.randomBytes += positions.size() * 8ull * vertexBytes();
        }
    }
    plan.ritBytes = plan.ritEntries * 48;
    return plan;
}

} // namespace cicero
