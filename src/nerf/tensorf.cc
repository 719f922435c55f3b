#include "nerf/tensorf.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"

namespace cicero {

namespace {

/** Axis triplets (u, v, w) per grouping: (x,y|z), (x,z|y), (y,z|x). */
constexpr int kAxisU[3] = {0, 0, 1};
constexpr int kAxisV[3] = {1, 2, 2};
constexpr int kAxisW[3] = {2, 1, 0};

} // namespace

TensoRFEncoding::TensoRFEncoding(const TensoRFConfig &config)
    : _config(config)
{
    assert(config.res >= 2 && config.ranks >= 1);
    std::size_t planeSize = static_cast<std::size_t>(config.res) *
                            config.res * config.ranks * kFeatureDim;
    std::size_t lineSize =
        static_cast<std::size_t>(config.res) * config.ranks * kFeatureDim;
    for (int g = 0; g < 3; ++g) {
        _planes[g].assign(planeSize, 0.0f);
        _lines[g].assign(lineSize, 0.0f);
    }
}

std::uint64_t
TensoRFEncoding::modelBytes() const
{
    std::uint64_t planeBytes = static_cast<std::uint64_t>(_config.res) *
                               _config.res * texelBytes();
    std::uint64_t lineBytes =
        static_cast<std::uint64_t>(_config.res) * texelBytes();
    return 3 * (planeBytes + lineBytes);
}

std::uint64_t
TensoRFEncoding::interpOpsPerSample() const
{
    // Per grouping: bilinear + linear weights, then R x C fused product
    // accumulations over (4 + 2 + 1) terms.
    return 3ull * (16 + static_cast<std::uint64_t>(_config.ranks) *
                            kFeatureDim * 7);
}

float &
TensoRFEncoding::planeRef(int g, int u, int v, int r, int ch)
{
    std::size_t texel = static_cast<std::size_t>(v) * _config.res + u;
    return _planes[g][(texel * _config.ranks + r) * kFeatureDim + ch];
}

float
TensoRFEncoding::planeAt(int g, int u, int v, int r, int ch) const
{
    std::size_t texel = static_cast<std::size_t>(v) * _config.res + u;
    return _planes[g][(texel * _config.ranks + r) * kFeatureDim + ch];
}

float &
TensoRFEncoding::lineRef(int g, int w, int r, int ch)
{
    return _lines[g][(static_cast<std::size_t>(w) * _config.ranks + r) *
                         kFeatureDim +
                     ch];
}

float
TensoRFEncoding::lineAt(int g, int w, int r, int ch) const
{
    return _lines[g][(static_cast<std::size_t>(w) * _config.ranks + r) *
                         kFeatureDim +
                     ch];
}

std::uint64_t
TensoRFEncoding::planeBase(int g) const
{
    std::uint64_t planeBytes = static_cast<std::uint64_t>(_config.res) *
                               _config.res * texelBytes();
    std::uint64_t lineBytes =
        static_cast<std::uint64_t>(_config.res) * texelBytes();
    return static_cast<std::uint64_t>(g) * (planeBytes + lineBytes);
}

std::uint64_t
TensoRFEncoding::lineBase(int g) const
{
    std::uint64_t planeBytes = static_cast<std::uint64_t>(_config.res) *
                               _config.res * texelBytes();
    return planeBase(g) + planeBytes;
}

void
TensoRFEncoding::groupCoords(int g, const Vec3 &pn, float &u, float &v,
                             float &w) const
{
    float s = static_cast<float>(_config.res - 1);
    u = clamp(pn[kAxisU[g]], 0.0f, 1.0f) * s;
    v = clamp(pn[kAxisV[g]], 0.0f, 1.0f) * s;
    w = clamp(pn[kAxisW[g]], 0.0f, 1.0f) * s;
}

void
TensoRFEncoding::bake(const AnalyticField &field)
{
    const int n = _config.res;
    const int R = _config.ranks;
    const Aabb &b = field.bounds();
    Vec3 e = b.extent();

    // Dense ground-truth tensor, one slab of channels at a time is not
    // needed — all channels fit comfortably for the working resolutions.
    // z-planes sample on the pool, each writing only its own entries.
    std::vector<std::vector<float>> dense(
        kFeatureDim,
        std::vector<float>(static_cast<std::size_t>(n) * n * n));
    parallelFor(0, n, 1, [&](std::int64_t z0, std::int64_t z1) {
        float feat[kFeatureDim];
        std::size_t i = static_cast<std::size_t>(z0) * n * n;
        for (int z = static_cast<int>(z0); z < z1; ++z) {
            for (int y = 0; y < n; ++y) {
                for (int x = 0; x < n; ++x, ++i) {
                    Vec3 p{b.lo.x + e.x * x / (n - 1),
                           b.lo.y + e.y * y / (n - 1),
                           b.lo.z + e.z * z / (n - 1)};
                    encodeBakedPoint(field.bakePoint(p), feat);
                    for (int ch = 0; ch < kFeatureDim; ++ch)
                        dense[ch][i] = feat[ch];
                }
            }
        }
    });

    auto at = [n](const std::vector<float> &t, int x, int y, int z) {
        return t[(static_cast<std::size_t>(z) * n + y) * n + x];
    };
    auto coord = [n](int u, int v, int w, int g) {
        int xyz[3];
        xyz[kAxisU[g]] = u;
        xyz[kAxisV[g]] = v;
        xyz[kAxisW[g]] = w;
        return std::array<int, 3>{xyz[0], xyz[1], xyz[2]};
    };

    // The channels fit on the pool: each deflates only its own residual
    // and writes disjoint plane/line entries, so the fit is the same at
    // any thread count.
    parallelForOuter(kFeatureDim, [&](std::int64_t task) {
        const int ch = static_cast<int>(task);
        std::vector<float> plane(static_cast<std::size_t>(n) * n);
        std::vector<float> line(n);
        std::vector<float> &residual = dense[ch];
        for (int g = 0; g < 3; ++g) {
            for (int r = 0; r < R; ++r) {
                // Rank-1 (plane x line) fit by alternating projections.
                std::fill(line.begin(), line.end(), 1.0f);
                for (int it = 0; it < _config.alsIters; ++it) {
                    float lineSq = 0.0f;
                    for (int w = 0; w < n; ++w)
                        lineSq += line[w] * line[w];
                    if (lineSq < 1e-20f)
                        break;
                    for (int v = 0; v < n; ++v) {
                        for (int u = 0; u < n; ++u) {
                            float acc = 0.0f;
                            for (int w = 0; w < n; ++w) {
                                auto c = coord(u, v, w, g);
                                acc += at(residual, c[0], c[1], c[2]) *
                                       line[w];
                            }
                            plane[static_cast<std::size_t>(v) * n + u] =
                                acc / lineSq;
                        }
                    }
                    float planeSq = 0.0f;
                    for (float pv : plane)
                        planeSq += pv * pv;
                    if (planeSq < 1e-20f)
                        break;
                    for (int w = 0; w < n; ++w) {
                        float acc = 0.0f;
                        for (int v = 0; v < n; ++v) {
                            for (int u = 0; u < n; ++u) {
                                auto c = coord(u, v, w, g);
                                acc +=
                                    at(residual, c[0], c[1], c[2]) *
                                    plane[static_cast<std::size_t>(v) * n +
                                          u];
                            }
                        }
                        line[w] = acc / planeSq;
                    }
                }

                // Store the component and deflate the residual.
                for (int v = 0; v < n; ++v)
                    for (int u = 0; u < n; ++u)
                        planeRef(g, u, v, r, ch) =
                            plane[static_cast<std::size_t>(v) * n + u];
                for (int w = 0; w < n; ++w)
                    lineRef(g, w, r, ch) = line[w];
                for (int w = 0; w < n; ++w) {
                    for (int v = 0; v < n; ++v) {
                        for (int u = 0; u < n; ++u) {
                            auto c = coord(u, v, w, g);
                            residual[(static_cast<std::size_t>(c[2]) * n +
                                      c[1]) *
                                         n +
                                     c[0]] -=
                                plane[static_cast<std::size_t>(v) * n + u] *
                                line[w];
                        }
                    }
                }
            }
        }
    });

    if (_featuresFp16)
        applyFp16Quantization(); // sticky: re-bakes stay 2-byte-valued
}

void
TensoRFEncoding::gatherFeature(const Vec3 &pn, float *out) const
{
    const int n = _config.res;
    const int R = _config.ranks;
    for (int ch = 0; ch < kFeatureDim; ++ch)
        out[ch] = 0.0f;

    for (int g = 0; g < 3; ++g) {
        float fu, fv, fw;
        groupCoords(g, pn, fu, fv, fw);
        int u0 = std::min(static_cast<int>(fu), n - 2);
        int v0 = std::min(static_cast<int>(fv), n - 2);
        int w0 = std::min(static_cast<int>(fw), n - 2);
        float tu = fu - u0;
        float tv = fv - v0;
        float tw = fw - w0;

        float wu[2] = {1.0f - tu, tu};
        float wv[2] = {1.0f - tv, tv};
        float ww[2] = {1.0f - tw, tw};

        for (int r = 0; r < R; ++r) {
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                float pval = 0.0f;
                for (int dv = 0; dv < 2; ++dv)
                    for (int du = 0; du < 2; ++du)
                        pval += wu[du] * wv[dv] *
                                planeAt(g, u0 + du, v0 + dv, r, ch);
                float lval = ww[0] * lineAt(g, w0, r, ch) +
                             ww[1] * lineAt(g, w0 + 1, r, ch);
                out[ch] += pval * lval;
            }
        }
    }
}

void
TensoRFEncoding::gatherFeatureBatch(const Vec3 *pn, int n,
                                    float *out) const
{
    using simd::VecF;
    using simd::VecI;
    constexpr int L = VecF::kLanes;

    // The vector kernel indexes with int32 lanes: factorizations whose
    // scaled plane-texel index could exceed INT32_MAX take the
    // reference loop, which indexes with size_t.
    const bool indexable =
        static_cast<std::uint64_t>(_config.res) * _config.res *
            _config.ranks * kFeatureDim <=
        0x7fffffffull;
    if (!indexable) {
        Encoding::gatherFeatureBatch(pn, n, out);
        return;
    }

    // Vectorized grouping-major sweep, one lane per sample: per block
    // the four bilinear plane weights, the scaled texel indices and the
    // two line indices are computed once, then each (rank, channel)
    // slice runs 4 plane + 2 line gathers and accumulates with the
    // exact scalar expressions ((wu*wv)*P summed dv-major,
    // ww0*l0 + ww1*l1, out += pval*lval) — bit-identical to
    // gatherFeature(). The last block runs at full width over padded
    // positions and accumulates in a block-sized scratch across the
    // groupings; its live columns are copied out at the end.
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(n) * kFeatureDim; ++i)
        out[i] = 0.0f;
    const int full = n / L * L;
    float last[kFeatureDim][L] = {};
    const PositionsSoA pos = transposePositionsSoA(pn, n);
    const float *axes[3] = {pos.x, pos.y, pos.z};

    const int res = _config.res;
    const int R = _config.ranks;
    const int texelElems = R * kFeatureDim;
    const VecF vZero = VecF::zero();
    const VecF vOne = VecF::broadcast(1.0f);
    const VecF vScale = VecF::broadcast(static_cast<float>(res - 1));
    const VecI vHi = VecI::broadcast(res - 2);
    const VecI vRes = VecI::broadcast(res);
    const VecI vTexel = VecI::broadcast(texelElems);

    for (int g = 0; g < 3; ++g) {
        const float *pu = axes[kAxisU[g]];
        const float *pv = axes[kAxisV[g]];
        const float *pw = axes[kAxisW[g]];
        const float *plane = _planes[g].data();
        const float *line = _lines[g].data();

        for (int s0 = 0; s0 < n; s0 += L) {
            const VecF fu =
                vmin(vmax(VecF::load(pu + s0), vZero), vOne) * vScale;
            const VecF fv =
                vmin(vmax(VecF::load(pv + s0), vZero), vOne) * vScale;
            const VecF fw =
                vmin(vmax(VecF::load(pw + s0), vZero), vOne) * vScale;
            const VecI u0 = vmin(truncToInt(fu), vHi);
            const VecI v0 = vmin(truncToInt(fv), vHi);
            const VecI w0 = vmin(truncToInt(fw), vHi);
            const VecF tu = fu - toFloat(u0);
            const VecF tv = fv - toFloat(v0);
            const VecF tw = fw - toFloat(w0);

            const VecF wu[2] = {vOne - tu, tu};
            const VecF wv[2] = {vOne - tv, tv};
            const VecF ww0 = vOne - tw;
            const VecF ww1 = tw;

            // Scaled element indices of the 4 plane texels (dv-major,
            // matching the scalar accumulation order) and 2 line taps.
            VecF wuv[4];
            VecI tIdx[4];
            for (int dv = 0; dv < 2; ++dv)
                for (int du = 0; du < 2; ++du) {
                    wuv[dv * 2 + du] = wu[du] * wv[dv];
                    const VecI u = du ? u0 + VecI::broadcast(1) : u0;
                    const VecI v = dv ? v0 + VecI::broadcast(1) : v0;
                    tIdx[dv * 2 + du] = (v * vRes + u) * vTexel;
                }
            const VecI lIdx0 = w0 * vTexel;
            const VecI lIdx1 = lIdx0 + vTexel;

            for (int r = 0; r < R; ++r) {
                for (int ch = 0; ch < kFeatureDim; ++ch) {
                    const int off = r * kFeatureDim + ch;
                    VecF pval = VecF::zero();
                    for (int t = 0; t < 4; ++t)
                        pval = simd::madd(
                            wuv[t], simd::gather(plane + off, tIdx[t]),
                            pval);
                    const VecF lval =
                        ww0 * simd::gather(line + off, lIdx0) +
                        ww1 * simd::gather(line + off, lIdx1);
                    float *o =
                        s0 < full
                            ? out + static_cast<std::size_t>(ch) * n + s0
                            : last[ch];
                    simd::madd(pval, lval, VecF::load(o)).store(o);
                }
            }
        }
    }

    for (int ch = 0; ch < kFeatureDim; ++ch)
        std::copy_n(last[ch], n - full,
                    out + static_cast<std::size_t>(ch) * n + full);
}

void
TensoRFEncoding::quantizeFeaturesFp16()
{
    // Unlike the grids' plain rounding, the rebalance below is not a
    // no-op on already-quantized tables (the factor re-derived from
    // rounded maxima is ~1 but not exactly 1), so idempotency comes
    // from the flag: quantized tables are only re-processed after a
    // re-bake refreshes them.
    if (_featuresFp16)
        return;
    _featuresFp16 = true;
    applyFp16Quantization();
}

void
TensoRFEncoding::applyFp16Quantization()
{
    const int res = _config.res;
    const int R = _config.ranks;

    // The ALS fit leaves rank-1 components with wildly unbalanced
    // magnitudes (a huge line against a tiny plane) whose larger half
    // overflows fp16 to inf — and inf * 0 turns gathers into NaN. A
    // rank-1 outer product is invariant under (plane * a, line / a),
    // so rebalance each (grouping, rank, channel) component to equal
    // peak magnitudes before rounding; both halves then land well
    // inside the fp16 range (their geometric mean is a feature-scale
    // value).
    for (int g = 0; g < 3; ++g) {
        for (int r = 0; r < R; ++r) {
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                float maxP = 0.0f, maxL = 0.0f;
                for (int v = 0; v < res; ++v)
                    for (int u = 0; u < res; ++u)
                        maxP = std::max(
                            maxP, std::fabs(planeAt(g, u, v, r, ch)));
                for (int w = 0; w < res; ++w)
                    maxL =
                        std::max(maxL, std::fabs(lineAt(g, w, r, ch)));
                if (maxP <= 0.0f || maxL <= 0.0f)
                    continue;
                const float a = std::sqrt(maxL / maxP);
                const float inv = 1.0f / a;
                for (int v = 0; v < res; ++v)
                    for (int u = 0; u < res; ++u)
                        planeRef(g, u, v, r, ch) *= a;
                for (int w = 0; w < res; ++w)
                    lineRef(g, w, r, ch) *= inv;
            }
        }
        simd::roundBufferThroughFp16(_planes[g].data(), _planes[g].size());
        simd::roundBufferThroughFp16(_lines[g].data(), _lines[g].size());
    }
}

void
TensoRFEncoding::gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                                std::vector<MemAccess> &out) const
{
    const int n = _config.res;
    for (int g = 0; g < 3; ++g) {
        float fu, fv, fw;
        groupCoords(g, pn, fu, fv, fw);
        int u0 = std::min(static_cast<int>(fu), n - 2);
        int v0 = std::min(static_cast<int>(fv), n - 2);
        int w0 = std::min(static_cast<int>(fw), n - 2);
        for (int dv = 0; dv < 2; ++dv) {
            for (int du = 0; du < 2; ++du) {
                std::uint64_t texel =
                    static_cast<std::uint64_t>(v0 + dv) * n + (u0 + du);
                out.push_back(MemAccess{
                    planeBase(g) + texel * texelBytes(), texelBytes(),
                    rayId});
            }
        }
        for (int dw = 0; dw < 2; ++dw) {
            out.push_back(MemAccess{
                lineBase(g) +
                    static_cast<std::uint64_t>(w0 + dw) * texelBytes(),
                texelBytes(), rayId});
        }
    }
}

StreamPlan
TensoRFEncoding::streamingFootprint(
    const std::vector<Vec3> &positions) const
{
    // Planes and lines are low-dimensional, so the memory-centric order
    // streams 2D texel blocks (and whole lines) with no random residue.
    StreamPlan plan;
    const int n = _config.res;
    const int bt = _config.blockTexels;
    const std::uint64_t blockBytes =
        static_cast<std::uint64_t>(bt) * bt * texelBytes();
    const std::uint32_t blocksPerAxis = (n + bt - 1) / bt;

    std::unordered_set<std::uint64_t> touchedBlocks;
    std::unordered_set<std::uint64_t> touchedLineChunks;

    for (const Vec3 &pn : positions) {
        for (int g = 0; g < 3; ++g) {
            float fu, fv, fw;
            groupCoords(g, pn, fu, fv, fw);
            int u0 = std::min(static_cast<int>(fu), n - 2);
            int v0 = std::min(static_cast<int>(fv), n - 2);
            int w0 = std::min(static_cast<int>(fw), n - 2);
            std::uint64_t seen[4];
            int nSeen = 0;
            for (int dv = 0; dv < 2; ++dv) {
                for (int du = 0; du < 2; ++du) {
                    std::uint64_t blk =
                        (static_cast<std::uint64_t>(g) << 48) |
                        (static_cast<std::uint64_t>((v0 + dv) / bt) *
                             blocksPerAxis +
                         (u0 + du) / bt);
                    touchedBlocks.insert(blk);
                    bool dup = false;
                    for (int i = 0; i < nSeen; ++i)
                        dup = dup || seen[i] == blk;
                    if (!dup)
                        seen[nSeen++] = blk;
                }
            }
            plan.ritEntries += nSeen;
            touchedLineChunks.insert((static_cast<std::uint64_t>(g) << 48) |
                                     static_cast<std::uint64_t>(w0 / bt));
        }
    }

    plan.streamedBytes =
        touchedBlocks.size() * blockBytes +
        touchedLineChunks.size() * bt * texelBytes();
    plan.ritBytes = plan.ritEntries * 48;
    return plan;
}

} // namespace cicero
