/**
 * @file
 * The Encoding interface: a NeRF model's spatial feature representation.
 *
 * An encoding supports three queries:
 *  - gatherFeature(): the functional path — interpolate the feature
 *    vector at a normalized scene position;
 *  - gatherAccesses(): the instrumentation path — the DRAM accesses that
 *    gathering at this position performs, emitted for the memory models;
 *  - streamingFootprint(): what the fully-streaming data flow of
 *    Sec. IV-A would move for a set of sample positions (streamed MVoxel
 *    bytes, residual random bytes, RIT size).
 *
 * Both gather queries also come in batched form (gatherFeatureBatch /
 * gatherAccessesBatch) over a span of sample positions — one call per
 * ray block instead of one per sample. The batched feature buffer is
 * channel-major (SoA): channel c of sample i lives at out[c * n + i],
 * so one vector lane sweep covers a whole ray block — the layout the
 * SIMD 8-corner kernels (src/common/simd.hh) and the batched decoder
 * consume directly.
 *
 * The base class's batch loops over the per-sample queries are every
 * encoding's scalar path: the in-tree encodings override
 * gatherFeatureBatch with one vector kernel, which runs on every
 * backend (the emulated one of a scalar build included), and call the
 * base loop only when their table is too large for int32 lanes; the
 * per-sample gatherFeature() is the kernels' test oracle.
 * gatherAccessesBatch is one non-virtual walker over gatherAccesses()
 * for every encoding.
 */

#ifndef CICERO_NERF_ENCODING_HH
#define CICERO_NERF_ENCODING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.hh"
#include "common/simd.hh"
#include "memory/trace.hh"
#include "scene/field.hh"

namespace cicero {

/** Feature channels are stored as 2-byte (fp16-class) values in DRAM. */
constexpr std::uint32_t kBytesPerChannel = 2;

/** featureDim() values up to this bound use a stack temporary in the
 *  reference batch loop; wider encodings take a heap path. */
constexpr int kMaxFeatureDim = 32;

/** A position span transposed into SoA axis arrays (thread-local
 *  backing — valid until the calling thread's next transpose). */
struct PositionsSoA
{
    const float *x;
    const float *y;
    const float *z;
};

/**
 * Transpose @p n positions into thread-local SoA axis arrays so a
 * vector kernel can lane-sweep one coordinate at a time. Each array
 * is padded to whole lane blocks: the dead lanes of the last block
 * repeat pn[n - 1], so a kernel running that block at full width
 * indexes inside its table in every lane.
 */
inline PositionsSoA
transposePositionsSoA(const Vec3 *pn, int n)
{
    constexpr int L = simd::VecF::kLanes;
    thread_local std::vector<float> buf;
    const int padded = (n + L - 1) / L * L;
    if (buf.size() < 3 * static_cast<std::size_t>(padded))
        buf.resize(3 * static_cast<std::size_t>(padded));
    float *x = buf.data();
    float *y = x + padded;
    float *z = y + padded;
    for (int i = 0; i < n; ++i) {
        x[i] = pn[i].x;
        y[i] = pn[i].y;
        z[i] = pn[i].z;
    }
    for (int i = n; i < padded; ++i) {
        x[i] = pn[n - 1].x;
        y[i] = pn[n - 1].y;
        z[i] = pn[n - 1].z;
    }
    return {x, y, z};
}

/**
 * What the fully-streaming data flow moves for a workload. All byte
 * counts are DRAM traffic for the voxel/feature structures only.
 */
struct StreamPlan
{
    std::uint64_t streamedBytes = 0; //!< MVoxel chunks, read exactly once
    std::uint64_t randomBytes = 0;   //!< residual non-streamable traffic
    std::uint64_t ritEntries = 0;    //!< Ray Index Table entries built
    std::uint64_t ritBytes = 0;      //!< RIT DRAM footprint (48 B/entry)
};

/**
 * Abstract spatial feature encoding over the unit cube [0,1]^3.
 */
class Encoding
{
  public:
    virtual ~Encoding() = default;

    virtual std::string name() const = 0;

    /** Channels of the interpolated feature vector. */
    virtual int featureDim() const = 0;

    /** Bytes of feature storage actually allocated. */
    virtual std::uint64_t modelBytes() const = 0;

    /** Vertex/texel fetches issued per sample gather. */
    virtual std::uint32_t fetchesPerSample() const = 0;

    /** Arithmetic ops of one interpolation. */
    virtual std::uint64_t interpOpsPerSample() const = 0;

    /** Indexing-stage ops per sample (voxel IDs, hashes, projections). */
    virtual std::uint64_t indexOpsPerSample() const = 0;

    /** Bake the encoding from the analytic ground-truth field. */
    virtual void bake(const AnalyticField &field) = 0;

    /**
     * True when feature storage is fp16-quantized — i.e. the functional
     * arrays really hold 2-byte-valued channels, matching the
     * kBytesPerChannel DRAM accounting. Trace captures record this so
     * offline tools can tell whether a trace's featureBytes reflects
     * the capture-time storage (see TraceFileMeta::storageMode).
     */
    virtual bool featuresFp16() const { return false; }

    /**
     * Round feature storage to fp16 values (sticky across re-bakes).
     * Default no-op for external encodings without a 2-byte mode; the
     * in-tree encodings all override.
     */
    virtual void quantizeFeaturesFp16() {}

    /**
     * Interpolate the feature at normalized position @p pn in [0,1]^3.
     * @param out featureDim() floats.
     */
    virtual void gatherFeature(const Vec3 &pn, float *out) const = 0;

    /**
     * Append the DRAM accesses of gathering at @p pn to @p out.
     *
     * Contract: exactly fetchesPerSample() accesses are appended per
     * call, in a deterministic per-sample order — callers slice batched
     * access streams by that stride.
     */
    virtual void gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                                std::vector<MemAccess> &out) const = 0;

    /**
     * Interpolate the features of @p n samples in one call.
     *
     * @param pn  n normalized positions (contiguous).
     * @param out n * featureDim() floats, channel-major (SoA): channel
     *            c of sample i lives at out[c * n + i].
     *
     * Results are bit-identical to n gatherFeature() calls —
     * implementations may reorder *across* samples (level-major or
     * grouping-major sweeps, vector lane blocks) but must preserve
     * each sample's accumulation order. This base loop is the
     * reference: n gatherFeature() calls, transposed.
     */
    virtual void
    gatherFeatureBatch(const Vec3 *pn, int n, float *out) const
    {
        const int dim = featureDim();
        float stackTmp[kMaxFeatureDim];
        std::vector<float> heapTmp;
        float *tmp = stackTmp;
        if (dim > kMaxFeatureDim) { // wide external encodings
            heapTmp.resize(dim);
            tmp = heapTmp.data();
        }
        for (int i = 0; i < n; ++i) {
            gatherFeature(pn[i], tmp);
            for (int c = 0; c < dim; ++c)
                out[static_cast<std::size_t>(c) * n + i] = tmp[c];
        }
    }

    /**
     * Append the DRAM accesses of gathering @p n samples (all issued by
     * ray @p rayId) to @p out: n gatherAccesses() calls, sample-major,
     * fetchesPerSample() entries per sample, into space reserved once.
     */
    void
    gatherAccessesBatch(const Vec3 *pn, int n, std::uint32_t rayId,
                        std::vector<MemAccess> &out) const
    {
        out.reserve(out.size() +
                    static_cast<std::size_t>(n) * fetchesPerSample());
        for (int i = 0; i < n; ++i)
            gatherAccesses(pn[i], rayId, out);
    }

    /**
     * Compute the fully-streaming footprint for @p positions (normalized
     * sample positions of one frame or batch).
     */
    virtual StreamPlan
    streamingFootprint(const std::vector<Vec3> &positions) const = 0;
};

} // namespace cicero

#endif // CICERO_NERF_ENCODING_HH
