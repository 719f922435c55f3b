/**
 * @file
 * Factorized-tensor encoding (TensoRF-like VM decomposition).
 *
 * The field is represented as a sum over three axis groupings of
 * rank-R (plane x line) outer products:
 *   T[ch](x,y,z) ~= sum_g sum_r P_{g,r}[ch](u,v) * L_{g,r}[ch](w)
 * with (u,v | w) = (x,y | z), (x,z | y), (y,z | x).
 *
 * Baking runs a greedy rank-1 deflation (alternating least squares power
 * iterations) against the dense ground-truth tensor, so reconstruction
 * error behaves like a real low-rank fit.
 *
 * Plane texels store all ranks x channels contiguously, so a sample
 * gather issues 4 plane + 2 line fetches per grouping (18 per sample).
 */

#ifndef CICERO_NERF_TENSORF_HH
#define CICERO_NERF_TENSORF_HH

#include "nerf/decoder.hh"
#include "nerf/encoding.hh"

namespace cicero {

/** TensoRF shape parameters. */
struct TensoRFConfig
{
    int res = 96;   //!< grid points per axis for planes and lines
    int ranks = 4;  //!< components per axis grouping
    int alsIters = 3; //!< power-iteration sweeps per rank-1 fit
    int blockTexels = 8; //!< streaming block edge (8x8 texels)
};

class TensoRFEncoding : public Encoding
{
  public:
    explicit TensoRFEncoding(const TensoRFConfig &config = {});

    std::string name() const override { return "tensorf"; }
    int featureDim() const override { return kFeatureDim; }
    std::uint64_t modelBytes() const override;
    std::uint32_t fetchesPerSample() const override { return 3 * 6; }
    std::uint64_t interpOpsPerSample() const override;
    std::uint64_t indexOpsPerSample() const override { return 3 * 12; }

    void bake(const AnalyticField &field) override;
    void gatherFeature(const Vec3 &pn, float *out) const override;
    void gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                        std::vector<MemAccess> &out) const override;
    void gatherFeatureBatch(const Vec3 *pn, int n,
                            float *out) const override;
    StreamPlan
    streamingFootprint(const std::vector<Vec3> &positions) const override;

    const TensoRFConfig &config() const { return _config; }

    /**
     * Round every stored plane/line channel to its nearest fp16 value —
     * after this the functional tensors hold exactly what the 2-byte
     * DRAM storage priced by texelBytes() holds. Sticky across
     * re-bakes. Idempotent.
     */
    void quantizeFeaturesFp16();

    /** Whether feature storage has been quantized to fp16 values. */
    bool featuresFp16() const { return _featuresFp16; }

    /** Channel @p ch of rank @p r of grouping @p g's plane at (u, v). */
    float planeAt(int g, int u, int v, int r, int ch) const;
    /** Channel @p ch of rank @p r of grouping @p g's line at @p w. */
    float lineAt(int g, int w, int r, int ch) const;

  private:
    /** Bytes of one plane texel (ranks x channels). */
    std::uint32_t texelBytes() const
    {
        return _config.ranks * kFeatureDim * kBytesPerChannel;
    }

    float &planeRef(int g, int u, int v, int r, int ch);
    float &lineRef(int g, int w, int r, int ch);

    std::uint64_t planeBase(int g) const;
    std::uint64_t lineBase(int g) const;

    /** Map pn to (u, v, w) continuous grid coords for grouping @p g. */
    void groupCoords(int g, const Vec3 &pn, float &u, float &v,
                     float &w) const;

    /** Rebalance rank-1 component scales and round through fp16. */
    void applyFp16Quantization();

    TensoRFConfig _config;
    bool _featuresFp16 = false;
    // _planes[g]: res*res texels x ranks x channels (texel-major).
    std::vector<float> _planes[3];
    // _lines[g]: res entries x ranks x channels.
    std::vector<float> _lines[3];
};

} // namespace cicero

#endif // CICERO_NERF_TENSORF_HH
