/**
 * @file
 * The pixel-centric NeRF renderer: ties a Scene, an Encoding, a Decoder
 * and a RaySampler into the three-stage pipeline of Fig. 1
 * (Indexing -> Feature Gathering -> Feature Computation) and accounts
 * the per-stage work. Also provides the sparse-pixel path that SPARW's
 * disocclusion fill uses, and a ground-truth renderer that marches the
 * analytic field directly.
 */

#ifndef CICERO_NERF_RENDERER_HH
#define CICERO_NERF_RENDERER_HH

#include <memory>

#include "common/geometry.hh"
#include "common/image.hh"
#include "memory/trace.hh"
#include "nerf/decoder.hh"
#include "nerf/encoding.hh"
#include "nerf/sampler.hh"
#include "nerf/workload.hh"
#include "scene/scene.hh"

namespace cicero {

/**
 * How densely a walk's ray packets fed the decoder. A pass is one
 * Decoder::decodeBlocksFused call over the current blocks of a
 * packet's live rays (see NerfModel::render).
 */
struct FusionStats
{
    std::uint64_t blocks = 0;      //!< ray blocks decoded
    std::uint64_t samples = 0;     //!< samples decoded
    std::uint64_t passes = 0;      //!< decodeBlocksFused calls
    std::uint64_t fusedPasses = 0; //!< passes decoding > 1 block
    /**
     * Passes mixing serve sessions: always 0, since a packet holds
     * rays of one walk. Kept for readers of the serve counters.
     */
    std::uint64_t crossSessionPasses = 0;
    std::uint64_t maxBatchSamples = 0; //!< widest pass (samples)

    /** Aggregate (sums counts, maxes maxBatchSamples). */
    FusionStats &operator+=(const FusionStats &o);
};

/**
 * Rays per packet: the render walks march this many consecutive rays
 * of one pool chunk in lock step, so each round decodes up to this
 * many ray blocks in one fused decoder call. A packet never spans
 * chunks.
 */
constexpr int kPacketRays = 8;

/** The rays one walk visits (defined in renderer.cc). */
struct RaySet;

/** Where a walk runs: on the pool or inline (defined in renderer.cc). */
enum class Walk;

/** One camera ray of a walk: its pixel and its id (y * width + x). */
struct PixelRay
{
    int px = 0;
    int py = 0;
    std::uint32_t id = 0;
};

/** Output of rendering a frame (or a sparse subset of it). */
struct RenderResult
{
    Image image;
    DepthMap depth;
    StageWork work;
};

/**
 * A complete NeRF model instance bound to one scene.
 */
class NerfModel
{
  public:
    /**
     * @param scene          the scene this model was "trained" (baked) on
     * @param encoding       feature representation (takes ownership)
     * @param nominalMlpMacs MACs/sample of the paper-size MLP, accounted
     *                       in StageWork::mlpMacs
     * @param sampler        sampling configuration
     * @param seed           decoder residual seed
     */
    NerfModel(const Scene &scene, std::unique_ptr<Encoding> encoding,
              std::uint64_t nominalMlpMacs, const SamplerConfig &sampler,
              std::uint64_t seed = 7);

    const Encoding &encoding() const { return *_encoding; }
    Encoding &encoding() { return *_encoding; }
    const OccupancyGrid &occupancy() const { return _occupancy; }
    const Scene &scene() const { return _scene; }
    const Decoder &decoder() const { return _decoder; }
    const RaySampler &sampler() const { return _sampler; }

    /** Total model size: feature storage plus MLP weights. */
    std::uint64_t modelBytes() const;

    /**
     * Render a full frame, pixel-centric (the baseline order).
     *
     * Rays march in packets of consecutive rays: each round, one
     * Encoding::gatherFeatureBatch call gathers the next sample block
     * (8 samples, doubling to 64) of every live ray of a packet and
     * the packet decodes all of those blocks in one
     * Decoder::decodeBlocksFused call. The fused decode gives every
     * sample the bits of a scalar Decoder::decode() and each ray sees
     * the same block sequence, so the packet width never changes
     * bits. Runs tile-parallel on the global pool (common/parallel.hh)
     * with bit-identical output at any thread count. The render walk
     * records no gather trace: traceWorkload() is the one traced walk.
     */
    RenderResult render(const Camera &camera) const;

    /**
     * Serving-path render of the contiguous row range
     * [@p rowBegin, @p rowEnd): the building block of the serve
     * layer's intra-frame ray-block fan-out. Walks the rows serially
     * on the *calling* thread (no internal parallelFor — the serve
     * layer owns the fan-out), with the same ray ids, packets and
     * per-sample math as render(), writing into @p image / @p depth
     * (pre-sized to the camera resolution). Disjoint row ranges
     * compose to a frame bit-identical to render(). Adds the range's
     * packet decode counts to @p fusion when given. Returns the
     * StageWork for the range; StageWork is all summed counters, so
     * accumulation order across blocks is irrelevant.
     */
    StageWork renderServeRows(const Camera &camera, int rowBegin,
                              int rowEnd, Image &image, DepthMap &depth,
                              FusionStats *fusion = nullptr) const;

    /**
     * Render only @p pixelIds (y * width + x), writing into @p image and
     * @p depth which must be pre-sized; used for sparse NeRF rendering of
     * disoccluded pixels (Eq. 4).
     */
    StageWork renderPixels(const Camera &camera,
                           const std::vector<std::uint32_t> &pixelIds,
                           Image &image, DepthMap &depth) const;

    /**
     * Workload-trace mode: walk the frame the way the *real* renderer
     * does work, without producing an image. Every marched in-bounds
     * sample gathers its features (real NeRF models probe density per
     * sample — this is what makes Feature Gathering dominate, Fig. 3),
     * while only occupied samples are charged MLP work (empty samples
     * short-circuit Feature Computation). Emits the full gather access
     * stream into @p trace.
     */
    StageWork traceWorkload(const Camera &camera,
                            TraceSink *trace = nullptr) const;

    /** Workload-trace of a sparse pixel set (SPARW's Eq. 4 path). */
    StageWork
    traceWorkloadPixels(const Camera &camera,
                        const std::vector<std::uint32_t> &pixelIds,
                        TraceSink *trace = nullptr) const;

    /**
     * Normalized positions of the samples whose features the frame must
     * actually compute — the occupied (shaded) samples. This is what the
     * Ray Index Table records: Indexing consults the SRAM-resident
     * occupancy grid, so empty samples never enter the RIT and the
     * fully-streaming flow never gathers them. Input to
     * Encoding::streamingFootprint.
     */
    std::vector<Vec3> collectSamplePositions(const Camera &camera) const;

    /** Shaded-sample positions for a sparse pixel subset. */
    std::vector<Vec3>
    collectSamplePositionsPixels(
        const Camera &camera,
        const std::vector<std::uint32_t> &pixelIds) const;

    /** Per-sample nominal MLP MACs (Feature Computation accounting). */
    std::uint64_t nominalMlpMacs() const { return _nominalMlpMacs; }

    /**
     * Quantize the whole model to fp16 storage: encoding features
     * (Encoding::quantizeFeaturesFp16) and decoder MLP weights
     * (Decoder::quantizeWeightsFp16). Halves the resident footprint —
     * the serve layer's shared-model cache keys fp16 and fp32
     * variants separately so sessions pick one deliberately. Not
     * thread-safe against concurrent renders; call before sharing.
     */
    void quantizeFp16();

  private:
    /**
     * The one render walk behind render(), renderPixels() and
     * renderServeRows(): renders every ray of @p rays into @p image /
     * @p depth, on the pool or on the calling thread as @p mode says,
     * adds the packet decode counts to @p fusion when given and
     * returns the rays' StageWork.
     */
    StageWork renderRays(const Camera &camera, const RaySet &rays,
                         Walk mode, Image &image, DepthMap &depth,
                         FusionStats *fusion) const;

    /**
     * Render one packet of rays into @p image / @p depth, charging
     * @p work and @p fusion.
     */
    void renderPacket(const Camera &camera, const PixelRay *rays,
                      int count, Image &image, DepthMap &depth,
                      StageWork &work, FusionStats &fusion) const;

    /**
     * The workload-trace walk behind traceWorkload() and
     * traceWorkloadPixels().
     */
    StageWork traceRays(const Camera &camera, const RaySet &rays,
                        TraceSink *trace) const;

    /**
     * Charge one ray to @p work: @p marched samples indexed,
     * @p gathered samples' features fetched, @p shaded samples through
     * Feature Computation and compositing.
     */
    void chargeRay(StageWork &work, std::uint64_t marched,
                   std::uint64_t gathered, std::uint64_t shaded) const;

    Scene _scene;
    std::unique_ptr<Encoding> _encoding;
    Decoder _decoder;
    OccupancyGrid _occupancy;
    RaySampler _sampler;
    RaySampler _workloadSampler; //!< no occupancy skip: every sample
    std::uint64_t _nominalMlpMacs;
};

/**
 * Ground-truth render: march the analytic field directly with fine
 * steps. This is the PSNR reference for every quality experiment.
 */
RenderResult renderGroundTruth(const Scene &scene, const Camera &camera,
                               int stepsAcross = 384);

} // namespace cicero

#endif // CICERO_NERF_RENDERER_HH
