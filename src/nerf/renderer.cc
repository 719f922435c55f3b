#include "nerf/renderer.hh"

#include <algorithm>

#include "common/parallel.hh"
#include "nerf/volume_renderer.hh"

namespace cicero {

/**
 * The rays one walk visits, in canonical (serial) order: the rows
 * [rowBegin, rowEnd) of the frame in raster order, or an explicit
 * pixel-id list in list order. A ray's id is always its pixel id
 * (y * width + x). A walk splits the set into chunks of items: whole
 * rows, or list entries.
 */
struct RaySet
{
    int width = 0;
    int rowBegin = 0;
    int rowEnd = 0;
    const std::vector<std::uint32_t> *pixels = nullptr;

    static RaySet
    rows(const Camera &camera, int rowBegin, int rowEnd)
    {
        return RaySet{camera.width, rowBegin, rowEnd, nullptr};
    }

    static RaySet
    list(const Camera &camera, const std::vector<std::uint32_t> &ids)
    {
        return RaySet{camera.width, 0, 0, &ids};
    }

    std::int64_t
    items() const
    {
        return pixels ? static_cast<std::int64_t>(pixels->size())
                      : rowEnd - rowBegin;
    }

    /**
     * Call @p fn(rays, count) for every packet of up to kPacketRays
     * consecutive rays of items [b, e).
     */
    template <typename Fn>
    void
    forEachPacket(std::int64_t b, std::int64_t e, Fn &&fn) const
    {
        PixelRay packet[kPacketRays];
        int count = 0;
        auto push = [&](std::uint32_t id) {
            packet[count++] = PixelRay{static_cast<int>(id % width),
                                       static_cast<int>(id / width), id};
            if (count == kPacketRays) {
                fn(packet, count);
                count = 0;
            }
        };
        if (pixels) {
            for (std::int64_t k = b; k < e; ++k)
                push((*pixels)[k]);
        } else {
            const std::uint32_t first =
                static_cast<std::uint32_t>(rowBegin + b) * width;
            const std::uint32_t last =
                static_cast<std::uint32_t>(rowBegin + e) * width;
            for (std::uint32_t id = first; id < last; ++id)
                push(id);
        }
        if (count > 0)
            fn(packet, count);
    }
};

enum class Walk
{
    Parallel, //!< chunked on the global pool
    Serial,   //!< one chunk on the calling thread
};

namespace {

/**
 * Batched decode block sizing: start small and grow. Most rays
 * early-terminate a few samples into the first surface, so a large
 * fixed block would gather and decode features the compositor never
 * consumes; geometric growth keeps that waste below one small block
 * while long rays still reach the wide, vectorizing block size.
 */
constexpr int kFirstDecodeBlock = 8;
constexpr int kMaxDecodeBlock = 64;

/** A render walk's per-chunk accumulator. */
struct RenderAcc
{
    StageWork work;
    FusionStats fusion;
};

RenderAcc
foldChunks(const std::vector<RenderAcc> &parts)
{
    RenderAcc total;
    for (const RenderAcc &a : parts) {
        total.work += a.work;
        total.fusion += a.fusion;
    }
    return total;
}

StageWork
foldChunks(const std::vector<StageWork> &parts)
{
    StageWork total;
    for (const StageWork &w : parts)
        total += w;
    return total;
}

std::vector<Vec3>
foldChunks(const std::vector<std::vector<Vec3>> &parts)
{
    return concatChunks(parts);
}

/**
 * The one frame-level pixel walk behind every NerfModel entry point:
 * runs @p op(acc, rays, count, sink) for every packet of @p rays. A
 * parallel walk splits the items into pool chunks, each with its own
 * accumulator and trace log, folded and delivered in chunk order;
 * packets never span chunks, pixels land in disjoint slots and ray ids
 * are a function of the pixel, so the result is bit-identical at any
 * thread count and @p trace sees the serial access stream, followed
 * by one onFlush().
 */
template <typename Acc, typename PacketOp>
Acc
walkRays(const RaySet &rays, TraceSink *trace, Walk mode, PacketOp &&op)
{
    auto chunk = [&](Acc &acc, std::int64_t b, std::int64_t e,
                     TraceSink *sink) {
        rays.forEachPacket(b, e, [&](const PixelRay *packet, int count) {
            op(acc, packet, count, sink);
        });
    };
    std::vector<Acc> parts;
    if (mode == Walk::Serial) {
        parts.resize(1);
        chunk(parts[0], 0, rays.items(), trace);
    } else {
        parts = parallelMapTracedChunks<Acc>(rays.items(), trace, chunk);
    }
    if (trace)
        trace->onFlush();
    return foldChunks(parts);
}

/** Positions of the samples @p sampler marches along every ray. */
std::vector<Vec3>
collectPositions(const RaySampler &sampler, const Camera &camera,
                 const RaySet &rays)
{
    return walkRays<std::vector<Vec3>>(
        rays, nullptr, Walk::Parallel,
        [&](std::vector<Vec3> &out, const PixelRay *packet, int count,
            TraceSink *) {
            thread_local std::vector<RaySample> samples;
            for (int r = 0; r < count; ++r) {
                const int n = sampler.sample(
                    camera.generateRay(packet[r].px, packet[r].py),
                    samples);
                for (int i = 0; i < n; ++i)
                    out.push_back(samples[i].pn);
            }
        });
}

} // namespace

NerfModel::NerfModel(const Scene &scene,
                     std::unique_ptr<Encoding> encoding,
                     std::uint64_t nominalMlpMacs,
                     const SamplerConfig &sampler, std::uint64_t seed)
    : _scene(scene),
      _encoding(std::move(encoding)),
      _decoder(scene.field.lightDir(), 16, 1, nominalMlpMacs, 0.01f, seed),
      _occupancy(_scene.field, sampler.occupancyRes,
                 sampler.occupancySigma),
      _sampler(_scene.field.bounds(), &_occupancy, sampler),
      _workloadSampler(_scene.field.bounds(), nullptr, sampler),
      _nominalMlpMacs(nominalMlpMacs)
{
    _encoding->bake(_scene.field);
}

std::uint64_t
NerfModel::modelBytes() const
{
    return _encoding->modelBytes() + _decoder.weightBytes();
}

namespace {

/** One ray of a packet in flight: its samples and compositing state. */
struct PacketLane
{
    std::vector<RaySample> samples;
    Vec3 dir;
    int n = 0;        //!< samples marched
    int base = 0;     //!< first sample of the current block
    int block = 0;    //!< current block size
    int computed = 0; //!< samples consumed by the compositor
    bool live = false;
    Compositor comp;
};

} // namespace

FusionStats &
FusionStats::operator+=(const FusionStats &o)
{
    blocks += o.blocks;
    samples += o.samples;
    passes += o.passes;
    fusedPasses += o.fusedPasses;
    crossSessionPasses += o.crossSessionPasses;
    maxBatchSamples = std::max(maxBatchSamples, o.maxBatchSamples);
    return *this;
}

void
NerfModel::renderPacket(const Camera &camera, const PixelRay *rays,
                        int count, Image &image, DepthMap &depth,
                        StageWork &work, FusionStats &fusion) const
{
    constexpr std::size_t kRoundSamples =
        static_cast<std::size_t>(kPacketRays) * kMaxDecodeBlock;
    thread_local PacketLane lanes[kPacketRays];
    thread_local std::vector<float> featureBuf(kRoundSamples * kFeatureDim);
    thread_local std::vector<DecodedSample> decodedBuf(kRoundSamples);
    thread_local std::vector<Vec3> posBuf(kRoundSamples);
    DecodeBlock blocks[kPacketRays];
    int blockLane[kPacketRays];

    for (int r = 0; r < count; ++r) {
        PacketLane &L = lanes[r];
        const Ray ray = camera.generateRay(rays[r].px, rays[r].py);
        L.dir = ray.dir;
        L.n = _sampler.sample(ray, L.samples);
        L.base = 0;
        L.block = kFirstDecodeBlock;
        L.computed = 0;
        L.live = L.n > 0;
        L.comp = Compositor{};
    }

    // One round per block: every live ray appends its next block's
    // positions to the round's position buffer, one gather writes the
    // features of the whole round into one channel-major buffer
    // (stride = the round's sample count; each block starts at its
    // first sample's column, the layout the decoder consumes without
    // transposition), then one fused call decodes every block.
    for (;;) {
        int nb = 0;
        int total = 0;
        for (int r = 0; r < count; ++r) {
            PacketLane &L = lanes[r];
            if (!L.live)
                continue;
            const int m = std::min(L.block, L.n - L.base);
            Vec3 *pos = posBuf.data() + total;
            for (int j = 0; j < m; ++j)
                pos[j] = L.samples[L.base + j].pn;
            blocks[nb] = DecodeBlock{featureBuf.data() + total, 0, m,
                                     L.dir, decodedBuf.data() + total};
            blockLane[nb++] = r;
            total += m;
        }
        if (nb == 0)
            break;
        _encoding->gatherFeatureBatch(posBuf.data(), total,
                                      featureBuf.data());
        for (int k = 0; k < nb; ++k)
            blocks[k].featureStride = static_cast<std::size_t>(total);
        _decoder.decodeBlocksFused(blocks, nb);
        const auto roundSamples = static_cast<std::uint64_t>(total);
        ++fusion.passes;
        fusion.blocks += static_cast<std::uint64_t>(nb);
        fusion.samples += roundSamples;
        if (nb > 1)
            ++fusion.fusedPasses;
        fusion.maxBatchSamples =
            std::max(fusion.maxBatchSamples, roundSamples);

        for (int k = 0; k < nb; ++k) {
            PacketLane &L = lanes[blockLane[k]];
            const DecodeBlock &blk = blocks[k];
            const int m = blk.count;
            int j = 0;
            bool stopped = false;
            while (j < m && !stopped) {
                const RaySample &s = L.samples[L.base + j];
                const DecodedSample &d = blk.out[j];
                stopped = !L.comp.add(d.sigma, d.rgb, s.t, s.dt);
                ++j;
            }
            L.computed += j;
            L.base += m;
            L.block = std::min(2 * L.block, kMaxDecodeBlock);
            L.live = !stopped && L.base < L.n;
        }
    }

    for (int r = 0; r < count; ++r) {
        PacketLane &L = lanes[r];
        const int px = rays[r].px;
        const int py = rays[r].py;
        chargeRay(work, L.n, L.computed, L.computed);
        const CompositeResult c = L.comp.finish(_scene.background);
        image.at(px, py) = c.rgb;
        depth.at(px, py) = c.depth;
    }
}

void
NerfModel::chargeRay(StageWork &work, std::uint64_t marched,
                     std::uint64_t gathered, std::uint64_t shaded) const
{
    const std::uint64_t fetches = _encoding->fetchesPerSample();
    ++work.rays;
    work.indexOps += marched * _encoding->indexOpsPerSample();
    work.samples += gathered;
    work.vertexFetches += gathered * fetches;
    work.gatherBytes +=
        gathered * fetches * (_encoding->featureDim() * kBytesPerChannel);
    work.interpOps += gathered * _encoding->interpOpsPerSample();
    work.mlpMacs += shaded * _nominalMlpMacs;
    work.compositeOps += shaded * 12;
}

StageWork
NerfModel::renderRays(const Camera &camera, const RaySet &rays, Walk mode,
                      Image &image, DepthMap &depth,
                      FusionStats *fusion) const
{
    const RenderAcc acc = walkRays<RenderAcc>(
        rays, nullptr, mode,
        [&](RenderAcc &a, const PixelRay *packet, int count, TraceSink *) {
            renderPacket(camera, packet, count, image, depth, a.work,
                         a.fusion);
        });
    if (fusion)
        *fusion += acc.fusion;
    return acc.work;
}

RenderResult
NerfModel::render(const Camera &camera) const
{
    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);
    out.work = renderRays(camera, RaySet::rows(camera, 0, camera.height),
                          Walk::Parallel, out.image, out.depth, nullptr);
    return out;
}

StageWork
NerfModel::renderServeRows(const Camera &camera, int rowBegin,
                           int rowEnd, Image &image, DepthMap &depth,
                           FusionStats *fusion) const
{
    return renderRays(camera, RaySet::rows(camera, rowBegin, rowEnd),
                      Walk::Serial, image, depth, fusion);
}

StageWork
NerfModel::renderPixels(const Camera &camera,
                        const std::vector<std::uint32_t> &pixelIds,
                        Image &image, DepthMap &depth) const
{
    return renderRays(camera, RaySet::list(camera, pixelIds),
                      Walk::Parallel, image, depth, nullptr);
}

void
NerfModel::quantizeFp16()
{
    _encoding->quantizeFeaturesFp16();
    _decoder.quantizeWeightsFp16();
}

StageWork
NerfModel::traceRays(const Camera &camera, const RaySet &rays,
                     TraceSink *trace) const
{
    return walkRays<StageWork>(
        rays, trace, Walk::Parallel,
        [&](StageWork &work, const PixelRay *packet, int count,
            TraceSink *sink) {
            thread_local std::vector<RaySample> samples;
            thread_local std::vector<MemAccess> accessBuf;
            thread_local std::vector<Vec3> posBuf;

            for (int r = 0; r < count; ++r) {
                const PixelRay &pr = packet[r];
                Ray ray = camera.generateRay(pr.px, pr.py);
                int n = _workloadSampler.sample(ray, samples);

                if (sink && n > 0) {
                    // Workload mode never early-terminates, so the
                    // whole ray's access stream comes from one batched
                    // gather (sample-major, identical to the scalar
                    // per-sample emission order).
                    posBuf.resize(n);
                    for (int i = 0; i < n; ++i)
                        posBuf[i] = samples[i].pn;
                    accessBuf.clear();
                    _encoding->gatherAccessesBatch(posBuf.data(), n, pr.id,
                                                   accessBuf);
                    for (const MemAccess &a : accessBuf)
                        sink->onAccess(a);
                }

                std::uint64_t shaded = 0;
                for (int i = 0; i < n; ++i) {
                    // Only samples in occupied space reach Feature
                    // Computation.
                    if (_occupancy.occupiedNormalized(samples[i].pn))
                        ++shaded;
                }
                if (sink)
                    sink->onRayEnd(pr.id);

                chargeRay(work, n, n, shaded);
            }
        });
}

StageWork
NerfModel::traceWorkload(const Camera &camera, TraceSink *trace) const
{
    return traceRays(camera, RaySet::rows(camera, 0, camera.height), trace);
}

StageWork
NerfModel::traceWorkloadPixels(const Camera &camera,
                               const std::vector<std::uint32_t> &pixelIds,
                               TraceSink *trace) const
{
    return traceRays(camera, RaySet::list(camera, pixelIds), trace);
}

std::vector<Vec3>
NerfModel::collectSamplePositions(const Camera &camera) const
{
    return collectPositions(_sampler, camera,
                            RaySet::rows(camera, 0, camera.height));
}

std::vector<Vec3>
NerfModel::collectSamplePositionsPixels(
    const Camera &camera,
    const std::vector<std::uint32_t> &pixelIds) const
{
    return collectPositions(_sampler, camera,
                            RaySet::list(camera, pixelIds));
}

RenderResult
renderGroundTruth(const Scene &scene, const Camera &camera,
                  int stepsAcross)
{
    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);

    SamplerConfig cfg;
    cfg.stepsAcross = stepsAcross;
    cfg.maxSamplesPerRay = stepsAcross * 2;
    OccupancyGrid occupancy(scene.field, cfg.occupancyRes,
                            cfg.occupancySigma);
    RaySampler sampler(scene.field.bounds(), &occupancy, cfg);

    parallelFor(0, camera.height, -1,
                [&](std::int64_t y0, std::int64_t y1) {
                    thread_local std::vector<RaySample> samples;
                    for (int py = static_cast<int>(y0); py < y1; ++py) {
                        for (int px = 0; px < camera.width; ++px) {
                            Ray ray = camera.generateRay(px, py);
                            int n = sampler.sample(ray, samples);
                            Compositor comp;
                            for (int i = 0; i < n; ++i) {
                                const RaySample &s = samples[i];
                                FieldSample f =
                                    scene.field.sample(s.pos, ray.dir);
                                if (!comp.add(f.sigma, f.rgb, s.t, s.dt))
                                    break;
                            }
                            CompositeResult r =
                                comp.finish(scene.background);
                            out.image.at(px, py) = r.rgb;
                            out.depth.at(px, py) = r.depth;
                        }
                    }
                });
    return out;
}

} // namespace cicero
