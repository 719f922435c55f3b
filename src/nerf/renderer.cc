#include "nerf/renderer.hh"

#include <algorithm>
#include <cmath>

#include "common/parallel.hh"
#include "nerf/volume_renderer.hh"

namespace cicero {

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

    /** Call @p fn(px, py, rayId) for every ray of items [b, e). */
    template <typename Fn>
    void
    forEachRay(std::int64_t b, std::int64_t e, Fn &&fn) const
    {
        if (pixels) {
            for (std::int64_t k = b; k < e; ++k) {
                const std::uint32_t id = (*pixels)[k];
                fn(static_cast<int>(id % width),
                   static_cast<int>(id / width), id);
            }
            return;
        }
        for (int py = rowBegin + static_cast<int>(b);
             py < rowBegin + e; ++py) {
            std::uint32_t rayId = static_cast<std::uint32_t>(py) * width;
            for (int px = 0; px < width; ++px, ++rayId)
                fn(px, py, rayId);
        }
    }
};

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

/** Where a walk runs: chunked on the global pool, or inline. */
enum class Walk
{
    Parallel,
    Serial, //!< one chunk on the calling thread
};

/**
 * The one frame-level pixel walk behind every NerfModel entry point:
 * runs @p op(acc, px, py, rayId, sink) for every ray of @p rays. A
 * parallel walk splits the items into pool chunks, each with its own
 * accumulator and trace log, folded and delivered in chunk order;
 * pixels land in disjoint slots and ray ids are a function of the
 * pixel, so the result is bit-identical at any thread count and
 * @p trace sees the serial access stream, followed by one onFlush().
 */
template <typename Acc, typename RayOp>
Acc
walkRays(const RaySet &rays, TraceSink *trace, Walk mode, RayOp &&op)
{
    auto chunk = [&](Acc &acc, std::int64_t b, std::int64_t e,
                     TraceSink *sink) {
        rays.forEachRay(b, e, [&](int px, int py, std::uint32_t rayId) {
            op(acc, px, py, rayId, sink);
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
        [&](std::vector<Vec3> &out, int px, int py, std::uint32_t,
            TraceSink *) {
            thread_local std::vector<RaySample> samples;
            const int n = sampler.sample(camera.generateRay(px, py),
                                         samples);
            for (int i = 0; i < n; ++i)
                out.push_back(samples[i].pn);
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

void
NerfModel::renderOne(const Camera &camera, int px, int py,
                     std::uint32_t rayId, Vec3 &rgbOut, float &depthOut,
                     StageWork &work, TraceSink *trace,
                     BakedPoint *gbufOut, DecodeSink *decodeSink) const
{
    thread_local std::vector<RaySample> samples;
    thread_local std::vector<MemAccess> accessBuf;
    thread_local std::vector<Vec3> posBuf;
    thread_local std::vector<float> featureBuf;
    thread_local std::vector<DecodedSample> decodedBuf;

    Ray ray = camera.generateRay(px, py);
    int n = _sampler.sample(ray, samples);

    // Optional G-buffer accumulation: opacity-weighted material
    // attributes, normalized at the end.
    BakedPoint gAcc;
    Vec3 gNormal;
    float gWeight = 0.0f;
    gAcc.diffuse = Vec3{};
    gAcc.specular = 0.0f;
    gAcc.shininess = 0.0f;

    // Reads one sample's channels out of the channel-major block
    // (stride = block size) — only on the rare G-buffer path.
    auto accumulateGBuffer = [&](const float *feats, int stride, int j,
                                 const DecodedSample &d,
                                 const RaySample &s, float tBefore) {
        float alpha = 1.0f - std::exp(-d.sigma * s.dt);
        float w = tBefore * alpha;
        float feature[kFeatureDim];
        for (int ch = 0; ch < kFeatureDim; ++ch)
            feature[ch] =
                feats[static_cast<std::size_t>(ch) * stride + j];
        BakedPoint bp = decodeBakedFeature(feature);
        gAcc.diffuse += bp.diffuse * w;
        gNormal += bp.normal * w;
        gAcc.specular += bp.specular * w;
        gAcc.shininess += bp.shininess * w;
        gWeight += w;
    };

    Compositor comp;
    int computed = 0;

    // Block-batched sample loop, traced or not: gather a block of
    // samples through one batched encoding call and decode it through
    // one batched MLP pass instead of per-sample virtual-call
    // ping-pong. Numerically identical to the per-sample loop (same
    // per-sample accumulation order everywhere). When tracing, the
    // block's access stream is gathered up front and emitted
    // per-sample at consumption time, so the TraceSink still sees
    // exactly the samples the compositor consumed, in consumption
    // order — accesses of samples past the early-termination point are
    // never emitted, matching the scalar walk byte-for-byte.
    if (featureBuf.size() <
        static_cast<std::size_t>(kMaxDecodeBlock) * kFeatureDim) {
        featureBuf.resize(
            static_cast<std::size_t>(kMaxDecodeBlock) * kFeatureDim);
        decodedBuf.resize(kMaxDecodeBlock);
        posBuf.resize(kMaxDecodeBlock);
    }
    const std::uint32_t accessesPerSample =
        trace ? _encoding->fetchesPerSample() : 0;

    int block = kFirstDecodeBlock;
    bool stopped = false;
    for (int base = 0; base < n && !stopped; base += block,
             block = std::min(2 * block, kMaxDecodeBlock)) {
        const int m = std::min(block, n - base);
        for (int j = 0; j < m; ++j)
            posBuf[j] = samples[base + j].pn;

        if (trace) {
            accessBuf.clear();
            _encoding->gatherAccessesBatch(posBuf.data(), m, rayId,
                                           accessBuf);
        }

        // Channel-major block: gatherFeatureBatch writes channel c of
        // sample j at feats[c * m + j], and the SoA decode consumes it
        // without any transposition.
        float *feats = featureBuf.data();
        _encoding->gatherFeatureBatch(posBuf.data(), m, feats);
        if (decodeSink)
            decodeSink->decodeBlock(feats, static_cast<std::size_t>(m),
                                    m, ray.dir, decodedBuf.data());
        else
            _decoder.decodeBatchSoA(feats, static_cast<std::size_t>(m),
                                    m, ray.dir, decodedBuf.data());

        for (int j = 0; j < m; ++j) {
            const RaySample &s = samples[base + j];
            const DecodedSample &d = decodedBuf[j];
            ++computed;

            if (trace) {
                const MemAccess *slice =
                    accessBuf.data() +
                    static_cast<std::size_t>(j) * accessesPerSample;
                for (std::uint32_t a = 0; a < accessesPerSample; ++a)
                    trace->onAccess(slice[a]);
            }

            if (gbufOut && d.sigma > 0.0f)
                accumulateGBuffer(feats, m, j, d, s,
                                  comp.transmittance());

            if (!comp.add(d.sigma, d.rgb, s.t, s.dt)) {
                stopped = true;
                break;
            }
        }
    }

    if (gbufOut) {
        if (gWeight > 1e-4f) {
            float inv = 1.0f / gWeight;
            gbufOut->diffuse = gAcc.diffuse * inv;
            gbufOut->normal = gNormal.normalized();
            gbufOut->specular = gAcc.specular * inv;
            gbufOut->shininess = gAcc.shininess * inv;
            gbufOut->sigma = gWeight; // records accumulated opacity
        } else {
            *gbufOut = BakedPoint{};
            gbufOut->sigma = 0.0f;
        }
    }

    chargeRay(work, n, computed, computed);

    if (trace)
        trace->onRayEnd(rayId);

    CompositeResult r = comp.finish(_scene.background);
    rgbOut = r.rgb;
    depthOut = r.depth;
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

RenderResult
NerfModel::render(const Camera &camera, TraceSink *trace,
                  bool wantGBuffer) const
{
    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);
    if (wantGBuffer)
        out.gbuffer = GBuffer(camera.width, camera.height);
    out.work = walkRays<StageWork>(
        RaySet::rows(camera, 0, camera.height), trace, Walk::Parallel,
        [&](StageWork &w, int px, int py, std::uint32_t id,
            TraceSink *sink) {
            renderOne(camera, px, py, id, out.image.at(px, py),
                      out.depth.at(px, py), w, sink,
                      wantGBuffer ? &out.gbuffer.at(px, py) : nullptr);
        });
    return out;
}

StageWork
NerfModel::renderServeRows(const Camera &camera, int rowBegin,
                           int rowEnd, Image &image, DepthMap &depth,
                           DecodeSink *sink) const
{
    return walkRays<StageWork>(
        RaySet::rows(camera, rowBegin, rowEnd), nullptr, Walk::Serial,
        [&](StageWork &w, int px, int py, std::uint32_t id, TraceSink *) {
            renderOne(camera, px, py, id, image.at(px, py),
                      depth.at(px, py), w, nullptr, nullptr, sink);
        });
}

StageWork
NerfModel::renderPixels(const Camera &camera,
                        const std::vector<std::uint32_t> &pixelIds,
                        Image &image, DepthMap &depth,
                        TraceSink *trace) const
{
    return walkRays<StageWork>(
        RaySet::list(camera, pixelIds), trace, Walk::Parallel,
        [&](StageWork &w, int px, int py, std::uint32_t id,
            TraceSink *sink) {
            renderOne(camera, px, py, id, image.at(px, py),
                      depth.at(px, py), w, sink);
        });
}

void
NerfModel::quantizeFp16()
{
    _encoding->quantizeFeaturesFp16();
    _decoder.quantizeWeightsFp16();
}

void
NerfModel::traceOne(const Camera &camera, int px, int py,
                    std::uint32_t rayId, StageWork &work,
                    TraceSink *trace) const
{
    thread_local std::vector<RaySample> samples;
    thread_local std::vector<MemAccess> accessBuf;
    thread_local std::vector<Vec3> posBuf;

    Ray ray = camera.generateRay(px, py);
    int n = _workloadSampler.sample(ray, samples);

    if (trace && n > 0) {
        // Workload mode never early-terminates, so the whole ray's
        // access stream comes from one batched gather (sample-major,
        // identical to the scalar per-sample emission order).
        posBuf.resize(n);
        for (int i = 0; i < n; ++i)
            posBuf[i] = samples[i].pn;
        accessBuf.clear();
        _encoding->gatherAccessesBatch(posBuf.data(), n, rayId,
                                       accessBuf);
        for (const MemAccess &a : accessBuf)
            trace->onAccess(a);
    }

    std::uint64_t shaded = 0;
    for (int i = 0; i < n; ++i) {
        // Only samples in occupied space reach Feature Computation.
        if (_occupancy.occupiedNormalized(samples[i].pn))
            ++shaded;
    }
    if (trace)
        trace->onRayEnd(rayId);

    chargeRay(work, n, n, shaded);
}

StageWork
NerfModel::traceWorkload(const Camera &camera, TraceSink *trace) const
{
    return walkRays<StageWork>(
        RaySet::rows(camera, 0, camera.height), trace, Walk::Parallel,
        [&](StageWork &w, int px, int py, std::uint32_t id,
            TraceSink *sink) { traceOne(camera, px, py, id, w, sink); });
}

StageWork
NerfModel::traceWorkloadPixels(const Camera &camera,
                               const std::vector<std::uint32_t> &pixelIds,
                               TraceSink *trace) const
{
    return walkRays<StageWork>(
        RaySet::list(camera, pixelIds), trace, Walk::Parallel,
        [&](StageWork &w, int px, int py, std::uint32_t id,
            TraceSink *sink) { traceOne(camera, px, py, id, w, sink); });
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
