#include "cicero/streaming_renderer.hh"

#include <stdexcept>
#include <variant>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "nerf/dense_grid.hh"
#include "nerf/hash_grid.hh"
#include "nerf/volume_renderer.hh"

namespace cicero {

namespace {

/** Per-sample record kept from Indexing until Feature Computation. */
struct SampleRec
{
    Vec3 pn;
    float t;
    float dt;
};

/** Every sample of a frame, numbered ray by ray in pixel order. */
struct MarchedFrame
{
    std::vector<SampleRec> samples;
    std::vector<std::uint32_t> rayFirst; //!< W*H+1 sample offsets
};

/** Per-chunk partial of the row-parallel march. */
struct MarchChunk
{
    std::vector<SampleRec> samples;
    std::vector<std::uint32_t> rayFirst; //!< chunk-local sample offsets
    StageWork work;
};

/**
 * One level of the model's feature grid. A dense level stores its
 * (res+1)^3 vertices x-fastest at @c data and streams in blocks of
 * blockVerts^3 vertices laid out block-major from @c baseAddr; a
 * hashed level (@c hashed set) is gathered at random.
 */
struct GridLevel
{
    int res = 0; //!< voxels per axis
    int blockVerts = 0;
    std::uint32_t blocksPerAxis = 0;
    std::uint64_t blockBytes = 0;
    std::uint64_t baseAddr = 0;
    const float *data = nullptr;
    const HashGridEncoding *hashed = nullptr;
    int index = 0; //!< level index within @c hashed
};

/** One corner contribution queued under a dense-level block. */
struct CornerRef
{
    std::uint32_t sample;    //!< global sample index
    std::uint8_t ix, iy, iz; //!< vertex coords *within* the block
    float weight;
};

/** Per-chunk partial of a dense level's sample-parallel RIT build. */
struct RitChunk
{
    std::vector<std::vector<CornerRef>> rit; //!< global sample ids
    std::uint64_t ritEntries = 0;
    std::uint64_t boundaryEntries = 0;
};

GridLevel
denseLevel(int res, int blockVerts, std::uint32_t vertexBytes,
           std::uint64_t baseAddr, const float *data)
{
    // Block-local vertex coordinates are narrowed to 8 bits.
    if (blockVerts < 1 || blockVerts > 256)
        throw std::invalid_argument(
            "StreamingRenderer: blockVerts must be in [1, 256]");
    GridLevel lvl;
    lvl.res = res;
    lvl.blockVerts = blockVerts;
    lvl.blocksPerAxis = (res + 1 + blockVerts - 1) / blockVerts;
    lvl.blockBytes = static_cast<std::uint64_t>(blockVerts) * blockVerts *
                     blockVerts * vertexBytes;
    lvl.baseAddr = baseAddr;
    lvl.data = data;
    return lvl;
}

/** The levels of @p encoding in gather order; throws if unsupported. */
std::vector<GridLevel>
gridLevels(const Encoding &encoding)
{
    if (auto *g = dynamic_cast<const DenseGridEncoding *>(&encoding)) {
        return {denseLevel(g->voxelsPerAxis(), g->blockVerts(),
                           g->vertexBytes(), g->mvoxelBaseAddr(0),
                           g->vertexData(0, 0, 0))};
    }
    if (auto *h = dynamic_cast<const HashGridEncoding *>(&encoding)) {
        std::vector<GridLevel> levels;
        for (int l = 0; l < h->config().numLevels; ++l) {
            if (h->levelDense(l)) {
                levels.push_back(denseLevel(
                    h->levelRes(l), h->config().blockVerts,
                    h->vertexBytes(), h->levelBaseAddr(l),
                    h->levelData(l, 0)));
            } else {
                GridLevel lvl;
                lvl.res = h->levelRes(l);
                lvl.hashed = h;
                lvl.index = l;
                levels.push_back(lvl);
            }
        }
        return levels;
    }
    throw std::invalid_argument("StreamingRenderer requires a "
                                "DenseGridEncoding or HashGridEncoding");
}

/**
 * Voxel origin and trilinear fractions of @p pn at resolution @p res,
 * clamped exactly like the encodings' own gathers.
 */
void
cellOf(int res, const Vec3 &pn, int (&c0)[3], float (&frac)[3])
{
    float f[3] = {clamp(pn.x, 0.0f, 1.0f) * res,
                  clamp(pn.y, 0.0f, 1.0f) * res,
                  clamp(pn.z, 0.0f, 1.0f) * res};
    for (int a = 0; a < 3; ++a) {
        c0[a] = std::min(static_cast<int>(f[a]), res - 1);
        frac[a] = f[a] - c0[a];
    }
}

/** Trilinear weight of corner @p c (x = bit 0, y = bit 1, z = bit 2). */
float
cornerWeight(const float (&frac)[3], int c)
{
    return ((c & 1) ? frac[0] : 1.0f - frac[0]) *
           (((c >> 1) & 1) ? frac[1] : 1.0f - frac[1]) *
           (((c >> 2) & 1) ? frac[2] : 1.0f - frac[2]);
}

/**
 * Stage I: march every ray once. Row-parallel; per-chunk sample lists
 * merge in chunk order, so the global sample numbering is that of the
 * serial walk.
 */
MarchedFrame
march(const NerfModel &model, const Camera &camera, StageWork &work)
{
    const int W = camera.width;
    std::vector<MarchChunk> chunks = parallelMapChunks<MarchChunk>(
        camera.height,
        [&](MarchChunk &c, std::int64_t y0, std::int64_t y1) {
            thread_local std::vector<RaySample> raySamples;
            for (int py = static_cast<int>(y0); py < y1; ++py) {
                for (int px = 0; px < W; ++px) {
                    c.rayFirst.push_back(
                        static_cast<std::uint32_t>(c.samples.size()));
                    Ray ray = camera.generateRay(px, py);
                    int n = model.sampler().sample(ray, raySamples);
                    c.work.rays += 1;
                    c.work.indexOps +=
                        static_cast<std::uint64_t>(n) *
                        model.encoding().indexOpsPerSample();
                    for (int i = 0; i < n; ++i)
                        c.samples.push_back(SampleRec{raySamples[i].pn,
                                                      raySamples[i].t,
                                                      raySamples[i].dt});
                }
            }
        });

    MarchedFrame frame;
    std::size_t totalSamples = 0;
    for (const MarchChunk &c : chunks)
        totalSamples += c.samples.size();
    frame.samples.reserve(totalSamples);
    frame.rayFirst.reserve(static_cast<std::size_t>(W) * camera.height +
                           1);
    for (MarchChunk &c : chunks) {
        const std::uint32_t base =
            static_cast<std::uint32_t>(frame.samples.size());
        for (std::uint32_t first : c.rayFirst)
            frame.rayFirst.push_back(base + first);
        frame.samples.insert(frame.samples.end(), c.samples.begin(),
                             c.samples.end());
        work += c.work;
        c = MarchChunk{};
    }
    frame.rayFirst.push_back(
        static_cast<std::uint32_t>(frame.samples.size()));
    return frame;
}

/**
 * Stage G over one dense level: build the RIT, then stream the touched
 * blocks in address order, exactly once, accumulating every queued
 * corner into its sample's feature slice.
 *
 * The RIT build is sample-parallel: chunk-local RITs carry global
 * sample ids. The block range is then cut into segments. Each
 * segment's merge (concatenate the chunks' per-block lists in chunk
 * order, keeping every list ascending in sample id — the serial order)
 * is independent of every other segment and runs in parallel; the
 * address-order walk of segment s depends on its own merge *and* on
 * walk s-1, so walks execute strictly in block order. The walk is the
 * trace stream, and boundary samples accumulate across blocks in that
 * order (partial interpolation): output is bit-identical to the serial
 * walk at any pool width. Segment count only shapes task granularity.
 */
void
streamDenseLevel(const GridLevel &lvl,
                 const std::vector<SampleRec> &samples, float *features,
                 TraceSink *trace, StreamingRenderer::Stats &stats)
{
    const int bv = lvl.blockVerts;
    const std::uint32_t bpa = lvl.blocksPerAxis;
    const std::uint32_t numBlocks = bpa * bpa * bpa;

    std::vector<RitChunk> chunks = parallelMapChunks<RitChunk>(
        static_cast<std::int64_t>(samples.size()),
        [&](RitChunk &c, std::int64_t b, std::int64_t e) {
            c.rit.resize(numBlocks);
            for (std::int64_t si = b; si < e; ++si) {
                const std::uint32_t s = static_cast<std::uint32_t>(si);
                int c0[3];
                float frac[3];
                cellOf(lvl.res, samples[s].pn, c0, frac);
                std::uint32_t seen[8];
                int nSeen = 0;
                for (int cr = 0; cr < 8; ++cr) {
                    const int ix = c0[0] + (cr & 1);
                    const int iy = c0[1] + ((cr >> 1) & 1);
                    const int iz = c0[2] + ((cr >> 2) & 1);
                    const std::uint32_t blk =
                        (static_cast<std::uint32_t>(iz / bv) * bpa +
                         iy / bv) *
                            bpa +
                        ix / bv;
                    c.rit[blk].push_back(CornerRef{
                        s, static_cast<std::uint8_t>(ix % bv),
                        static_cast<std::uint8_t>(iy % bv),
                        static_cast<std::uint8_t>(iz % bv),
                        cornerWeight(frac, cr)});
                    bool dup = false;
                    for (int k = 0; k < nSeen; ++k)
                        dup = dup || seen[k] == blk;
                    if (!dup)
                        seen[nSeen++] = blk;
                }
                c.ritEntries += nSeen;
                c.boundaryEntries += nSeen - 1;
            }
        });
    for (const RitChunk &c : chunks) {
        stats.ritEntries += c.ritEntries;
        stats.boundaryEntries += c.boundaryEntries;
    }

    std::vector<std::vector<CornerRef>> rit(numBlocks);
    auto mergeSegment = [&](std::uint32_t b0, std::uint32_t b1) {
        for (std::uint32_t blk = b0; blk < b1; ++blk)
            for (const RitChunk &c : chunks)
                rit[blk].insert(rit[blk].end(), c.rit[blk].begin(),
                                c.rit[blk].end());
    };

    const std::size_t verts = static_cast<std::size_t>(lvl.res) + 1;
    auto walkSegment = [&](std::uint32_t b0, std::uint32_t b1) {
        for (std::uint32_t blk = b0; blk < b1; ++blk) {
            if (rit[blk].empty())
                continue;
            ++stats.blocksLoaded;
            stats.streamedBytes += lvl.blockBytes;
            if (trace) {
                trace->onAccess(MemAccess{
                    lvl.baseAddr + blk * lvl.blockBytes,
                    static_cast<std::uint32_t>(lvl.blockBytes), blk});
            }
            // The block's global vertex origin, from its id.
            const std::size_t x0 = static_cast<std::size_t>(blk % bpa) * bv;
            const std::size_t y0 =
                static_cast<std::size_t>((blk / bpa) % bpa) * bv;
            const std::size_t z0 =
                static_cast<std::size_t>(blk / (bpa * bpa)) * bv;
            for (const CornerRef &c : rit[blk]) {
                const float *v =
                    lvl.data +
                    (((z0 + c.iz) * verts + y0 + c.iy) * verts + x0 +
                     c.ix) *
                        kFeatureDim;
                float *dst = features +
                             static_cast<std::size_t>(c.sample) *
                                 kFeatureDim;
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    dst[ch] += c.weight * v[ch];
            }
        }
    };

    const std::uint32_t numSegs = std::min<std::uint32_t>(
        numBlocks, static_cast<std::uint32_t>(
                       std::max(1, 4 * parallelThreadCount())));
    const std::uint32_t segLen = (numBlocks + numSegs - 1) / numSegs;
    TaskGroup graph;
    TaskHandle prevWalk;
    for (std::uint32_t b0 = 0; b0 < numBlocks; b0 += segLen) {
        const std::uint32_t b1 = std::min(b0 + segLen, numBlocks);
        TaskHandle merge =
            graph.run([&mergeSegment, b0, b1] { mergeSegment(b0, b1); });
        std::vector<TaskHandle> deps{merge};
        if (prevWalk.valid())
            deps.push_back(prevWalk);
        prevWalk = graph.runAfter(
            deps, [&walkSegment, b0, b1] { walkSegment(b0, b1); });
    }
    graph.wait();
}

/**
 * Stage G over one hashed level: revert to the original data flow,
 * per-sample random fetches straight out of the hash table. Every
 * sample owns its feature slice, so the gather is sample-parallel; each
 * chunk of samples logs its accesses and the logs are delivered in
 * chunk order, which restores the serial per-sample emission order.
 * Chunks produce no partial result (std::monostate). The sink is
 * flushed once, after the last level.
 */
void
gatherHashedLevel(const GridLevel &lvl,
                  const std::vector<SampleRec> &samples, float *features,
                  TraceSink *trace)
{
    const HashGridEncoding &grid = *lvl.hashed;
    const int l = lvl.index;
    const std::uint32_t vb = grid.vertexBytes();
    auto gatherSample = [&](std::uint32_t s, TraceSink *sink) {
        int c0[3];
        float frac[3];
        cellOf(lvl.res, samples[s].pn, c0, frac);
        float *dst = features + static_cast<std::size_t>(s) * kFeatureDim;
        for (int cr = 0; cr < 8; ++cr) {
            const float w = cornerWeight(frac, cr);
            const std::uint32_t slot =
                grid.levelSlot(l, c0[0] + (cr & 1), c0[1] + ((cr >> 1) & 1),
                               c0[2] + ((cr >> 2) & 1));
            if (sink) {
                sink->onAccess(MemAccess{
                    grid.levelBaseAddr(l) +
                        static_cast<std::uint64_t>(slot) * vb,
                    vb, s});
            }
            const float *v = grid.levelData(l, slot);
            for (int ch = 0; ch < kFeatureDim; ++ch)
                dst[ch] += w * v[ch];
        }
    };
    parallelMapTracedChunks<std::monostate>(
        static_cast<std::int64_t>(samples.size()), trace,
        [&](std::monostate &, std::int64_t b, std::int64_t e,
            TraceSink *sink) {
            for (std::int64_t s = b; s < e; ++s)
                gatherSample(static_cast<std::uint32_t>(s), sink);
        });
}

} // namespace

StreamingRenderer::StreamingRenderer(const NerfModel &model)
    : _model(model)
{
    gridLevels(model.encoding()); // validates the encoding
}

RenderResult
StreamingRenderer::render(const Camera &camera, TraceSink *trace) const
{
    _stats = Stats{};
    const Encoding &encoding = _model.encoding();
    const std::vector<GridLevel> levels = gridLevels(encoding);

    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);
    const int W = camera.width;

    const MarchedFrame frame = march(_model, camera, out.work);
    const std::vector<SampleRec> &samples = frame.samples;
    const std::size_t S = samples.size();
    _stats.samples = S;

    // ---- Stage G: level by level -------------------------------------
    // Accumulation is sample-major (each corner update touches one
    // sample's contiguous 36 B, not kFeatureDim strided cache lines);
    // one bulk transposition below hands Stage F the channel-major
    // layout the SoA batched decode consumes.
    std::vector<float> features(S * static_cast<std::size_t>(kFeatureDim),
                                0.0f);
    for (const GridLevel &lvl : levels) {
        if (lvl.hashed) {
            ++_stats.hashedLevels;
            gatherHashedLevel(lvl, samples, features.data(), trace);
            _stats.randomBytes += static_cast<std::uint64_t>(S) * 8ull *
                                  lvl.hashed->vertexBytes();
        } else {
            ++_stats.denseLevels;
            streamDenseLevel(lvl, samples, features.data(), trace,
                             _stats);
        }
    }
    if (trace)
        trace->onFlush();
    _stats.ritBytes = _stats.ritEntries * 48; // paper: 48 B per entry

    out.work.samples = S;
    out.work.vertexFetches =
        S * static_cast<std::uint64_t>(8) * levels.size();
    out.work.gatherBytes = _stats.streamedBytes + _stats.randomBytes;
    out.work.interpOps = S * encoding.interpOpsPerSample();

    // One pass into the channel-major layout (channel ch of sample s
    // at [ch * S + s]); the sample-major buffer is released right after.
    std::vector<float> featuresSoA(features.size());
    simd::transposeToChannelMajor(features.data(), static_cast<int>(S),
                                  kFeatureDim, featuresSoA.data());
    std::vector<float>().swap(features);

    // ---- Stage F: decode + composite ---------------------------------
    // Row-parallel: rays write disjoint pixels and read disjoint
    // feature slices; per-chunk work counters merge in chunk order.
    for (const StageWork &w : parallelMapChunks<StageWork>(
             camera.height,
             [&](StageWork &fw, std::int64_t y0, std::int64_t y1) {
                 thread_local std::vector<DecodedSample> decoded;
                 for (int py = static_cast<int>(y0); py < y1; ++py) {
                     std::uint32_t rayId =
                         static_cast<std::uint32_t>(py) * W;
                     for (int px = 0; px < W; ++px, ++rayId) {
                         Ray ray = camera.generateRay(px, py);
                         Compositor comp;
                         const std::uint32_t s0 = frame.rayFirst[rayId];
                         const int m = static_cast<int>(
                             frame.rayFirst[rayId + 1] - s0);
                         decoded.resize(m);
                         // The ray's feature columns start at s0 with
                         // the frame-wide channel stride: one batched
                         // SoA decode (bit-identical to scalar decode).
                         _model.decoder().decodeBatchSoA(
                             featuresSoA.data() + s0, S, m, ray.dir,
                             decoded.data());
                         for (int i = 0; i < m; ++i) {
                             const SampleRec &rec = samples[s0 + i];
                             fw.mlpMacs += _model.nominalMlpMacs();
                             fw.compositeOps += 12;
                             // No early termination: the memory-centric
                             // order has already gathered every sample.
                             comp.add(decoded[i].sigma, decoded[i].rgb,
                                      rec.t, rec.dt);
                         }
                         CompositeResult r =
                             comp.finish(_model.scene().background);
                         out.image.at(px, py) = r.rgb;
                         out.depth.at(px, py) = r.depth;
                     }
                 }
             }))
        out.work += w;

    return out;
}

} // namespace cicero
