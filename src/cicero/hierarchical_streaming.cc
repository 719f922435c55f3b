#include "cicero/hierarchical_streaming.hh"

#include <memory>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "nerf/volume_renderer.hh"

namespace cicero {

namespace {

/** One corner contribution queued under a (level, block). */
struct CornerRef
{
    std::uint32_t sample;
    std::uint16_t ix, iy, iz; //!< global vertex coords at the level
    float weight;
};

struct SampleRec
{
    Vec3 pn;
    float t;
    float dt;
};

/** Per-chunk partial of the parallel Stage I (marching) loop. */
struct MarchChunk
{
    std::vector<SampleRec> samples;
    std::vector<std::uint32_t> rayFirst; //!< chunk-local sample offsets
    StageWork work;
};

/** Per-chunk partial of a dense level's parallel RIT build. */
struct RitChunk
{
    std::vector<std::vector<CornerRef>> rit; //!< global sample ids
    std::uint64_t ritEntries = 0;
};

} // namespace

HierarchicalStreamingRenderer::HierarchicalStreamingRenderer(
    const NerfModel &model)
    : _model(model),
      _grid([&]() -> const HashGridEncoding & {
          auto *g =
              dynamic_cast<const HashGridEncoding *>(&model.encoding());
          if (!g) {
              throw std::invalid_argument(
                  "HierarchicalStreamingRenderer requires a "
                  "HashGridEncoding");
          }
          return *g;
      }()),
      _blockVerts(_grid.config().blockVerts)
{
}

RenderResult
HierarchicalStreamingRenderer::render(const Camera &camera,
                                      TraceSink *trace) const
{
    _stats = Stats{};

    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);

    const int W = camera.width;
    const int H = camera.height;
    const int numLevels = _grid.config().numLevels;
    const int bv = _blockVerts;
    const std::uint32_t vb = _grid.vertexBytes();
    const std::uint64_t blockBytes =
        static_cast<std::uint64_t>(bv) * bv * bv * vb;

    // ---- Stage I: march rays once, remember samples ------------------
    // Row-parallel; per-chunk sample lists merge in chunk order so the
    // global sample numbering matches the serial walk exactly.
    std::vector<SampleRec> samples;
    std::vector<std::uint32_t> rayFirstSample(
        static_cast<std::size_t>(W) * H + 1, 0);
    {
        std::vector<MarchChunk> chunks = parallelMapChunks<MarchChunk>(
            H, [&](MarchChunk &c, std::int64_t y0, std::int64_t y1) {
                thread_local std::vector<RaySample> raySamples;
                for (int py = static_cast<int>(y0); py < y1; ++py) {
                    for (int px = 0; px < W; ++px) {
                        c.rayFirst.push_back(static_cast<std::uint32_t>(
                            c.samples.size()));
                        Ray ray = camera.generateRay(px, py);
                        int n = _model.sampler().sample(ray, raySamples);
                        c.work.rays += 1;
                        c.work.indexOps +=
                            static_cast<std::uint64_t>(n) *
                            _grid.indexOpsPerSample();
                        for (int i = 0; i < n; ++i) {
                            c.samples.push_back(
                                SampleRec{raySamples[i].pn,
                                          raySamples[i].t,
                                          raySamples[i].dt});
                        }
                    }
                }
            });

        std::size_t rayBase = 0;
        for (MarchChunk &c : chunks) {
            const std::uint32_t sampleBase =
                static_cast<std::uint32_t>(samples.size());
            for (std::size_t r = 0; r < c.rayFirst.size(); ++r)
                rayFirstSample[rayBase + r] = sampleBase + c.rayFirst[r];
            rayBase += c.rayFirst.size();
            samples.insert(samples.end(), c.samples.begin(),
                           c.samples.end());
            out.work += c.work;
            c = MarchChunk{};
        }
        rayFirstSample.back() =
            static_cast<std::uint32_t>(samples.size());
    }
    _stats.samples = samples.size();

    // Sample-major accumulation (each corner update touches one
    // sample's contiguous 36 B); a bulk transposition before Stage F
    // hands the SoA batched decode its channel-major layout.
    const std::size_t S = samples.size();
    std::vector<float> features(
        S * static_cast<std::size_t>(kFeatureDim), 0.0f);
    const std::int64_t numSamples =
        static_cast<std::int64_t>(samples.size());

    // ---- Stage G: level by level --------------------------------------
    // A dense level's RIT build is a pure function of the sample list:
    // it touches neither `features`, the trace stream, nor the stats
    // members the accumulation walk writes. The loop below therefore
    // builds level l+1's RIT on the scheduler *while* level l streams
    // blocks and accumulates (the cross-level extension of the SPARW
    // dependency overlap). Accumulation itself stays strictly
    // level-ordered on the driver thread, so features sums and the
    // trace stream are bit-identical to the serial walk; two builds
    // never run concurrently (one lookahead task at a time), and the
    // build/accumulate pair of a level touches disjoint Stats members.
    auto cornersOf = [&](int res, const Vec3 &pn, int (&c0)[3],
                         float (&frac)[3]) {
        float f[3] = {clamp(pn.x, 0.0f, 1.0f) * res,
                      clamp(pn.y, 0.0f, 1.0f) * res,
                      clamp(pn.z, 0.0f, 1.0f) * res};
        for (int a = 0; a < 3; ++a) {
            c0[a] = std::min(static_cast<int>(f[a]), res - 1);
            frac[a] = f[a] - c0[a];
        }
    };

    // Prebuilt, accumulation-independent part of one dense level.
    struct LevelBuild
    {
        std::uint32_t blocksPerAxis = 0;
        std::vector<std::vector<CornerRef>> rit;
    };

    auto buildLevel = [&](int l, LevelBuild &lb) {
        if (!_grid.levelDense(l))
            return; // hashed gather has no accumulation-free prefix
        const int res = _grid.levelRes(l);
        // Partition the level into MVoxel blocks and build its RIT,
        // sample-parallel: chunk-local RITs carry global sample ids
        // and merge in chunk order, keeping every block's entry
        // list ascending in sample id (the serial order).
        lb.blocksPerAxis = (res + 1 + bv - 1) / bv;
        const std::uint32_t blocksPerAxis = lb.blocksPerAxis;
        const std::size_t numBlocks =
            static_cast<std::size_t>(blocksPerAxis) * blocksPerAxis *
            blocksPerAxis;

        std::vector<RitChunk> chunks = parallelMapChunks<RitChunk>(
            numSamples, [&](RitChunk &c, std::int64_t b, std::int64_t e) {
                c.rit.resize(numBlocks);
                for (std::int64_t si = b; si < e; ++si) {
                    std::uint32_t s = static_cast<std::uint32_t>(si);
                    int c0[3];
                    float frac[3];
                    cornersOf(res, samples[s].pn, c0, frac);
                    std::uint32_t seen[8];
                    int nSeen = 0;
                    for (int cr = 0; cr < 8; ++cr) {
                        int ix = c0[0] + (cr & 1);
                        int iy = c0[1] + ((cr >> 1) & 1);
                        int iz = c0[2] + ((cr >> 2) & 1);
                        float w =
                            ((cr & 1) ? frac[0] : 1.0f - frac[0]) *
                            (((cr >> 1) & 1) ? frac[1] : 1.0f - frac[1]) *
                            (((cr >> 2) & 1) ? frac[2] : 1.0f - frac[2]);
                        std::uint32_t blk =
                            (static_cast<std::uint32_t>(iz / bv) *
                                 blocksPerAxis +
                             iy / bv) *
                                blocksPerAxis +
                            ix / bv;
                        c.rit[blk].push_back(CornerRef{
                            s, static_cast<std::uint16_t>(ix),
                            static_cast<std::uint16_t>(iy),
                            static_cast<std::uint16_t>(iz), w});
                        bool dup = false;
                        for (int k = 0; k < nSeen; ++k)
                            dup = dup || seen[k] == blk;
                        if (!dup)
                            seen[nSeen++] = blk;
                    }
                    c.ritEntries += nSeen;
                }
            });

        lb.rit.assign(numBlocks, {});
        for (RitChunk &c : chunks) {
            for (std::size_t blk = 0; blk < numBlocks; ++blk) {
                lb.rit[blk].insert(lb.rit[blk].end(), c.rit[blk].begin(),
                                   c.rit[blk].end());
            }
            _stats.ritEntries += c.ritEntries;
            c = RitChunk{};
        }
    };

    auto accumulateDense = [&](int l, LevelBuild &lb) {
        ++_stats.denseLevels;
        // Stream touched blocks in address order, exactly once —
        // serial: this walk is the trace stream, and boundary
        // samples accumulate across blocks in block order.
        for (std::uint32_t blk = 0; blk < lb.rit.size(); ++blk) {
            if (lb.rit[blk].empty())
                continue;
            ++_stats.blocksLoaded;
            _stats.streamedBytes += blockBytes;
            if (trace) {
                trace->onAccess(MemAccess{
                    _grid.levelBaseAddr(l) + blk * blockBytes,
                    static_cast<std::uint32_t>(blockBytes), blk});
            }
            for (const CornerRef &c : lb.rit[blk]) {
                std::uint32_t slot = _grid.levelSlot(l, c.ix, c.iy, c.iz);
                const float *v = _grid.levelData(l, slot);
                float *dst =
                    features.data() +
                    static_cast<std::size_t>(c.sample) * kFeatureDim;
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    dst[ch] += c.weight * v[ch];
            }
        }
    };

    auto accumulateHashed = [&](int l) {
        const int res = _grid.levelRes(l);
        ++_stats.hashedLevels;
        // Revert to the original data flow: per-sample random
        // fetches straight out of the hash table. Every sample
        // owns its feature slice, so the gather is
        // sample-parallel; the TraceCapture keyed by sample
        // restores the serial per-sample emission order. The sink
        // is flushed once, after the last level.
        TraceCapture capture(samples.size(), trace);
        auto gatherSample = [&](std::uint32_t s, TraceSink *sink) {
            int c0[3];
            float frac[3];
            cornersOf(res, samples[s].pn, c0, frac);
            float *dst = features.data() +
                         static_cast<std::size_t>(s) * kFeatureDim;
            for (int cr = 0; cr < 8; ++cr) {
                int ix = c0[0] + (cr & 1);
                int iy = c0[1] + ((cr >> 1) & 1);
                int iz = c0[2] + ((cr >> 2) & 1);
                float w = ((cr & 1) ? frac[0] : 1.0f - frac[0]) *
                          (((cr >> 1) & 1) ? frac[1] : 1.0f - frac[1]) *
                          (((cr >> 2) & 1) ? frac[2] : 1.0f - frac[2]);
                std::uint32_t slot = _grid.levelSlot(l, ix, iy, iz);
                if (sink) {
                    sink->onAccess(MemAccess{
                        _grid.levelBaseAddr(l) +
                            static_cast<std::uint64_t>(slot) * vb,
                        vb, s});
                }
                const float *v = _grid.levelData(l, slot);
                for (int ch = 0; ch < kFeatureDim; ++ch)
                    dst[ch] += w * v[ch];
            }
        };
        parallelFor(0, numSamples, -1,
                    [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t si = b; si < e; ++si) {
                            std::uint32_t s =
                                static_cast<std::uint32_t>(si);
                            capture.record(s, [&](TraceSink *sink) {
                                gatherSample(s, sink);
                            });
                        }
                        capture.markCompleted(
                            static_cast<std::size_t>(b),
                            static_cast<std::size_t>(e));
                    });
        capture.drain();
        _stats.randomBytes +=
            static_cast<std::uint64_t>(samples.size()) * 8ull * vb;
    };

    // Drive the levels with a one-level build lookahead: submit level
    // l+1's RIT build to the scheduler, accumulate level l, then wait.
    // The wait (plus the alternating double-buffer slot) is what keeps
    // at most one prebuilt level alive beyond the one accumulating.
    LevelBuild builds[2];
    if (numLevels > 0)
        buildLevel(0, builds[0]);
    for (int l = 0; l < numLevels; ++l) {
        TaskGroup lookahead;
        if (l + 1 < numLevels) {
            LevelBuild &next = builds[(l + 1) & 1];
            lookahead.run(
                [&buildLevel, &next, l] { buildLevel(l + 1, next); });
        }
        if (_grid.levelDense(l))
            accumulateDense(l, builds[l & 1]);
        else
            accumulateHashed(l);
        lookahead.wait();
        builds[l & 1] = LevelBuild{};
    }
    if (trace)
        trace->onFlush();

    out.work.samples = samples.size();
    out.work.vertexFetches =
        samples.size() * static_cast<std::uint64_t>(8) * numLevels;
    out.work.gatherBytes = _stats.streamedBytes + _stats.randomBytes;
    out.work.interpOps =
        samples.size() * _grid.interpOpsPerSample();

    // One pass into the channel-major layout (channel ch of sample s
    // at [ch * S + s]) the SoA batched decode consumes; the
    // sample-major accumulation buffer is released immediately after.
    std::vector<float> featuresSoA(features.size());
    simd::transposeToChannelMajor(features.data(), static_cast<int>(S),
                                  kFeatureDim, featuresSoA.data());
    std::vector<float>().swap(features);

    // ---- Stage F: decode + composite ---------------------------------
    // Row-parallel with a per-ray batched SoA decode over the ray's
    // feature columns (bit-identical to scalar decode).
    for (const StageWork &w : parallelMapChunks<StageWork>(
             H, [&](StageWork &fw, std::int64_t y0, std::int64_t y1) {
                 thread_local std::vector<DecodedSample> decoded;
                 for (int py = static_cast<int>(y0); py < y1; ++py) {
                     std::uint32_t rayId =
                         static_cast<std::uint32_t>(py) * W;
                     for (int px = 0; px < W; ++px, ++rayId) {
                         Ray ray = camera.generateRay(px, py);
                         Compositor comp;
                         std::uint32_t s0 = rayFirstSample[rayId];
                         std::uint32_t s1 = rayFirstSample[rayId + 1];
                         const int m = static_cast<int>(s1 - s0);
                         decoded.resize(m);
                         _model.decoder().decodeBatchSoA(
                             featuresSoA.data() + s0, S, m, ray.dir,
                             decoded.data());
                         for (int i = 0; i < m; ++i) {
                             std::uint32_t s = s0 + i;
                             fw.mlpMacs += _model.nominalMlpMacs();
                             fw.compositeOps += 12;
                             comp.add(decoded[i].sigma, decoded[i].rgb,
                                      samples[s].t, samples[s].dt);
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
