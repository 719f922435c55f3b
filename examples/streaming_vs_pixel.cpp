/**
 * @file
 * Memory-centric vs pixel-centric rendering, side by side: renders the
 * same frame through both data flows, verifies the images match, and
 * contrasts their DRAM behaviour — the Sec. IV-A result in miniature.
 *
 * Usage: streaming_vs_pixel [scene]
 */

#include <cstdio>

#include "cicero/streaming_renderer.hh"
#include "common/stats.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"

using namespace cicero;

int
main(int argc, char **argv)
{
    std::string sceneName = argc > 1 ? argv[1] : "lego";
    Scene scene = makeScene(sceneName);

    ModelBuildOptions opts;
    opts.gridLayout = GridLayout::MVoxelBlocked;
    auto model = buildModel(ModelKind::DirectVoxGO, scene, opts);

    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    Camera cam = Camera::fromFov(96, 96, scene.fovYDeg,
                                 orbitTrajectory(orbit, 1)[0]);

    // Pixel-centric: the baseline order. Trace its gather accesses.
    DramModel pixelDram;
    LruCache pixelCache;
    WarpInterleaver interleaver(32); // GPU warp scheduling
    interleaver.addSink(&pixelDram);
    interleaver.addSink(&pixelCache);
    StageWork pixelWork = model->traceWorkload(cam, &interleaver);
    RenderResult pixel = model->render(cam);

    // Memory-centric: MVoxels streamed once, in address order.
    StreamingRenderer streaming(*model);
    DramModel streamDram;
    RenderResult streamed = streaming.render(cam, &streamDram);

    std::printf("functional equivalence: PSNR(streaming, pixel) = %.1f "
                "dB (identical up to the early-termination cutoff)\n\n",
                psnr(streamed.image, pixel.image));

    std::printf("%-28s %14s %14s\n", "", "pixel-centric",
                "memory-centric");
    std::printf("%-28s %13.1f%% %13.1f%%\n", "non-streaming DRAM",
                100.0 * pixelDram.stats().nonStreamingFraction(),
                100.0 * streamDram.stats().nonStreamingFraction());
    std::printf("%-28s %14s %14s\n", "DRAM traffic",
                formatBytes(static_cast<double>(
                                pixelDram.stats().bytes))
                    .c_str(),
                formatBytes(static_cast<double>(
                                streamDram.stats().bytes))
                    .c_str());
    std::printf("%-28s %13.1f%% %14s\n", "2MB cache miss rate",
                100.0 * pixelCache.stats().missRate(), "n/a (1 visit)");
    std::printf("%-28s %14s %14s\n", "DRAM energy",
                formatDouble(pixelDram.energyNj() * 1e-6, 2).append(" mJ")
                    .c_str(),
                formatDouble(streamDram.energyNj() * 1e-6, 3)
                    .append(" mJ")
                    .c_str());

    auto stats = streaming.lastStats();
    std::printf("\nstreaming stats: %llu MVoxels loaded once "
                "(%s), %llu RIT entries (%llu partial/boundary), "
                "%llu samples\n",
                static_cast<unsigned long long>(stats.blocksLoaded),
                formatBytes(static_cast<double>(stats.streamedBytes))
                    .c_str(),
                static_cast<unsigned long long>(stats.ritEntries),
                static_cast<unsigned long long>(stats.boundaryEntries),
                static_cast<unsigned long long>(stats.samples));
    std::printf("pixel-centric issued %llu vertex fetches for the same "
                "frame.\n",
                static_cast<unsigned long long>(
                    pixelWork.vertexFetches));

    // Hierarchical case: the hash grid streams its dense levels and
    // reverts to random access for the hashed ones (Sec. IV-A).
    std::printf("\n--- hierarchical encoding (Instant-NGP-like) ---\n");
    auto ngp = buildModel(ModelKind::InstantNgp, scene, opts);
    StreamingRenderer hier(*ngp);
    DramModel hierDram;
    RenderResult h = hier.render(cam, &hierDram);
    RenderResult hRef = ngp->render(cam);
    auto hs = hier.lastStats();
    std::printf("PSNR vs pixel-centric: %.1f dB\n",
                psnr(h.image, hRef.image));
    std::printf("levels: %d streamed (dense), %d reverted (hashed)\n",
                hs.denseLevels, hs.hashedLevels);
    std::printf("traffic: %s streamed + %s random -> %.0f%% "
                "non-streaming by bytes (by levels the split is %d/%d,\n"
                "the paper's 'about half' for Instant-NGP)\n",
                formatBytes(static_cast<double>(hs.streamedBytes))
                    .c_str(),
                formatBytes(static_cast<double>(hs.randomBytes))
                    .c_str(),
                100.0 * hs.nonStreamingFraction(), hs.hashedLevels,
                hs.denseLevels + hs.hashedLevels);
    return 0;
}
