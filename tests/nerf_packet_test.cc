/**
 * @file
 * Differential tests for the ray-packet walk. Every render entry point
 * (render, renderPixels, renderServeRows) is checked
 * bit for bit against a test-local per-ray scalar walk — sample,
 * Encoding::gatherFeature, Decoder::decode, Compositor — on the packet
 * edge cases: packets that mix 1-sample and longest rays, packets of
 * background rays only, a 1x1 frame and widths not divisible by the
 * packet width. The work counters and the packet decode counts must
 * follow from each ray's block sequence. The render walk records no
 * trace; the traced walk is traceWorkload(), checked in
 * parallel_determinism_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "nerf/renderer.hh"
#include "nerf/volume_renderer.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/** What the scalar walk produced for one ray. */
struct ScalarRay
{
    Vec3 rgb;
    float depth = 0.0f;
    int marched = 0;  //!< samples the sampler produced
    int consumed = 0; //!< samples the compositor consumed
    int blocks = 0;   //!< decode blocks the packet walk spends on it
    int decoded = 0;  //!< samples in those blocks
};

/**
 * One ray, one sample at a time. The block count follows the
 * renderer's documented 8-sample first block doubling to 64.
 */
ScalarRay
scalarRay(const NerfModel &model, const Camera &camera, int px, int py)
{
    ScalarRay out;
    const Ray ray = camera.generateRay(px, py);
    std::vector<RaySample> samples;
    out.marched = model.sampler().sample(ray, samples);

    Compositor comp;
    for (int i = 0; i < out.marched; ++i) {
        const RaySample &s = samples[i];
        float feature[kFeatureDim];
        model.encoding().gatherFeature(s.pn, feature);
        const DecodedSample d = model.decoder().decode(feature, ray.dir);
        ++out.consumed;
        if (!comp.add(d.sigma, d.rgb, s.t, s.dt))
            break;
    }
    const CompositeResult r = comp.finish(model.scene().background);
    out.rgb = r.rgb;
    out.depth = r.depth;

    for (int base = 0, block = 8; base < out.marched;
         base += block, block = std::min(2 * block, 64)) {
        const int m = std::min(block, out.marched - base);
        ++out.blocks;
        out.decoded += m;
        if (out.consumed <= base + m)
            break;
    }
    return out;
}

/** Scalar walk of a whole frame, indexed by ray id. */
std::vector<ScalarRay>
scalarFrame(const NerfModel &model, const Camera &camera)
{
    std::vector<ScalarRay> rays;
    for (int py = 0; py < camera.height; ++py)
        for (int px = 0; px < camera.width; ++px)
            rays.push_back(scalarRay(model, camera, px, py));
    return rays;
}

/** Pixels of @p ids whose colour or depth differ from the scalar walk. */
int
mismatches(const std::vector<ScalarRay> &ref, const Image &image,
           const DepthMap &depth, const std::vector<std::uint32_t> &ids)
{
    int bad = 0;
    for (std::uint32_t id : ids) {
        const Vec3 c = image.at(id);
        const float d = depth.at(id);
        const ScalarRay &r = ref[id];
        const bool depthSame =
            d == r.depth || (std::isinf(d) && std::isinf(r.depth));
        if (c.x != r.rgb.x || c.y != r.rgb.y || c.z != r.rgb.z ||
            !depthSame)
            ++bad;
    }
    return bad;
}

std::vector<std::uint32_t>
allIds(const Camera &camera)
{
    std::vector<std::uint32_t> ids(
        static_cast<std::size_t>(camera.width) * camera.height);
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<std::uint32_t>(i);
    return ids;
}

/** The packet decode counts a serial walk of @p ids must report. */
FusionStats
expectedFusion(const std::vector<ScalarRay> &ref,
               const std::vector<std::uint32_t> &ids)
{
    FusionStats f;
    for (std::size_t p = 0; p < ids.size(); p += kPacketRays) {
        const std::size_t e = std::min(ids.size(), p + kPacketRays);
        std::vector<int> blocks;
        for (std::size_t k = p; k < e; ++k) {
            f.blocks += ref[ids[k]].blocks;
            f.samples += ref[ids[k]].decoded;
            blocks.push_back(ref[ids[k]].blocks);
        }
        // A packet runs one decode pass per round while any ray is
        // live, and a fused pass while at least two are.
        std::sort(blocks.rbegin(), blocks.rend());
        f.passes += blocks[0];
        if (blocks.size() > 1)
            f.fusedPasses += blocks[1];
    }
    return f;
}

struct ModelCase
{
    const char *name;
    std::unique_ptr<NerfModel> (*make)();
};

std::unique_ptr<NerfModel>
makeLinear()
{
    return test::tinyModel(GridLayout::Linear);
}

const ModelCase kModels[] = {
    {"linear", &makeLinear},
    {"hash", &test::tinyHashModel},
};

constexpr int kThreadCounts[] = {1, 4, 7};

Camera
frameCamera(int w, int h)
{
    const Pose pose = Pose::lookAt({0.0f, 0.5f, 2.5f}, {0.0f, 0.0f, 0.0f},
                                   {0.0f, 1.0f, 0.0f});
    return Camera::fromFov(w, h, 40.0f, pose);
}

TEST(PacketWalkTest, RenderMatchesScalarWalk)
{
    ThreadCountGuard guard;
    const int sizes[][2] = {{1, 1}, {7, 3}, {33, 17}};
    for (const ModelCase &mc : kModels) {
        const std::unique_ptr<NerfModel> model = mc.make();
        for (const auto &wh : sizes) {
            const Camera cam = frameCamera(wh[0], wh[1]);
            const std::vector<ScalarRay> ref = scalarFrame(*model, cam);
            const std::vector<std::uint32_t> ids = allIds(cam);
            std::uint64_t consumed = 0;
            for (const ScalarRay &r : ref)
                consumed += static_cast<std::uint64_t>(r.consumed);

            for (int threads : kThreadCounts) {
                setParallelThreadCount(threads);
                const RenderResult out = model->render(cam);
                EXPECT_EQ(mismatches(ref, out.image, out.depth, ids), 0)
                    << mc.name << " " << wh[0] << "x" << wh[1]
                    << " threads " << threads;
                EXPECT_EQ(out.work.rays, ids.size());
                EXPECT_EQ(out.work.samples, consumed);
            }
        }
    }
}

TEST(PacketWalkTest, PixelsMatchScalarWalkOnEdgePackets)
{
    ThreadCountGuard guard;
    for (const ModelCase &mc : kModels) {
        const std::unique_ptr<NerfModel> model = mc.make();
        const Camera cam = frameCamera(48, 48);
        const std::vector<ScalarRay> ref = scalarFrame(*model, cam);

        // Background rays (nothing marched), 1-sample rays and the
        // frame's longest rays.
        int longest = 0;
        for (const ScalarRay &r : ref)
            longest = std::max(longest, r.consumed);
        std::vector<std::uint32_t> background, shortest, longRays, rest;
        for (std::uint32_t id = 0; id < ref.size(); ++id) {
            if (ref[id].marched == 0)
                background.push_back(id);
            else if (ref[id].consumed == 1)
                shortest.push_back(id);
            else if (ref[id].consumed == longest)
                longRays.push_back(id);
            else
                rest.push_back(id);
        }
        ASSERT_GE(background.size(), static_cast<std::size_t>(kPacketRays))
            << mc.name;
        ASSERT_FALSE(shortest.empty()) << mc.name;
        ASSERT_FALSE(longRays.empty()) << mc.name;
        ASSERT_GT(longest, 8) << mc.name; // spans several decode blocks

        // First a packet of background rays only, then packets that
        // alternate 1-sample and longest rays, then every other pixel
        // in a fixed pseudo-random order.
        std::vector<std::uint32_t> ids(background.begin(),
                                       background.begin() + kPacketRays);
        for (int k = 0; k < 2 * kPacketRays; ++k)
            ids.push_back(k % 2 ? longRays[k / 2 % longRays.size()]
                                : shortest[k / 2 % shortest.size()]);
        rest.insert(rest.end(), background.begin() + kPacketRays,
                    background.end());
        std::uint64_t lcg = 12345;
        for (std::size_t i = rest.size(); i > 1; --i) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(rest[i - 1], rest[(lcg >> 33) % i]);
        }
        ids.insert(ids.end(), rest.begin(), rest.end());
        // Repeated ids are fine: each visit rewrites the same pixel.

        for (int threads : kThreadCounts) {
            setParallelThreadCount(threads);
            Image image(cam.width, cam.height);
            DepthMap depth(cam.width, cam.height);
            model->renderPixels(cam, ids, image, depth);
            EXPECT_EQ(mismatches(ref, image, depth, ids), 0)
                << mc.name << " threads " << threads;
        }
    }
}

TEST(PacketWalkTest, ServeRowsMatchScalarWalkAndCountPackets)
{
    ThreadCountGuard guard;
    for (const ModelCase &mc : kModels) {
        const std::unique_ptr<NerfModel> model = mc.make();
        const Camera cam = frameCamera(33, 17);
        const std::vector<ScalarRay> ref = scalarFrame(*model, cam);
        const int ranges[][2] = {{0, 5}, {5, 6}, {6, 17}};

        FusionStats expected;
        for (const auto &r : ranges) {
            std::vector<std::uint32_t> ids;
            for (std::uint32_t id = r[0] * cam.width;
                 id < static_cast<std::uint32_t>(r[1] * cam.width); ++id)
                ids.push_back(id);
            expected += expectedFusion(ref, ids);
        }
        ASSERT_GE(expected.fusedPasses, 1u) << mc.name;
        ASSERT_GT(expected.blocks, expected.passes) << mc.name;

        for (int threads : kThreadCounts) {
            setParallelThreadCount(threads);
            Image image(cam.width, cam.height);
            DepthMap depth(cam.width, cam.height);
            std::vector<FusionStats> parts(std::size(ranges));
            // The ranges render concurrently, as serve block tasks do.
            parallelFor(0, static_cast<std::int64_t>(std::size(ranges)), 1,
                        [&](std::int64_t b, std::int64_t e) {
                            for (std::int64_t i = b; i < e; ++i)
                                model->renderServeRows(
                                    cam, ranges[i][0], ranges[i][1], image,
                                    depth, &parts[i]);
                        });
            FusionStats fu;
            for (const FusionStats &p : parts)
                fu += p;
            EXPECT_EQ(mismatches(ref, image, depth, allIds(cam)), 0)
                << mc.name << " threads " << threads;
            EXPECT_EQ(fu.blocks, expected.blocks) << mc.name;
            EXPECT_EQ(fu.samples, expected.samples) << mc.name;
            EXPECT_EQ(fu.passes, expected.passes) << mc.name;
            EXPECT_EQ(fu.fusedPasses, expected.fusedPasses) << mc.name;
            EXPECT_EQ(fu.crossSessionPasses, 0u);
        }
    }
}

} // namespace
} // namespace cicero
