#include "cicero/warp.hh"

#include <cmath>

#include "common/parallel.hh"

namespace cicero {

WarpOutput
warpFrame(const Image &refImage, const DepthMap &refDepth,
          const Camera &refCam, const Camera &tgtCam,
          const OccupancyGrid *occupancy, const Vec3 &background,
          const WarpParams &params)
{
    WarpOutput out;
    out.image = Image(tgtCam.width, tgtCam.height);
    out.depth = DepthMap(tgtCam.width, tgtCam.height, kInfiniteDepth);
    out.stats.totalPixels =
        static_cast<std::uint64_t>(tgtCam.width) * tgtCam.height;

    const float cosThresh =
        std::cos(deg2rad(clamp(params.maxAngleDeg, 0.0f, 180.0f)));

    const std::size_t numPixels =
        static_cast<std::size_t>(tgtCam.width) * tgtCam.height;

    // Bilinear forward splatting in two passes: pass 1 builds a
    // min-depth z-buffer; pass 2 accumulates bilinearly weighted colors
    // from the points that (nearly) win the depth test. This removes
    // the half-pixel rounding error of nearest-pixel splatting, which
    // otherwise dominates the warping PSNR loss.
    std::vector<float> zbuf(numPixels, kInfiniteDepth);
    std::vector<float> wacc(numPixels, 0.0f);
    std::vector<Vec3> cacc(numPixels);

    // Eq. (2): point cloud transform ref-camera -> target-camera frame.
    Mat4 refToTgt = refCam.pose.transformTo(tgtCam.pose);

    // Projection results are cached between the passes.
    struct Splat
    {
        float x, y, z;
        float tol; //!< depth-test tolerance (gradient-aware)
        Vec3 color; //!< source color
    };

    // Stage A — transform / angle-test / project every
    // reference pixel (Eqs. 1-3, the compute-heavy part). Row chunks
    // run in parallel, each producing an ordered local splat list and
    // local counters; concatenating in chunk order reproduces the
    // serial row-major splat order exactly, so the (serial) z-buffer
    // passes below see an identical stream at any thread count.
    struct SplatPart
    {
        std::vector<Splat> splats;
        std::uint64_t transformed = 0;
        std::uint64_t angleRejected = 0;
    };
    std::vector<SplatPart> splatParts = parallelMapChunks<SplatPart>(
        refCam.height,
        [&](SplatPart &part, std::int64_t row0, std::int64_t row1) {
        std::vector<Splat> &localSplats = part.splats;
        localSplats.reserve(static_cast<std::size_t>(row1 - row0) *
                            refCam.width / 2);
        std::uint64_t transformed = 0;
        std::uint64_t angleRejected = 0;

        for (int py = static_cast<int>(row0); py < row1; ++py) {
        for (int px = 0; px < refCam.width; ++px) {
            float d = refDepth.at(px, py);
            if (!std::isfinite(d))
                continue;

            // Eq. (1): back-project to the reference camera frame.
            Vec3 pRef = refCam.backproject(static_cast<float>(px),
                                           static_cast<float>(py), d);
            ++transformed;

            Vec3 pWorld = refCam.pose.cameraToWorld(pRef);
            Vec3 toRef = (refCam.pose.pos - pWorld).normalized();
            Vec3 toTgt = (tgtCam.pose.pos - pWorld).normalized();

            // Warping heuristic (Sec. III-C): angle subtended at the
            // scene point by the two camera centers.
            if (cosThresh > -1.0f + 1e-6f &&
                toRef.dot(toTgt) < cosThresh) {
                ++angleRejected;
                continue;
            }

            Vec3 color = refImage.at(
                static_cast<std::size_t>(py) * refCam.width + px);

            Vec3 pTgt = refToTgt.transformPoint(pRef);

            // Eq. (3): perspective projection into the target frame.
            Vec3 proj = tgtCam.projectCameraSpace(pTgt);
            if (proj.z <= 0.0f)
                continue;
            if (proj.x <= -1.0f || proj.y <= -1.0f ||
                proj.x >= tgtCam.width || proj.y >= tgtCam.height)
                continue;

            // Depth-test tolerance: a grazing surface legitimately spans
            // a large depth range within one pixel, so scale the
            // tolerance with the local reference depth gradient (capped
            // so foreground/background stay separated).
            float grad = 0.0f;
            for (auto [nx, ny] : {std::pair{px + 1, py},
                                  std::pair{px - 1, py},
                                  std::pair{px, py + 1},
                                  std::pair{px, py - 1}}) {
                if (nx < 0 || ny < 0 || nx >= refCam.width ||
                    ny >= refCam.height)
                    continue;
                float nd = refDepth.at(nx, ny);
                if (std::isfinite(nd))
                    grad = std::fmax(grad, std::fabs(nd - d));
            }
            float tol = clamp(1.5f * grad, 0.02f * proj.z,
                              0.10f * proj.z);

            localSplats.push_back(
                Splat{proj.x, proj.y, proj.z, tol, color});
        }
        }
        part.transformed = transformed;
        part.angleRejected = angleRejected;
    });

    std::vector<Splat> splats;
    {
        std::size_t total = 0;
        for (const auto &p : splatParts)
            total += p.splats.size();
        splats.reserve(total);
        for (const SplatPart &p : splatParts) {
            splats.insert(splats.end(), p.splats.begin(),
                          p.splats.end());
            out.stats.pointsTransformed += p.transformed;
            out.stats.angleRejected += p.angleRejected;
        }
    }

    // Pass 1: min-depth z-buffer over each splat's 2x2 bilinear
    // footprint. Cheap memory-bound fmin scatter; kept serial (fmin is
    // order-independent, but neighboring splats contend for pixels).
    for (const Splat &s : splats) {
        int x0 = static_cast<int>(std::floor(s.x));
        int y0 = static_cast<int>(std::floor(s.y));
        for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
                int tx = x0 + dx, ty = y0 + dy;
                if (!out.image.inBounds(tx, ty))
                    continue;
                float w = (dx ? s.x - x0 : 1.0f - (s.x - x0)) *
                          (dy ? s.y - y0 : 1.0f - (s.y - y0));
                if (w < 0.05f)
                    continue;
                std::size_t idx =
                    static_cast<std::size_t>(ty) * tgtCam.width + tx;
                zbuf[idx] = std::fmin(zbuf[idx], s.z);
            }
        }
    }

    // Pass 2: accumulate colors of near-winning points.
    for (const Splat &s : splats) {
        int x0 = static_cast<int>(std::floor(s.x));
        int y0 = static_cast<int>(std::floor(s.y));
        const Vec3 &color = s.color;
        for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
                int tx = x0 + dx, ty = y0 + dy;
                if (!out.image.inBounds(tx, ty))
                    continue;
                float w = (dx ? s.x - x0 : 1.0f - (s.x - x0)) *
                          (dy ? s.y - y0 : 1.0f - (s.y - y0));
                if (w < 0.05f)
                    continue;
                std::size_t idx =
                    static_cast<std::size_t>(ty) * tgtCam.width + tx;
                // Tolerate depth spread around the winner so adjacent
                // surface points blend instead of z-fighting.
                if (s.z <= zbuf[idx] + s.tol) {
                    wacc[idx] += w;
                    cacc[idx] += color * w;
                }
            }
        }
    }

    // Resolve: per-pixel, independent writes — parallel.
    parallelFor(
        0, static_cast<std::int64_t>(numPixels), -1,
        [&](std::int64_t i0, std::int64_t i1) {
            for (std::size_t idx = static_cast<std::size_t>(i0);
                 idx < static_cast<std::size_t>(i1); ++idx) {
                // A pixel is covered once it accumulated meaningful
                // splat weight; weakly touched pixels become holes for
                // the sparse NeRF pass (this is what keeps silhouettes
                // sharp).
                if (wacc[idx] > 0.3f) {
                    int tx = static_cast<int>(idx % tgtCam.width);
                    int ty = static_cast<int>(idx / tgtCam.width);
                    out.image.at(tx, ty) = cacc[idx] / wacc[idx];
                    out.depth.at(tx, ty) = zbuf[idx];
                } else {
                    zbuf[idx] = kInfiniteDepth;
                }
            }
        });

    // Pinhole filling: single-pixel forward splatting leaves isolated
    // holes under magnification/rotation. A hole surrounded by covered
    // pixels (>= 6 of 8 neighbors) is a sampling artifact, not a
    // disocclusion — fill it from the nearest-depth neighbor, the
    // standard fix in point-based rendering.
    {
        // Detection reads a consistent zbuf snapshot: parallel row
        // chunks, candidate lists concatenated in row order.
        std::vector<std::uint32_t> fills =
            parallelConcatChunks<std::uint32_t>(
                tgtCam.height, [&](std::vector<std::uint32_t> &local,
                                   std::int64_t row0, std::int64_t row1) {
            for (int ty = static_cast<int>(row0); ty < row1; ++ty) {
            for (int tx = 0; tx < tgtCam.width; ++tx) {
                std::size_t idx =
                    static_cast<std::size_t>(ty) * tgtCam.width + tx;
                if (std::isfinite(zbuf[idx]))
                    continue;
                int covered = 0;
                for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                        if (dx == 0 && dy == 0)
                            continue;
                        int nx = tx + dx, ny = ty + dy;
                        if (!out.image.inBounds(nx, ny))
                            continue;
                        std::size_t nidx =
                            static_cast<std::size_t>(ny) * tgtCam.width +
                            nx;
                        covered += std::isfinite(zbuf[nidx]);
                    }
                }
                if (covered >= 6)
                    local.push_back(static_cast<std::uint32_t>(idx));
            }
            }
        });

        // Filling mutates zbuf while later fills read it (an earlier
        // fill can seed a later one's neighborhood), so application is
        // order-dependent and stays serial.
        for (std::uint32_t idx : fills) {
            int tx = idx % tgtCam.width;
            int ty = idx / tgtCam.width;
            float best = kInfiniteDepth;
            Vec3 color;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    int nx = tx + dx, ny = ty + dy;
                    if (!out.image.inBounds(nx, ny))
                        continue;
                    std::size_t nidx =
                        static_cast<std::size_t>(ny) * tgtCam.width + nx;
                    if (zbuf[nidx] < best) {
                        best = zbuf[nidx];
                        color = out.image.at(nx, ny);
                    }
                }
            }
            zbuf[idx] = best;
            out.image.at(tx, ty) = color;
            out.depth.at(tx, ty) = best;
        }
    }

    // Hole classification: void (skip) vs disoccluded (sparse NeRF).
    // The occupancy ray test per hole is the expensive part; row
    // chunks run in parallel with per-chunk counters and needRender
    // lists concatenated in row order (the sparse renderer receives
    // the same pixel order as the serial pass).
    {
        struct ClassifyPart
        {
            std::uint64_t warped = 0;
            std::uint64_t disoccluded = 0;
            std::uint64_t voidHoles = 0;
            std::vector<std::uint32_t> needRender;
        };
        std::vector<ClassifyPart> classParts =
            parallelMapChunks<ClassifyPart>(
                tgtCam.height, [&](ClassifyPart &part, std::int64_t row0,
                                   std::int64_t row1) {
            for (int ty = static_cast<int>(row0); ty < row1; ++ty) {
            for (int tx = 0; tx < tgtCam.width; ++tx) {
                std::size_t idx =
                    static_cast<std::size_t>(ty) * tgtCam.width + tx;
                if (std::isfinite(zbuf[idx])) {
                    ++part.warped;
                    continue;
                }
                bool hit = true;
                if (occupancy) {
                    Ray ray = tgtCam.generateRay(tx, ty);
                    hit = occupancy->rayHitsOccupied(ray);
                }
                if (hit) {
                    ++part.disoccluded;
                    part.needRender.push_back(
                        static_cast<std::uint32_t>(idx));
                } else {
                    ++part.voidHoles;
                    out.image.at(tx, ty) = background;
                    out.depth.at(tx, ty) = kInfiniteDepth;
                }
            }
            }
        });
        for (const ClassifyPart &part : classParts) {
            out.stats.warped += part.warped;
            out.stats.disoccluded += part.disoccluded;
            out.stats.voidHoles += part.voidHoles;
            out.needRender.insert(out.needRender.end(),
                                  part.needRender.begin(),
                                  part.needRender.end());
        }
    }

    return out;
}

} // namespace cicero
