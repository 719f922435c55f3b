/**
 * @file
 * cicero_serve — demo CLI for the multi-session render service.
 *
 * Spins up an in-process RenderService, admits N synthetic client
 * sessions (orbit trajectories with per-client phase; optionally
 * bursty or heavy-tailed mixes), waits for all of them, and prints a
 * per-session latency/throughput table plus the service, cache and
 * packet decode counters. This is the operational smoke tool — the measured
 * bench with bit-identity gates is bench/bench_serve.
 *
 * Usage:
 *   cicero_serve [--sessions N] [--frames N] [--res N] [--scene NAME]
 *                [--model ngp|dvgo|tensorf|enerf] [--preset fast|full]
 *                [--window N] [--mix uniform|bursty|heavy]
 *                [--no-fanout] [--fp16] [--faults SPEC]
 *
 * --no-fanout disables intra-frame ray-block fan-out (each served
 * frame renders as one scheduler task).
 *
 * Exit codes: 0 success, 2 usage error, 3 I/O error, 4 parse error,
 * 5 other runtime failure (including injected faults that exhaust the
 * service's retry/quarantine budget).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/errors.hh"
#include "common/parallel.hh"
#include "scene/trajectory.hh"
#include "serve/render_service.hh"

using namespace cicero;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cicero_serve [--sessions N] [--frames N] [--res N]\n"
        "                    [--scene NAME] [--model KIND]\n"
        "                    [--preset fast|full] [--window N]\n"
        "                    [--mix uniform|bursty|heavy]\n"
        "                    [--no-fanout] [--fp16] [--threads N]\n"
        "                    [--faults SPEC]\n"
        "\n"
        "exit codes: 0 ok, 2 usage, 3 I/O error, 4 parse error,\n"
        "            5 other failure\n");
    return 2;
}

double
percentileMs(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return 1e3 * (v[lo] * (1.0 - frac) + v[hi] * frac);
}

int
run(int argc, char **argv)
{
    const cli::Args cli(argc, argv, 1, "cicero_serve",
                        {"--fp16", "--no-fanout"});
    cli.applyThreadsOption();
    if (!cli.applyFaultsOption())
        return usage();
    std::uint32_t sessions, frames, res, window;
    if (!cli.optUint("--sessions", 4, 1, 1024, sessions) ||
        !cli.optUint("--frames", 8, 1, 100000, frames) ||
        !cli.optUint("--res", 64, 1, 4096, res) ||
        !cli.optUint("--window", 2, 1, 1024, window))
        return usage();

    ModelKind kind = ModelKind::DirectVoxGO;
    if (!parseModelKind(cli.optValueOr("--model", "dvgo"),
                        kind)) {
        std::fprintf(stderr, "unknown --model\n");
        return usage();
    }
    const std::string sceneName = cli.optValueOr("--scene", "lego");
    ModelKey key;
    if (!parseModelPreset(cli.optValueOr("--preset", "fast"),
                          key.preset)) {
        std::fprintf(stderr, "unknown --preset\n");
        return usage();
    }
    const std::string mix = cli.optValueOr("--mix", "uniform");
    if (mix != "uniform" && mix != "bursty" && mix != "heavy") {
        std::fprintf(stderr, "unknown --mix\n");
        return usage();
    }

    key.scene = sceneName;
    key.kind = kind;
    key.fp16 = cli.optFlag("--fp16");

    const bool fanOut = !cli.optFlag("--no-fanout");
    if (!cli.onlyKnownOptions())
        return usage();
    RenderServiceConfig cfg;
    if (!fanOut)
        cfg.fanOutBlockRows = static_cast<int>(res); // one block per frame
    cfg.maxSessions = static_cast<int>(sessions) + 1;
    cfg.defaultInflightWindow = static_cast<int>(window);
    RenderService svc(cfg);

    const Scene scene = makeScene(sceneName);
    auto makeClient = [&](int i, int numFrames) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = static_cast<float>(i) * (360.0f / 17.0f);
        ServeSessionConfig sc;
        sc.model = key;
        sc.width = static_cast<int>(res);
        sc.height = static_cast<int>(res);
        sc.trajectory = orbitTrajectory(orbit, numFrames);
        if (mix == "heavy" && i == 0) {
            JitterParams jitter;
            jitter.posSigma = 0.01f;
            jitter.rotSigmaDeg = 0.5f;
            applyJitter(sc.trajectory, jitter);
        }
        return sc;
    };

    std::printf("cicero_serve: %u session(s) x %u frame(s) @ %ux%u, "
                "%s/%s, fanout=%s, fp16=%s, window=%u, mix=%s, "
                "threads=%d\n",
                sessions, frames, res, res, sceneName.c_str(),
                modelName(kind), fanOut ? "on" : "off",
                key.fp16 ? "on" : "off", window, mix.c_str(),
                parallelThreadCount());

    std::vector<int> ids(sessions, -1);
    auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t firstWave =
        mix == "bursty" ? std::max(1u, sessions / 2) : sessions;
    for (std::uint32_t i = 0; i < firstWave; ++i)
        ids[i] = svc.admit(makeClient(
            static_cast<int>(i),
            static_cast<int>(mix == "heavy" && i == 0 ? 4 * frames
                                                      : frames)));
    if (firstWave < sessions) {
        for (std::uint32_t i = 0; i < firstWave; ++i)
            svc.waitFrame(ids[i], 0); // wave 2 arrives mid-flight
        for (std::uint32_t i = firstWave; i < sessions; ++i)
            ids[i] = svc.admit(
                makeClient(static_cast<int>(i), static_cast<int>(frames)));
    }

    std::uint64_t totalRays = 0;
    for (std::uint32_t i = 0; i < sessions; ++i) {
        ServeSessionResult r = svc.wait(ids[i]);
        std::vector<double> lat;
        double renderS = 0.0;
        for (const ServeFrame &f : r.frames) {
            lat.push_back(f.latencyS);
            renderS += f.renderS;
            totalRays += f.work.rays;
        }
        std::printf("  session %-3d %3zu frames  p50 %8.2f ms  "
                    "p95 %8.2f ms  render %7.3f s\n",
                    r.sessionId, r.frames.size(), percentileMs(lat, 0.5),
                    percentileMs(lat, 0.95), renderS);
    }
    const double wallS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    const ServiceCounters sc = svc.counters();
    const ModelCacheStats mc = svc.cache().stats();
    const FusionStats fu = svc.cache().fusionStatsTotal();
    std::printf("total: %.3f s wall, %.1f rays/s aggregate\n", wallS,
                wallS > 0.0 ? totalRays / wallS : 0.0);
    std::printf("service: admitted=%llu rejected=%llu frames=%llu\n",
                static_cast<unsigned long long>(sc.admitted),
                static_cast<unsigned long long>(sc.rejected),
                static_cast<unsigned long long>(sc.framesCompleted));
    std::printf("cache:   hits=%llu misses=%llu evictions=%llu\n",
                static_cast<unsigned long long>(mc.hits),
                static_cast<unsigned long long>(mc.misses),
                static_cast<unsigned long long>(mc.evictions));
    const double passes =
        fu.passes > 0 ? static_cast<double>(fu.passes) : 1.0;
    std::printf("fusion:  blocks=%llu samples=%llu passes=%llu "
                "fused=%llu max_batch=%llu avg_batch_samples=%.2f "
                "avg_batch_blocks=%.2f\n",
                static_cast<unsigned long long>(fu.blocks),
                static_cast<unsigned long long>(fu.samples),
                static_cast<unsigned long long>(fu.passes),
                static_cast<unsigned long long>(fu.fusedPasses),
                static_cast<unsigned long long>(fu.maxBatchSamples),
                static_cast<double>(fu.samples) / passes,
                static_cast<double>(fu.blocks) / passes);
    std::printf("robust:  retries=%llu failed=%llu skipped=%llu "
                "quarantined=%llu shed=%llu deadline_miss=%llu\n",
                static_cast<unsigned long long>(sc.frameRetries),
                static_cast<unsigned long long>(sc.framesFailed),
                static_cast<unsigned long long>(sc.framesSkipped),
                static_cast<unsigned long long>(sc.quarantinedSessions),
                static_cast<unsigned long long>(sc.shedAdmissions),
                static_cast<unsigned long long>(sc.deadlineMisses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const IoError &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 3;
    } catch (const ParseError &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 5;
    }
}
