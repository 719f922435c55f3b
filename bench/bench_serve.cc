/**
 * @file
 * Render-service bench: aggregate throughput and frame-latency
 * distribution of the multi-session serving layer under synthetic
 * traffic mixes, emitted as one JSON object.
 *
 * Legs:
 *  - solo: every session's trajectory rendered alone through
 *    NerfModel::render (full-pool parallel) — the bit-identity
 *    reference for every serve leg, and a context throughput number.
 *  - serial: the serving baseline — sessions handled one at a time,
 *    in-flight window 1, fan-out off. This is what a naive server that
 *    serializes clients achieves; the headline gate compares against
 *    it.
 *  - uniform: S identical sessions admitted together for
 *    S in {1,2,4,8,16}; reports p50/p95/p99 frame latency, aggregate
 *    rays/s, packet decode counters and scheduler-counter deltas per
 *    S.
 *  - low_session: S in {1,2} run twice, intra-frame ray-block fan-out
 *    off vs on — what fan-out buys at low occupancy. Gated (multi-core
 *    only): fan-out on must be faster (aggregate rays/s) than off at
 *    both counts, the 2-session fan-out-on leg must reach >= 1.2x the
 *    serial baseline, and its ray packets must average more than one
 *    block per decode pass.
 *  - fp16: the 8-session uniform mix on the fp16-storage model
 *    variant (packet decode also amortizes the per-call weight
 *    widening).
 *  - bursty: half the sessions admitted immediately, the second wave
 *    admitted only after the first wave's first frames completed.
 *  - heavy_tailed: one elephant session (4x the frames, jittered
 *    trajectory) among mice; reports elephant vs mice p95 latency —
 *    the fair-share check.
 *
 * Exit code gates on (a) every session of every leg bit-identical to
 * its solo render (at the shed resolution for a session admission
 * control shed to half size), (b) — only when the pool has >= 2 threads AND
 * the machine has >= 2 hardware cores — aggregate rays/s of the
 * 8-session uniform leg >= 1.5x the serial baseline, and (c) under
 * the same arming, the low_session fan-out gates. On a single-core
 * runner extra software threads only time-slice the one core, so
 * concurrent sessions cannot beat the serial walk and the perf legs
 * are smoke tests there, like the other parallel benches.
 *
 * --quick cuts resolution, frame counts and the session sweep for the
 * CI smoke step; every bit-identity check still runs.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "serve/render_service.hh"

using namespace cicero;
using namespace cicero::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

bool
identical(const Image &a, const Image &b)
{
    if (a.pixelCount() != b.pixelCount())
        return false;
    for (std::size_t i = 0; i < a.pixelCount(); ++i)
        if (a.at(i).x != b.at(i).x || a.at(i).y != b.at(i).y ||
            a.at(i).z != b.at(i).z)
            return false;
    return true;
}

double
percentileMs(std::vector<double> latencies, double p)
{
    if (latencies.empty())
        return 0.0;
    std::sort(latencies.begin(), latencies.end());
    const double rank = p * static_cast<double>(latencies.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return 1e3 *
           (latencies[lo] * (1.0 - frac) + latencies[hi] * frac);
}

/** One client's request in a traffic mix. */
struct ClientSpec
{
    std::vector<Pose> trajectory;
    int width = 0;
    int height = 0;
};

/** Everything one serve leg produced. */
struct LegResult
{
    double wallS = 0.0;
    std::uint64_t rays = 0;
    bool bitIdentical = true;
    std::vector<std::vector<double>> latencyS; //!< per client, per frame
    FusionStats fusion; //!< packet decode counters
    SchedulerCounters sched;
    ServiceCounters service;

    double raysPerS() const { return wallS > 0.0 ? rays / wallS : 0.0; }
    /** Mean ray blocks per packet decode pass. */
    double avgBatchBlocks() const
    {
        return fusion.passes > 0 ? static_cast<double>(fusion.blocks) /
                                       static_cast<double>(fusion.passes)
                                 : 0.0;
    }
    std::vector<double> allLatencies() const
    {
        std::vector<double> out;
        for (const auto &c : latencyS)
            out.insert(out.end(), c.begin(), c.end());
        return out;
    }
};

/**
 * Run one leg: admit every client per @p admitWave (clients whose wave
 * is 0 immediately; wave-1 clients after every wave-0 client finished
 * its first frame), wait for all, and check each client's frames
 * against @p solo.
 */
LegResult
runLeg(const ModelKey &key, const std::vector<ClientSpec> &clients,
       const std::vector<std::vector<Image>> &solo, int window,
       bool fanOut = true, const std::vector<int> *admitWave = nullptr,
       bool serializeClients = false)
{
    RenderServiceConfig cfg;
    if (!fanOut) // block rows of at least every frame's height: one block
        for (const ClientSpec &c : clients)
            cfg.fanOutBlockRows = std::max(cfg.fanOutBlockRows, c.height);
    cfg.maxSessions = static_cast<int>(clients.size()) + 1;
    RenderService svc(cfg);

    // Pin the model so its (untimed) build happens here, not inside
    // the first admit of the timed region.
    SharedModelCache::Lease pin = svc.cache().acquire(key);

    LegResult leg;
    leg.latencyS.resize(clients.size());
    std::vector<ServeSessionResult> results(clients.size());
    std::vector<int> ids(clients.size(), -1);

    auto sessionConfig = [&](std::size_t i) {
        ServeSessionConfig sc;
        sc.model = key;
        sc.width = clients[i].width;
        sc.height = clients[i].height;
        sc.trajectory = clients[i].trajectory;
        sc.inflightWindow = window;
        return sc;
    };

    const SchedulerCounters base = parallelSchedulerCounters();
    const Clock::time_point t0 = Clock::now();
    if (serializeClients) {
        for (std::size_t i = 0; i < clients.size(); ++i) {
            ids[i] = svc.admit(sessionConfig(i));
            results[i] = svc.wait(ids[i]);
        }
    } else {
        for (std::size_t i = 0; i < clients.size(); ++i)
            if (!admitWave || (*admitWave)[i] == 0)
                ids[i] = svc.admit(sessionConfig(i));
        if (admitWave) {
            for (std::size_t i = 0; i < clients.size(); ++i)
                if ((*admitWave)[i] == 0)
                    svc.waitFrame(ids[i], 0);
            for (std::size_t i = 0; i < clients.size(); ++i)
                if ((*admitWave)[i] != 0)
                    ids[i] = svc.admit(sessionConfig(i));
        }
        for (std::size_t i = 0; i < clients.size(); ++i)
            results[i] = svc.wait(ids[i]);
    }
    leg.wallS = seconds(Clock::now() - t0);
    leg.sched = parallelSchedulerCountersSince(base);
    leg.fusion = svc.cache().fusionStatsTotal();
    leg.service = svc.counters();

    // A session shed at admission renders at max(8, w/2) x max(8, h/2)
    // (RenderService's overload shedding), so its reference is a solo
    // render at that resolution, not the full-size one.
    const NerfModel &model = pin.model();
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const auto &frames = results[i].frames;
        for (std::size_t f = 0; f < frames.size(); ++f) {
            leg.rays += frames[f].work.rays;
            leg.latencyS[i].push_back(frames[f].latencyS);
            Image shedRef;
            if (results[i].downsampled)
                shedRef = model
                              .render(Camera::fromFov(
                                  std::max(8, clients[i].width / 2),
                                  std::max(8, clients[i].height / 2),
                                  model.scene().fovYDeg,
                                  clients[i].trajectory[f]))
                              .image;
            if (!identical(frames[f].image,
                           results[i].downsampled ? shedRef : solo[i][f]))
                leg.bitIdentical = false;
        }
    }
    return leg;
}

void
printFusion(const FusionStats &f)
{
    const double passes =
        f.passes > 0 ? static_cast<double>(f.passes) : 1.0;
    std::printf("\"fusion\": {\"blocks\": %llu, \"samples\": %llu, "
                "\"passes\": %llu, \"fused_passes\": %llu, "
                "\"avg_batch_samples\": %.2f, "
                "\"avg_batch_blocks\": %.2f, "
                "\"max_batch_samples\": %llu}",
                static_cast<unsigned long long>(f.blocks),
                static_cast<unsigned long long>(f.samples),
                static_cast<unsigned long long>(f.passes),
                static_cast<unsigned long long>(f.fusedPasses),
                static_cast<double>(f.samples) / passes,
                static_cast<double>(f.blocks) / passes,
                static_cast<unsigned long long>(f.maxBatchSamples));
}

void
printSched(const SchedulerCounters &c)
{
    std::printf("\"counters\": {\"steals\": %llu, "
                "\"idle_wakeups\": %llu, \"idle_ms\": %.3f, "
                "\"tasks\": %llu, \"dep_tasks\": %llu, "
                "\"dep_stall_ms\": %.3f}",
                static_cast<unsigned long long>(c.steals),
                static_cast<unsigned long long>(c.idleWakeups),
                c.idleNanos * 1e-6,
                static_cast<unsigned long long>(c.tasksExecuted),
                static_cast<unsigned long long>(c.depTasksSubmitted),
                c.depStallNanos * 1e-6);
}

/**
 * Robustness counters: retries/quarantines/shedding from the service,
 * drained tasks from the scheduler. All zero on a healthy leg — the bench asserts nothing
 * about them, it *surfaces* them so a regression that starts tripping
 * the degradation machinery is visible in the JSON.
 */
void
printRobust(const ServiceCounters &s, const SchedulerCounters &c)
{
    std::printf("\"robustness\": {\"frame_retries\": %llu, "
                "\"frames_failed\": %llu, \"frames_skipped\": %llu, "
                "\"quarantined_sessions\": %llu, "
                "\"shed_admissions\": %llu, \"deadline_misses\": %llu, "
                "\"tasks_drained\": %llu, \"groups_cancelled\": %llu}",
                static_cast<unsigned long long>(s.frameRetries),
                static_cast<unsigned long long>(s.framesFailed),
                static_cast<unsigned long long>(s.framesSkipped),
                static_cast<unsigned long long>(s.quarantinedSessions),
                static_cast<unsigned long long>(s.shedAdmissions),
                static_cast<unsigned long long>(s.deadlineMisses),
                static_cast<unsigned long long>(c.tasksDrained),
                static_cast<unsigned long long>(c.groupsCancelled));
}

void
printLatencies(const std::vector<double> &lat)
{
    std::printf("\"latency_p50_ms\": %.3f, \"latency_p95_ms\": %.3f, "
                "\"latency_p99_ms\": %.3f",
                percentileMs(lat, 0.50), percentileMs(lat, 0.95),
                percentileMs(lat, 0.99));
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;

    const int res = quick ? 48 : 64;
    const int frames = quick ? 3 : 6;
    const int window = 2;
    const std::vector<int> sessionCounts =
        quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
    const int maxSessions =
        *std::max_element(sessionCounts.begin(), sessionCounts.end());

    ModelKey key;
    key.scene = "lego";
    key.kind = ModelKind::DirectVoxGO;
    key.preset = ModelPreset::Fast;

    banner("serve", "multi-session render service, packet MLP decode");

    const Scene scene = makeScene(key.scene);

    // Every uniform-mix client i gets a stable orbit (startDeg a
    // function of i only), so the solo references computed once for
    // the largest session count serve every leg.
    auto clientOrbit = [&](int i, int numFrames) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = static_cast<float>(i) * (360.0f / 17.0f);
        return orbitTrajectory(orbit, numFrames);
    };

    std::vector<ClientSpec> uniform(maxSessions);
    for (int i = 0; i < maxSessions; ++i)
        uniform[i] = ClientSpec{clientOrbit(i, frames), res, res};

    // Heavy-tailed mix: one elephant (4x the frames, hand-jittered
    // path) among mice.
    const int mice = quick ? 3 : 6;
    std::vector<ClientSpec> heavy(1 + mice);
    {
        heavy[0] = ClientSpec{clientOrbit(100, 4 * frames), res, res};
        JitterParams jitter;
        jitter.posSigma = 0.01f;
        jitter.rotSigmaDeg = 0.5f;
        applyJitter(heavy[0].trajectory, jitter);
        for (int i = 0; i < mice; ++i)
            heavy[1 + i] =
                ClientSpec{clientOrbit(200 + i, frames), res, res};
    }

    // ---- solo references (and context throughput) -------------------
    // One shared cache builds each model variant once; references use
    // the full-pool parallel render (the library-call baseline a
    // single client owning the machine would get).
    SharedModelCache refCache;
    auto soloRender = [&](const ModelKey &k,
                          const std::vector<ClientSpec> &clients,
                          double *wallS) {
        SharedModelCache::Lease lease = refCache.acquire(k);
        std::vector<std::vector<Image>> out(clients.size());
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < clients.size(); ++i)
            for (const Pose &pose : clients[i].trajectory) {
                Camera cam =
                    Camera::fromFov(clients[i].width, clients[i].height,
                                    scene.fovYDeg, pose);
                out[i].push_back(lease.model().render(cam).image);
            }
        if (wallS)
            *wallS = seconds(Clock::now() - t0);
        return out;
    };

    double soloWallS = 0.0;
    const std::vector<std::vector<Image>> soloUniform =
        soloRender(key, uniform, &soloWallS);
    std::uint64_t soloRays = 0;
    for (const auto &c : soloUniform)
        soloRays += static_cast<std::uint64_t>(c.size()) * res * res;

    const std::vector<std::vector<Image>> soloHeavy =
        soloRender(key, heavy, nullptr);

    ModelKey fp16Key = key;
    fp16Key.fp16 = true;
    const int fp16Sessions = std::min(8, maxSessions);
    std::vector<ClientSpec> fp16Clients(uniform.begin(),
                                        uniform.begin() + fp16Sessions);
    const std::vector<std::vector<Image>> soloFp16 =
        soloRender(fp16Key, fp16Clients, nullptr);

    // ---- serving legs ----------------------------------------------
    const int gateSessions = std::min(8, maxSessions);
    std::vector<ClientSpec> gateClients(uniform.begin(),
                                        uniform.begin() + gateSessions);
    std::vector<std::vector<Image>> soloGate(
        soloUniform.begin(), soloUniform.begin() + gateSessions);

    const LegResult serial =
        runLeg(key, gateClients, soloGate, /*window=*/1,
               /*fanOut=*/false, nullptr, /*serializeClients=*/true);

    std::vector<LegResult> uniformLegs;
    for (int s : sessionCounts) {
        std::vector<ClientSpec> clients(uniform.begin(),
                                        uniform.begin() + s);
        std::vector<std::vector<Image>> solo(soloUniform.begin(),
                                             soloUniform.begin() + s);
        uniformLegs.push_back(runLeg(key, clients, solo, window));
    }

    const LegResult fp16Leg =
        runLeg(fp16Key, fp16Clients, soloFp16, window);

    std::vector<int> waves(gateClients.size(), 0);
    for (std::size_t i = waves.size() / 2; i < waves.size(); ++i)
        waves[i] = 1;
    const LegResult bursty =
        runLeg(key, gateClients, soloGate, window, /*fanOut=*/true,
               &waves);

    const LegResult heavyLeg = runLeg(key, heavy, soloHeavy, window);

    // Low-session legs: fan-out off vs on at 1 and 2 sessions —
    // isolates what intra-frame ray-block fan-out buys when few
    // sessions compete for the pool.
    const std::vector<int> lowCounts{1, 2};
    std::vector<LegResult> lowOff, lowOn;
    for (int s : lowCounts) {
        std::vector<ClientSpec> clients(uniform.begin(),
                                        uniform.begin() + s);
        std::vector<std::vector<Image>> solo(soloUniform.begin(),
                                             soloUniform.begin() + s);
        lowOff.push_back(
            runLeg(key, clients, solo, window, /*fanOut=*/false));
        lowOn.push_back(
            runLeg(key, clients, solo, window, /*fanOut=*/true));
    }

    // ---- verdicts ---------------------------------------------------
    bool allIdentical = serial.bitIdentical &&
                        fp16Leg.bitIdentical && bursty.bitIdentical &&
                        heavyLeg.bitIdentical;
    for (const LegResult &leg : uniformLegs)
        allIdentical = allIdentical && leg.bitIdentical;
    for (std::size_t i = 0; i < lowCounts.size(); ++i)
        allIdentical = allIdentical && lowOff[i].bitIdentical &&
                       lowOn[i].bitIdentical;

    double gateRaysPerS = 0.0;
    for (std::size_t i = 0; i < sessionCounts.size(); ++i)
        if (sessionCounts[i] == gateSessions)
            gateRaysPerS = uniformLegs[i].raysPerS();
    const double gain =
        serial.raysPerS() > 0.0 ? gateRaysPerS / serial.raysPerS() : 0.0;
    // The gain gate asserts a property of parallel hardware: with a
    // single physical core, extra software threads only time-slice it
    // and concurrent sessions cannot beat the serial baseline, so the
    // gate arms only when both the pool and the machine are >= 2 wide.
    const int threads = parallelThreadCount();
    const unsigned hwCores = std::thread::hardware_concurrency();
    const bool gateActive = threads >= 2 && hwCores >= 2;
    const bool gainOk = !gateActive || gain >= 1.5;

    // Fan-out gates (same multi-core arming as the 1.5x gate): at 1
    // and 2 sessions fan-out must strictly raise aggregate rays/s over
    // fan-out off; the 2-session fan-out-on leg must reach 1.2x the
    // serial baseline; and its packets must average > 1 block per
    // decode pass. The strict on-vs-off comparison additionally
    // requires the pool to have spare threads beyond the off leg's own
    // frame concurrency (sessions x window): with threads <= sessions
    // x window the off leg already saturates the pool via window
    // pipelining, fan-out cannot mechanically add parallelism, and the
    // comparison is a coin flip on scheduler noise.
    bool fanoutFaster = true;
    for (std::size_t i = 0; i < lowCounts.size(); ++i) {
        if (threads <= lowCounts[i] * window)
            continue;
        fanoutFaster =
            fanoutFaster && lowOn[i].raysPerS() > lowOff[i].raysPerS();
    }
    const double fanoutGain2 =
        serial.raysPerS() > 0.0
            ? lowOn.back().raysPerS() / serial.raysPerS()
            : 0.0;
    const bool batchDensityOk = lowOn.back().avgBatchBlocks() > 1.0;
    const bool fanoutOk =
        !gateActive ||
        (fanoutFaster && fanoutGain2 >= 1.2 && batchDensityOk);

    // ---- JSON -------------------------------------------------------
    std::printf("{\"bench\": \"serve\", "
                "\"threads\": %d, \"quick\": %s, "
                "\"scene\": \"%s\", \"model\": \"%s\", "
                "\"resolution\": %d, \"frames\": %d, \"window\": %d, "
                "\"solo_parallel_rays_per_s\": %.1f, ",
                threads,
                quick ? "true" : "false", key.scene.c_str(),
                modelName(key.kind), res, frames, window,
                soloWallS > 0.0 ? soloRays / soloWallS : 0.0);

    std::printf("\"serial\": {\"sessions\": %d, "
                "\"wall_s\": %.6f, \"rays_per_s\": %.1f, ",
                gateSessions, serial.wallS, serial.raysPerS());
    printLatencies(serial.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                serial.bitIdentical ? "true" : "false");

    std::printf("\"uniform\": [");
    for (std::size_t i = 0; i < uniformLegs.size(); ++i) {
        const LegResult &leg = uniformLegs[i];
        std::printf("%s{\"sessions\": %d, \"wall_s\": %.6f, "
                    "\"rays_per_s\": %.1f, ",
                    i ? ", " : "", sessionCounts[i], leg.wallS,
                    leg.raysPerS());
        printLatencies(leg.allLatencies());
        std::printf(", \"bit_identical\": %s, ",
                    leg.bitIdentical ? "true" : "false");
        printFusion(leg.fusion);
        std::printf(", ");
        printSched(leg.sched);
        std::printf(", ");
        printRobust(leg.service, leg.sched);
        std::printf("}");
    }
    std::printf("], ");

    std::printf("\"fp16\": {\"sessions\": %d, \"wall_s\": %.6f, "
                "\"rays_per_s\": %.1f, ",
                fp16Sessions, fp16Leg.wallS, fp16Leg.raysPerS());
    printLatencies(fp16Leg.allLatencies());
    std::printf(", \"bit_identical\": %s, ",
                fp16Leg.bitIdentical ? "true" : "false");
    printFusion(fp16Leg.fusion);
    std::printf("}, ");

    std::printf("\"bursty\": {\"sessions\": %d, \"waves\": 2, "
                "\"wall_s\": %.6f, \"rays_per_s\": %.1f, ",
                gateSessions, bursty.wallS, bursty.raysPerS());
    printLatencies(bursty.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                bursty.bitIdentical ? "true" : "false");

    std::printf("\"low_session\": [");
    for (std::size_t i = 0; i < lowCounts.size(); ++i) {
        std::printf("%s{\"sessions\": %d", i ? ", " : "", lowCounts[i]);
        const char *names[2] = {"fanout_off", "fanout_on"};
        const LegResult *legs[2] = {&lowOff[i], &lowOn[i]};
        for (int v = 0; v < 2; ++v) {
            std::printf(", \"%s\": {\"wall_s\": %.6f, "
                        "\"rays_per_s\": %.1f, ",
                        names[v], legs[v]->wallS, legs[v]->raysPerS());
            printLatencies(legs[v]->allLatencies());
            std::printf(", \"bit_identical\": %s, ",
                        legs[v]->bitIdentical ? "true" : "false");
            printFusion(legs[v]->fusion);
            std::printf("}");
        }
        std::printf("}");
    }
    std::printf("], ");

    std::printf("\"heavy_tailed\": {\"sessions\": %d, "
                "\"elephant_frames\": %d, \"wall_s\": %.6f, "
                "\"rays_per_s\": %.1f, "
                "\"elephant_p95_ms\": %.3f, \"mice_p95_ms\": %.3f, ",
                1 + mice, 4 * frames, heavyLeg.wallS,
                heavyLeg.raysPerS(),
                percentileMs(heavyLeg.latencyS[0], 0.95), [&] {
                    std::vector<double> miceLat;
                    for (std::size_t i = 1; i < heavyLeg.latencyS.size();
                         ++i)
                        miceLat.insert(miceLat.end(),
                                       heavyLeg.latencyS[i].begin(),
                                       heavyLeg.latencyS[i].end());
                    return percentileMs(miceLat, 0.95);
                }());
    printLatencies(heavyLeg.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                heavyLeg.bitIdentical ? "true" : "false");

    std::printf("\"aggregate_gain_8_sessions\": %.3f, "
                "\"gain_gate_active\": %s, "
                "\"gain_gate_pass\": %s, "
                "\"fanout_gain_2_sessions\": %.3f, "
                "\"fanout_avg_batch_blocks_2_sessions\": %.2f, "
                "\"batch_density_ok\": %s, "
                "\"fanout_gate_active\": %s, "
                "\"fanout_gate_pass\": %s, "
                "\"all_bit_identical\": %s}\n",
                gain, gateActive ? "true" : "false",
                gainOk ? "true" : "false", fanoutGain2,
                lowOn.back().avgBatchBlocks(),
                batchDensityOk ? "true" : "false",
                gateActive ? "true" : "false",
                fanoutOk ? "true" : "false",
                allIdentical ? "true" : "false");

    return allIdentical && gainOk && fanoutOk ? 0 : 1;
}
