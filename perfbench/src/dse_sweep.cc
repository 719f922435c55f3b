/**
 * @file
 * dse_sweep: capture a small corpus through TraceFileWriter once (lego
 * and chair x DirectVoxGO and Instant-NGP x eight views around the
 * orbit, Fast preset, 8x8), then run DseDriver::run over it again and
 * again on a small grid with one set-associative cache_ways value. The
 * only workload that runs src/memory, src/accel and src/dse.
 *
 * Request: one sweep of the captured corpus; its rate is sweep points
 * per second. Output checks: every sweep's result JSON is identical to
 * the first, the parallel sweep equals a serial sweep, and one
 * entry's replayed accelerator stats equal the live render's. A digest
 * of DseResult::json() is printed so a simulator-speed change can show
 * that the simulated statistics did not move.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "dse/corpus.hh"
#include "dse/driver.hh"
#include "memory/replay.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"
#include "workloads.hh"

namespace perfbench {

using namespace cicero;

namespace {

/** Counts accesses and nothing else: the cheapest consumer. */
class CountingSink : public TraceSink
{
  public:
    void onAccess(const MemAccess &) override { ++accesses; }
    std::uint64_t accesses = 0;
};

struct Model
{
    ModelKind kind = ModelKind::DirectVoxGO;
    std::unique_ptr<NerfModel> model;
};

struct Entry
{
    dse::CorpusEntry meta;
    const NerfModel *model = nullptr;
    Camera cam;
};

/** One capture of every entry. */
struct Capture
{
    double seconds = 0.0;
    std::uint64_t rays = 0;
};

TraceFileMeta
traceMeta(const Entry &e)
{
    TraceFileMeta meta;
    meta.scene = e.meta.scene;
    meta.encoding = e.meta.encoding;
    meta.model = e.meta.model;
    meta.width = static_cast<std::uint32_t>(e.cam.width);
    meta.height = static_cast<std::uint32_t>(e.cam.height);
    meta.threads = static_cast<std::uint32_t>(parallelThreadCount());
    meta.featureBytes = static_cast<std::uint32_t>(
        e.model->encoding().featureDim() * kBytesPerChannel);
    return meta;
}

Capture
captureCorpus(const std::vector<Entry> &entries, const dse::Corpus &corpus)
{
    Capture c;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        ScopedSpan span("dse.capture", -1, static_cast<std::int64_t>(i));
        const TraceFileMeta meta = traceMeta(e);
        TraceFileWriter writer(corpus.tracePath(e.meta), meta);
        TraceWorkloadDescriptor desc;
        desc.work = e.model->traceWorkload(e.cam, &writer);
        desc.plan = e.model->encoding().streamingFootprint(
            e.model->collectSamplePositions(e.cam));
        desc.vertexBytes = meta.featureBytes;
        writer.setWorkloadSummary(toSummary(desc));
        writer.close();
        c.rays += desc.work.rays;
    }
    c.seconds = secondsSince(t0);
    return c;
}

struct SweepLoop
{
    std::vector<double> sweepS;
    std::vector<double> pointsPerS;
    std::vector<double> cpuMsPerPoint;
    std::uint64_t points = 0;
    std::uint64_t jsonMismatches = 0;
    std::string firstJson;
};

} // namespace

void
runDseSweep(const Options &o, Result &r)
{
    const int res = o.toy ? 6 : 8;
    const char *const sceneNames[] = {"lego", "chair"};
    const ModelKind kinds[] = {ModelKind::DirectVoxGO, ModelKind::InstantNgp};

    std::vector<Model> models;
    std::vector<double> setupS;
    for (int k = 0; k < kSetupRepeats; ++k) {
        models.clear();
        ScopedSpan span("setup", -1, k);
        const Clock::time_point t0 = Clock::now();
        for (const char *name : sceneNames) {
            const Scene scene = makeScene(name);
            for (ModelKind kind : kinds)
                models.push_back(Model{kind, buildModel(kind, scene)});
        }
        setupS.push_back(secondsSince(t0));
    }

    // Inputs: every model captures eight views around the standard
    // orbit, 45 degrees apart from a seeded offset — the cost of
    // replaying a trace depends on the view, and eight views average
    // that out. The manifest records each frame so an entry can be
    // re-rendered.
    const std::string dir = format("%s/dse-corpus-seed%llu",
                                   o.workDir.c_str(),
                                   static_cast<unsigned long long>(o.seed));
    ::mkdir(dir.c_str(), 0755);
    dse::Corpus corpus(dir);
    Rng rng(o.seed);
    constexpr std::uint32_t kOrbitFrames = 540; // 360 deg at 20 deg/s
    const std::uint32_t views = o.toy ? 2 : 8;
    const std::uint32_t offset = static_cast<std::uint32_t>(
        rng.uniformInt(kOrbitFrames / views));
    std::vector<Entry> entries;
    for (const Model &m : models) {
        const Scene &scene = m.model->scene();
        for (std::uint32_t q = 0; q < views; ++q) {
            const std::uint32_t frame = offset + q * kOrbitFrames / views;
            OrbitParams orbit;
            orbit.radius = scene.cameraDistance;
            Entry e;
            e.model = m.model.get();
            e.cam = Camera::fromFov(res, res, scene.fovYDeg,
                                    orbitTrajectory(orbit, frame + 1)[frame]);
            e.meta.model = m.kind == ModelKind::InstantNgp ? "ngp" : "dvgo";
            e.meta.id = format("%s_%s_%d_f%u", scene.name.c_str(),
                               e.meta.model.c_str(), res, frame);
            e.meta.file = e.meta.id + ".ctrace";
            e.meta.scene = scene.name;
            e.meta.encoding = m.model->encoding().name();
            e.meta.res = static_cast<std::uint32_t>(res);
            e.meta.frame = frame;
            corpus.add(e.meta);
            entries.push_back(std::move(e));
        }
    }
    corpus.save();

    dse::SweepAxes axes;
    axes.cacheMb = {2.0};
    axes.cacheWays = {0, 8};
    axes.guVftKb = {32};
    const dse::DseDriver driver(axes);
    const std::size_t gridPoints = entries.size() * axes.configCount();
    r.note(format("dse_sweep: %zu traces (lego, chair x dvgo, ngp x %u "
                  "views; Fast, %dx%d) x %zu configs (cache_mb 2 x "
                  "cache_ways 0,8)",
                  entries.size(), views, res, res, axes.configCount()));

    // Capture the corpus once; the sweeps read what it wrote.
    const Capture capture = captureCorpus(entries, corpus);
    const double captureRaysPerS =
        static_cast<double>(capture.rays) / capture.seconds;

    auto sweepLoop = [&](double seconds, int minSweeps) {
        SweepLoop loop;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        do {
            const std::int64_t sweep =
                static_cast<std::int64_t>(loop.sweepS.size());
            const Clock::time_point t0 = Clock::now();
            const double cpu0 = processCpuS();
            dse::DseResult result;
            {
                ScopedSpan span("dse.sweep", -1, sweep);
                result = driver.run(corpus, true);
            }
            const double cpuS = processCpuS() - cpu0;
            const double sweepS = secondsSince(t0);
            loop.sweepS.push_back(sweepS);
            loop.pointsPerS.push_back(result.points.size() / sweepS);
            loop.cpuMsPerPoint.push_back(cpuS * 1e3 / result.points.size());
            loop.points += result.points.size();
            const std::string json = result.json();
            if (loop.firstJson.empty())
                loop.firstJson = json;
            else if (json != loop.firstJson)
                ++loop.jsonMismatches;
        } while (Clock::now() < deadline ||
                 static_cast<int>(loop.sweepS.size()) < minSweeps);
        return loop;
    };
    auto checkLoop = [&](const SweepLoop &loop) {
        r.attempted += loop.points;
        r.check(loop.jsonMismatches == 0,
                format("dse_sweep: %llu sweeps differ from the first",
                       static_cast<unsigned long long>(loop.jsonMismatches)));
    };

    SweepLoop loop;
    if (!o.trace) {
        loop = sweepLoop(o.seconds, 3);
        checkLoop(loop);
    } else {
        const SweepLoop plain = sweepLoop(o.seconds / 2, 2);
        tracer().setEnabled(true);
        SchedWindow window;
        window.start();
        loop = sweepLoop(o.seconds / 2, 2);
        window.stop(r);
        checkLoop(plain);
        checkLoop(loop);
        r.set("trace.overhead_frac",
              median(loop.sweepS) / median(plain.sweepS) - 1.0);
    }

    // Output checks, outside the timed loop.
    dse::DseResult parallelRun = driver.run(corpus, true);
    const dse::DseResult serialRun = driver.run(corpus, false);
    if (o.corrupt == "dse_point" && !parallelRun.points.empty())
        parallelRun.points.front().ciceroFps += 1.0;
    r.check(parallelRun.points.size() == gridPoints,
            format("dse_sweep: %zu points, expected %zu",
                   parallelRun.points.size(), gridPoints));
    r.check(parallelRun.json() == serialRun.json(),
            "dse_sweep: parallel sweep JSON differs from the serial sweep");
    r.check(parallelRun.json() == loop.firstJson ||
                o.corrupt == "dse_point",
            "dse_sweep: check sweep differs from the timed sweeps");

    {
        const Entry &e = entries.front();
        TraceFileReader reader(corpus.tracePath(e.meta));
        const TraceWorkloadDescriptor live = measureWorkload(*e.model, e.cam);
        const TraceWorkloadDescriptor replayed = workloadFromTrace(reader);
        const TraceSourceFn liveSrc = liveSource(*e.model, e.cam);
        const TraceSourceFn fileSrc = fileSource(reader);
        std::string liveJson = statsJson(runGpuStack(liveSrc, live)) +
                               statsJson(runNpuStack(liveSrc, live)) +
                               statsJson(runGuStack(liveSrc, live)) +
                               statsJson(runBaselineStack(liveSrc, live));
        const std::string fileJson =
            statsJson(runGpuStack(fileSrc, replayed)) +
            statsJson(runNpuStack(fileSrc, replayed)) +
            statsJson(runGuStack(fileSrc, replayed)) +
            statsJson(runBaselineStack(fileSrc, replayed));
        if (o.corrupt == "dse_replay")
            liveJson += " ";
        r.check(liveJson == fileJson,
                "dse_sweep: replayed stats of " + e.meta.id +
                    " differ from the live render");
    }
    const std::string digest = format(
        "%016llx", static_cast<unsigned long long>(fnv1a(
                       loop.firstJson.data(), loop.firstJson.size())));
    r.note("dse_sweep: result json digest " + digest +
           " (FNV-1a of DseResult::json())");

    if (!o.trace) {
        const double sweepP50 = median(loop.sweepS);
        const Tail tail = tailOf(loop.sweepS);
        r.set("setup_s", median(setupS));
        r.set("peak_rss_mb", peakRssMb());
        r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
        r.set("rate_per_s", median(loop.pointsPerS));
        r.set("cpu_ms_per_op", median(loop.cpuMsPerPoint));
        r.note(format("dse_sweep: dse_points_per_s %.2f 1/s (median of %zu "
                      "sweeps); sweep p50 %.1f ms, %s %.1f ms (n=%zu); "
                      "capture_rays_per_s %.0f 1/s; failed_frac %.4f",
                      median(loop.pointsPerS), loop.sweepS.size(),
                      sweepP50 * 1e3, tail.label.c_str(), tail.value * 1e3,
                      tail.samples, captureRaysPerS,
                      static_cast<double>(r.failed) / r.attempted));
    } else {
        // Per-layer probes on the captured corpus.
        r.set("dse.capture_rays_per_s", captureRaysPerS);
        double walkS = 0.0, writeWalkS = 0.0, readS = 0.0;
        std::uint64_t rays = 0, accesses = 0, bytes = 0;
        std::vector<double> readSPerTrace;
        double stackS[4] = {};
        std::vector<std::unique_ptr<TraceFileReader>> readers;
        std::vector<TraceWorkloadDescriptor> descs;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            // Capture = walk + write: time the walk alone first.
            CountingSink counter;
            Clock::time_point t0 = Clock::now();
            {
                ScopedSpan span("nerf.trace_walk", -1,
                                static_cast<std::int64_t>(i));
                rays += e.model->traceWorkload(e.cam, &counter).rays;
            }
            walkS += secondsSince(t0);
            accesses += counter.accesses;

            readers.push_back(std::make_unique<TraceFileReader>(
                corpus.tracePath(e.meta)));
            const TraceFileReader &reader = *readers.back();
            bytes += reader.fileBytes();
            descs.push_back(workloadFromTrace(reader));

            // The same walk into a file (rewriting identical bytes).
            t0 = Clock::now();
            {
                ScopedSpan span("memory.trace_write", -1,
                                static_cast<std::int64_t>(i));
                TraceFileWriter writer(corpus.tracePath(e.meta),
                                       traceMeta(e));
                e.model->traceWorkload(e.cam, &writer);
                writer.setWorkloadSummary(toSummary(descs.back()));
                writer.close();
            }
            writeWalkS += secondsSince(t0);
            CountingSink empty;
            t0 = Clock::now();
            {
                ScopedSpan span("memory.trace_read", -1,
                                static_cast<std::int64_t>(i));
                fileSource(reader)(&empty);
            }
            readSPerTrace.push_back(secondsSince(t0));
            readS += readSPerTrace.back();

            const TraceSourceFn src = fileSource(reader);
            const TraceWorkloadDescriptor &desc = descs.back();
            auto timeStack = [&](int k, const char *name, const auto &fn) {
                ScopedSpan span(name, -1, static_cast<std::int64_t>(i));
                const Clock::time_point s0 = Clock::now();
                fn();
                stackS[k] += secondsSince(s0);
            };
            timeStack(0, "dse.gpu_stack", [&] { runGpuStack(src, desc); });
            timeStack(1, "dse.npu_stack", [&] { runNpuStack(src, desc); });
            timeStack(2, "dse.gu_stack", [&] { runGuStack(src, desc); });
            timeStack(3, "dse.baseline_stack",
                      [&] { runBaselineStack(src, desc); });
        }
        const double n = static_cast<double>(entries.size());
        r.set("nerf.trace_walk_ns_per_ray", walkS * 1e9 / rays);
        r.set("memory.trace_write_ns_per_access",
              (writeWalkS - walkS) * 1e9 / accesses);
        r.set("memory.trace_bytes_per_access",
              static_cast<double>(bytes) / accesses);
        r.set("memory.trace_read_ns_per_access", readS * 1e9 / accesses);
        r.set("dse.gpu_stack_ms", stackS[0] * 1e3 / n);
        r.set("dse.npu_stack_ms", stackS[1] * 1e3 / n);
        r.set("dse.gu_stack_ms", stackS[2] * 1e3 / n);
        r.set("dse.baseline_stack_ms", stackS[3] * 1e3 / n);

        // Serial evaluatePoint over the grid: per-point cost, the shares
        // of it spent in the four run*Stack calls and in decoding the
        // trace (one replay per stack), and the parallel sweep's
        // efficiency. A stack share near 1 says a point is simulator
        // work, not fixed per-point cost.
        const std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
        double pointS = 0.0, decodeS = 0.0;
        std::int64_t point = 0;
        for (const dse::DseConfig &cfg : grid) {
            for (std::size_t i = 0; i < entries.size(); ++i) {
                ScopedSpan span("dse.point", -1, point++);
                const Clock::time_point t0 = Clock::now();
                dse::evaluatePoint(fileSource(*readers[i]), descs[i],
                                   entries[i].meta.id, cfg);
                pointS += secondsSince(t0);
                decodeS += 4.0 * readSPerTrace[i];
            }
        }
        r.set("dse.point_ms", pointS * 1e3 / static_cast<double>(point));
        r.set("dse.decode_share", decodeS / pointS);
        r.set("dse.stack_share",
              (stackS[0] + stackS[1] + stackS[2] + stackS[3]) / n /
                  (pointS / static_cast<double>(point)));
        r.set("dse.parallel_eff",
              pointS / (median(loop.sweepS) * parallelThreadCount()));
    }

    for (const dse::CorpusEntry &e : corpus.entries())
        std::remove(corpus.tracePath(e).c_str());
    std::remove((dir + "/corpus.json").c_str());
    ::rmdir(dir.c_str());
}

} // namespace perfbench
