/**
 * @file
 * The paper's evaluation claims as checked data. Every figure prints
 * its reproduction table(s), then one JSON line per claim the paper
 * makes about that figure:
 *
 *   {"figure", "claim", "paper", "ours", "holds", "reproduced"}
 *
 * `holds` is whether our models satisfy the property the paper states
 * (its own inequality or ordering; for a bare point value, equality at
 * the paper's printed precision). `reproduced` is the verdict recorded
 * in kFigures at the bottom of this file. The program exits 1 when any
 * `holds` differs from its record, so a model change that breaks a
 * reproduced claim fails, and so does one that closes a gap without
 * updating the record.
 *
 * Work that several figures share is done once: Full-preset models are
 * memoized per (kind, layout) for one scene at a time, and probes per
 * (kind, window, reference and target pose).
 */

#include <algorithm>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accel_replay.hh"
#include "accel/baseline_accels.hh"
#include "accel/gpu_model.hh"
#include "bench_util.hh"
#include "memory/replay.hh"

using namespace cicero;
using namespace cicero::bench;

namespace {

/**
 * Full-preset models and their probes, built on first use and shared by
 * every figure. Holds one scene at a time: switching scenes drops the
 * previous scene's models and probes.
 */
class Lab
{
  public:
    /** Make @p name the current scene. */
    const Scene &
    scene(const std::string &name)
    {
        if (name != _scene.name) {
            _models.clear();
            _probes.clear();
            _scene = makeScene(name);
        }
        return _scene;
    }

    /** The current scene's Full model of @p kind, built once. */
    const NerfModel &
    model(ModelKind kind, GridLayout layout = GridLayout::MVoxelBlocked)
    {
        auto &slot = _models[{kind, layout}];
        if (!slot)
            slot = build(kind, _scene, layout);
        return *slot;
    }

    /**
     * probeWorkload of the current scene's MVoxel-blocked model over
     * @p traj. A probe reads only the reference pose traj[0] and the
     * mid-window target pose, so those poses key it.
     */
    const WorkloadInputs &
    probe(ModelKind kind, const std::vector<Pose> &traj, int window = 16)
    {
        std::size_t mid = std::min<std::size_t>(
            traj.size() - 1, std::max(1, window / 2));
        auto same = [](const Pose &a, const Pose &b) {
            return std::memcmp(&a, &b, sizeof(Pose)) == 0;
        };
        for (const Probe &p : _probes)
            if (p.kind == kind && p.window == window &&
                same(p.ref, traj[0]) && same(p.target, traj[mid]))
                return p.inputs;
        ProbeOptions opts; // 64x64 traces scaled to 800x800
        opts.window = window;
        _probes.push_back({kind, window, traj[0], traj[mid],
                           probeWorkload(model(kind), traj, opts)});
        return _probes.back().inputs;
    }

    /** A Full model outside the memo; the caller owns it. */
    std::unique_ptr<NerfModel>
    build(ModelKind kind, const Scene &scene, GridLayout layout)
    {
        ++_builds;
        return fullModel(kind, scene, layout);
    }

    int builds() const { return _builds; }

  private:
    struct Probe
    {
        ModelKind kind;
        int window;
        Pose ref, target;
        WorkloadInputs inputs;
    };

    Scene _scene;
    std::map<std::pair<ModelKind, GridLayout>, std::unique_ptr<NerfModel>>
        _models;
    std::list<Probe> _probes; // stable addresses for returned references
    int _builds = 0;
};

/**
 * Ground-truth frames of a trajectory, rendered once and scored against
 * by every variant. PSNR is capped at 60 dB per frame so identical
 * frames do not dominate the mean.
 */
struct GroundTruth
{
    Camera cam;
    std::vector<Pose> traj;
    std::vector<Image> frames;

    GroundTruth(const Scene &scene, const Camera &camera,
                std::vector<Pose> poses, int steps = 256)
        : cam(camera), traj(std::move(poses))
    {
        for (const Pose &pose : traj) {
            Camera c = cam;
            c.pose = pose;
            frames.push_back(renderGroundTruth(scene, c, steps).image);
        }
    }

    double
    meanPsnr(const SparwRun &run) const
    {
        Summary s;
        for (std::size_t i = 0; i < frames.size(); ++i)
            s.add(std::min(60.0, psnr(run.frames[i].image, frames[i])));
        return s.mean();
    }

    /** Mean PSNR of full-frame rendering: the baseline. */
    double
    baselinePsnr(const NerfModel &model) const
    {
        Summary s;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            Camera c = cam;
            c.pose = traj[i];
            s.add(std::min(60.0, psnr(model.render(c).image, frames[i])));
        }
        return s.mean();
    }
};

/** Mean PSNR of the five Fig. 16/25 variants. */
struct Quality
{
    double baseline, cicero6, cicero16, ds2, temp16;
};

/** Field-wise mean of @p qs, summed in order. */
Quality
mean(const std::vector<Quality> &qs)
{
    Summary s[5];
    for (const Quality &q : qs) {
        s[0].add(q.baseline);
        s[1].add(q.cicero6);
        s[2].add(q.cicero16);
        s[3].add(q.ds2);
        s[4].add(q.temp16);
    }
    return {s[0].mean(), s[1].mean(), s[2].mean(), s[3].mean(),
            s[4].mean()};
}

Quality
quality(const NerfModel &model, const GroundTruth &gt)
{
    SparwConfig c6;
    c6.window = 6;
    SparwConfig c16;
    c16.window = 16;
    SparwPipeline p16(model, gt.cam, c16);
    return {gt.baselinePsnr(model),
            gt.meanPsnr(SparwPipeline(model, gt.cam, c6).run(gt.traj)),
            gt.meanPsnr(p16.run(gt.traj)),
            gt.meanPsnr(p16.runDownsampled(gt.traj, 2)),
            gt.meanPsnr(p16.runTemporal(gt.traj))};
}

/** A frame priced entirely on the mobile GPU (no NPU, no GU). */
struct GpuPrice
{
    double fullMs;   //!< full-frame NeRF, pixel-centric gathering
    double fullFsMs; //!< full-frame NeRF, software fully-streaming
    double sparseMs; //!< sparse NeRF per target frame
    double warpMs;   //!< warping per target frame
};

GpuPrice
priceOnGpu(const WorkloadInputs &in)
{
    GpuModel gpu;
    GpuStageTimes t = gpu.timeNerfFrame(in.fullFrame, in.gatherProfile);
    return {t.totalMs(),
            t.indexMs + gpu.streamingGatherMs(in.fullStreamPlan) +
                t.mlpMs + t.compositeMs,
            gpu.timeNerfFrame(in.sparsePerFrame, in.gatherProfile)
                    .totalMs() *
                gpu.config().sparseDispatchOverhead,
            gpu.warpTimeMs(in.warpPointsPerFrame * 2)};
}

/** Our side of one claim: the headline and whether the property holds. */
struct Verdict
{
    std::string ours;
    bool holds;
};

/** Values joined with " / ". */
std::string
join(const std::vector<double> &values, int precision)
{
    std::string s;
    for (double v : values)
        s += (s.empty() ? "" : " / ") + formatDouble(v, precision);
    return s;
}

/** A bare point value: holds when ours prints as the paper's value. */
Verdict
point(double ours, double paper, int precision, const std::string &unit)
{
    return {formatDouble(ours, precision) + unit,
            formatDouble(ours, precision) ==
                formatDouble(paper, precision)};
}

/** An ordering that must hold for every model. */
Verdict
everyModel(bool ok)
{
    return {ok ? "every model" : "not every model", ok};
}

/** Whether @p v strictly falls. */
bool
falling(const std::vector<double> &v)
{
    return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
           v.end();
}

/** Whether @p v strictly rises. */
bool
rising(const std::vector<double> &v)
{
    return std::adjacent_find(v.begin(), v.end(),
                              std::greater_equal<>()) == v.end();
}

// ------------------------------------------------------------- figures

std::vector<Verdict>
fig02(Lab &)
{
    banner("Fig. 2", "frame rate vs model size (800x800, mobile GPU)");

    // Published Fig. 2 operating points (approximate, for reference).
    const std::map<std::string, double> paperFps = {
        {"Instant-NGP", 0.17}, // ~6 s per 800x800 frame (Sec. I)
        {"DirectVoxGO", 0.8},  // Sec. I
        {"TensoRF", 0.6},
        {"EfficientNeRF", 1.2},
        {"MobileNeRF", 15.0},
        {"Baking(SNeRG)", 1.7},
    };
    GpuModel gpu;
    const double rays = 800.0 * 800.0;
    // Characterization-average gather behaviour (Figs. 4-5).
    GatherProfile profile{0.38, 0.81};

    Table table({"model", "size (MB)", "FPS (ours)", "FPS (paper)",
                 "60FPS?"});
    double maxFps = 0.0;
    for (const ModelSpec &spec : nominalModelSpecs()) {
        // MobileNeRF and Baking(SNeRG) are rasterization-style
        // pipelines outside this repo's scope: published point only.
        double fps = paperFps.at(spec.name);
        if (spec.implemented) {
            StageWork w;
            w.rays = static_cast<std::uint64_t>(rays);
            w.samples = static_cast<std::uint64_t>(
                rays * spec.samplesPerRay);
            w.indexOps = static_cast<std::uint64_t>(
                w.samples * spec.indexOpsPerSample);
            w.vertexFetches = static_cast<std::uint64_t>(
                w.samples * spec.fetchesPerSample);
            w.gatherBytes = static_cast<std::uint64_t>(
                w.vertexFetches * spec.bytesPerFetch);
            w.interpOps = static_cast<std::uint64_t>(
                w.samples * spec.interpOpsPerSample);
            // A third of marched samples reach the MLP (occupancy).
            w.mlpMacs = static_cast<std::uint64_t>(
                w.samples * spec.mlpMacsPerSample / 3.0);
            w.compositeOps = w.samples;
            fps = 1000.0 / gpu.timeNerfFrame(w, profile).totalMs();
            maxFps = std::max(maxFps, fps);
        }
        table.row()
            .cell(spec.name + (spec.implemented ? "" : " (published)"))
            .cell(spec.modelMB, 0)
            .cell(fps, 2)
            .cell(paperFps.at(spec.name), 2)
            .cell(fps >= 60.0 ? "yes" : "no");
    }
    table.print();
    return {{formatDouble(maxFps, 2) + " FPS at most", maxFps < 60.0}};
}

std::vector<Verdict>
fig03(Lab &lab)
{
    banner("Fig. 3", "execution breakdown across NeRF algorithms");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 2);
    GpuModel gpu;

    Table table({"model", "I %", "G %", "F %", "total ms", "FPS"});
    Summary gatherShare;
    for (ModelKind kind : allModelKinds()) {
        WorkloadInputs in =
            probeFullFrame(lab.model(kind, GridLayout::Linear), traj[0]);
        GpuStageTimes t =
            gpu.timeNerfFrame(in.fullFrame, in.gatherProfile);
        double total = t.totalMs();
        double g = 100.0 * t.gatherMs / total;
        gatherShare.add(g);
        table.row()
            .cell(modelName(kind))
            .cell(100.0 * t.indexMs / total, 1)
            .cell(g, 1)
            .cell(100.0 * (t.mlpMs + t.compositeMs) / total, 1)
            .cell(total, 0)
            .cell(1000.0 / total, 2);
    }
    table.print();
    return {{formatDouble(gatherShare.mean(), 1) + "%",
             gatherShare.mean() > 56.0}};
}

std::vector<Verdict>
fig04(Lab &lab)
{
    banner("Fig. 4", "non-streaming DRAM access in feature gathering");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 2);

    Table table({"model", "non-streaming % (ours)", "paper"});
    Summary mean;
    for (ModelKind kind : allModelKinds()) {
        const NerfModel &model = lab.model(kind, GridLayout::Linear);
        double pct = 100.0 * probeFullFrame(model, traj[0])
                                 .gatherProfile.randomFraction;
        mean.add(pct);
        table.row().cell(modelName(kind)).cell(pct, 1).cell(">81% avg");
    }
    table.print();
    return {{formatDouble(mean.mean(), 1) + "%", mean.mean() > 81.0}};
}

/**
 * The gather stream of @p model at @p cam, captured once into an
 * in-memory .ctrace so several memory configurations can replay it.
 * Header only: no memory stack reads a workload summary.
 */
std::vector<std::uint8_t>
captureTrace(ModelKind kind, const NerfModel &model, const Camera &cam)
{
    TraceFileMeta meta = captureMeta(model, cam);
    meta.model = modelName(kind);
    std::vector<std::uint8_t> ctrace;
    TraceFileWriter writer(ctrace, meta);
    model.traceWorkload(cam, &writer);
    writer.close();
    return ctrace;
}

std::vector<Verdict>
fig05(Lab &lab)
{
    banner("Fig. 5", "2 MB buffer miss rate in feature gathering");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 2);

    Table table({"model", "oracle miss %", "LRU miss %", "model MB",
                 "trace %raw", "paper avg"});
    Summary mean;
    for (ModelKind kind : allModelKinds()) {
        const NerfModel &model = lab.model(kind, GridLayout::Linear);
        Camera cam = Camera::fromFov(64, 64, scene.fovYDeg, traj[0]);
        std::vector<std::uint8_t> ctrace = captureTrace(kind, model, cam);
        TraceFileReader reader(ctrace);
        CacheStackResult res = runCacheStack(fileSource(reader));

        double oracle = 100.0 * res.belady.missRate();
        mean.add(oracle);
        table.row()
            .cell(modelName(kind))
            .cell(oracle, 1)
            .cell(100.0 * res.lru.missRate(), 1)
            .cell(model.modelBytes() / 1048576.0, 1)
            .cell(100.0 * reader.compressionRatio(), 1)
            .cell("38% (up to 92%)");
    }
    table.print();
    return {point(mean.mean(), 38.0, 0, "%")};
}

std::vector<Verdict>
fig06(Lab &lab)
{
    banner("Fig. 6",
           "bank conflict rate (16 banks, 16 concurrent rays)");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 2);

    Table table({"model", "feat-major 16r %", "feat-major 64r %",
                 "64 banks %", "channel-major %"});
    Summary mean;
    bool sensitivity = true, channelFree = true;
    for (ModelKind kind : allModelKinds()) {
        Camera cam = Camera::fromFov(48, 48, scene.fovYDeg, traj[0]);
        std::vector<std::uint8_t> ctrace =
            captureTrace(kind, lab.model(kind, GridLayout::Linear), cam);
        TraceFileReader trace(ctrace);
        auto conflictPct = [&](std::uint32_t banks, std::uint32_t rays,
                               SramLayout layout) {
            SramBankConfig cfg;
            cfg.numBanks = banks;
            cfg.concurrentRays = rays;
            cfg.featureBytes = trace.meta().featureBytes;
            cfg.layout = layout;
            return 100.0 * runBankStack(fileSource(trace), cfg)
                               .stats.conflictRate();
        };

        double base = conflictPct(16, 16, SramLayout::FeatureMajor);
        double rays64 = conflictPct(16, 64, SramLayout::FeatureMajor);
        double banks64 = conflictPct(64, 16, SramLayout::FeatureMajor);
        double cm = conflictPct(16, 16, SramLayout::ChannelMajor);
        mean.add(base);
        sensitivity &= rays64 > base && banks64 < base;
        channelFree &= cm == 0.0;
        table.row()
            .cell(modelName(kind))
            .cell(base, 1)
            .cell(rays64, 1)
            .cell(banks64, 1)
            .cell(cm, 1);
    }
    table.print();
    return {point(mean.mean(), 52.0, 0, "%"),
            everyModel(sensitivity), everyModel(channelFree)};
}

std::vector<Verdict>
fig07(Lab &)
{
    banner("Fig. 7", "inter-frame overlap across scenes (30 FPS)");

    // Re-render fraction of warping frame 1 from frame 0 of the orbit;
    // "overlap" in the paper's sense is the rest (warped + void).
    auto warpStats = [](const std::string &name) {
        Scene scene = makeScene(name);
        auto model = buildModel(ModelKind::DirectVoxGO, scene);
        auto traj = sceneOrbit(scene, 2);
        Camera ref = qualityCamera(scene, traj[0], 96);
        Camera tgt = ref;
        tgt.pose = traj[1];
        RenderResult r = model->render(ref);
        return warpFrame(r.image, r.depth, ref, tgt, &model->occupancy(),
                         scene.background)
            .stats;
    };

    Table table({"scene", "reusable %", "re-render %", "void %"});
    Summary overlap;
    for (const auto &name : syntheticSceneNames()) {
        WarpStats w = warpStats(name);
        double reuse = 100.0 * (1.0 - w.rerenderFraction());
        overlap.add(reuse);
        table.row()
            .cell(name)
            .cell(reuse, 1)
            .cell(100.0 * w.rerenderFraction(), 2)
            .cell(100.0 * w.voidHoles / w.totalPixels, 1);
    }
    table.print();
    std::printf("\n");

    Table rw({"scene", "reusable %", "re-render %", "paper re-render"});
    std::vector<double> rwRerender;
    for (const auto &name : realWorldSceneNames()) {
        WarpStats w = warpStats(name);
        rwRerender.push_back(100.0 * w.rerenderFraction());
        rw.row()
            .cell(name)
            .cell(100.0 * (1.0 - w.rerenderFraction()), 1)
            .cell(100.0 * w.rerenderFraction(), 2)
            .cell(name == "bonsai" ? "4.3%" : "4.9%");
    }
    rw.print();
    double synRerender = 100.0 - overlap.mean();
    return {{formatDouble(overlap.mean(), 1) + "%",
             overlap.mean() > 98.0},
            {join(rwRerender, 2) + "% vs " +
                 formatDouble(synRerender, 2) + "%",
             *std::min_element(rwRerender.begin(), rwRerender.end()) >
                 synRerender}};
}

std::vector<Verdict>
fig16(Lab &lab)
{
    banner("Fig. 16", "rendering quality: PSNR vs ground truth");
    const std::vector<ModelKind> &kinds = mainModelKinds();
    const Scene &lego = lab.scene("lego");

    // Per model, each variant's mean PSNR over @p scenes. A scene's
    // ground truth is rendered once for all three models; the lab's
    // scene uses the lab's models, the others are built and dropped.
    auto evaluate = [&](const std::vector<std::string> &scenes) {
        std::vector<std::vector<Quality>> perModel(kinds.size());
        for (const auto &name : scenes) {
            Scene scene = makeScene(name);
            auto traj = sceneOrbit(scene, 24);
            GroundTruth gt(scene, qualityCamera(scene, traj[0], 64), traj);
            for (std::size_t k = 0; k < kinds.size(); ++k) {
                std::unique_ptr<NerfModel> own;
                if (name != lego.name)
                    own = lab.build(kinds[k], scene, GridLayout::Linear);
                perModel[k].push_back(quality(
                    own ? *own : lab.model(kinds[k], GridLayout::Linear),
                    gt));
            }
        }
        std::vector<Quality> rows;
        Table table({"model", "Baseline", "Cicero-6", "Cicero-16", "DS-2",
                     "Temp-16", "drop@6 (dB)"});
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const Quality &r = rows.emplace_back(mean(perModel[k]));
            table.row()
                .cell(modelName(kinds[k]))
                .cell(r.baseline, 2)
                .cell(r.cicero6, 2)
                .cell(r.cicero16, 2)
                .cell(r.ds2, 2)
                .cell(r.temp16, 2)
                .cell(r.baseline - r.cicero6, 2);
        }
        table.print();
        return rows;
    };

    std::printf("\n(a) Synthetic scenes (%zu scenes, 24 frames @30FPS)\n",
                syntheticSceneNames().size());
    std::vector<Quality> syn = evaluate(syntheticSceneNames());
    std::printf("\n(b) Real-world stand-ins (30 FPS captures)\n");
    Quality rw = mean(evaluate(realWorldSceneNames()));

    std::vector<double> drop6;
    bool c16Above = true, tempWorst = true;
    for (const Quality &q : syn) {
        drop6.push_back(q.baseline - q.cicero6);
        c16Above &= q.cicero16 > q.ds2 && q.cicero16 > q.temp16;
        tempWorst &= q.temp16 < std::min({q.baseline, q.cicero6,
                                          q.cicero16, q.ds2});
    }
    // (b) in the paper's order of its averages.
    std::vector<double> rwOrder = {rw.baseline, rw.cicero6, rw.ds2,
                                   rw.cicero16, rw.temp16};
    return {{join(drop6, 2) + " dB",
             *std::max_element(drop6.begin(), drop6.end()) <= 1.0},
            everyModel(c16Above), everyModel(tempWorst),
            {join(rwOrder, 2) + " dB", falling(rwOrder)}};
}

std::vector<Verdict>
fig17(Lab &lab)
{
    banner("Fig. 17", "software-only Cicero on the GPU vs DS-2");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 18);

    Table table({"model", "Cicero-6 x", "Cicero-16 x", "DS-2 x",
                 "E-save c16 x"});
    Summary s16;
    bool ordered = true;
    for (ModelKind kind : mainModelKinds()) {
        GpuPrice p = priceOnGpu(lab.probe(kind, traj));
        auto ciceroMs = [&](int window) {
            return p.fullFsMs / window + p.sparseMs + p.warpMs;
        };
        double c6 = p.fullMs / ciceroMs(6);
        double c16 = p.fullMs / ciceroMs(16);
        // DS-2: every frame at quarter resolution.
        double ds2 = p.fullMs / (p.fullMs / 4.0);
        // GPU energy tracks busy time.
        double e16 = c16;
        s16.add(c16);
        ordered &= c16 > c6 && c16 > ds2;
        table.row()
            .cell(modelName(kind))
            .cell(c6, 1)
            .cell(c16, 1)
            .cell(ds2, 1)
            .cell(e16, 1);
    }
    table.print();
    return {everyModel(ordered),
            point(s16.mean(), 8.0, 1, "x")};
}

std::vector<Verdict>
fig18(Lab &lab)
{
    banner("Fig. 18", "GPU execution distribution of software Cicero");

    const Scene &scene = lab.scene("lego");
    GpuPrice p = priceOnGpu(
        lab.probe(ModelKind::DirectVoxGO, sceneOrbit(scene, 18)));

    Table table({"config", "full-frame %", "sparse %", "others %",
                 "ms/frame"});
    std::vector<double> fullShare, sparseShare, otherShare;
    for (int window : {6, 16}) {
        double full = p.fullMs / window;
        double total = full + p.sparseMs + p.warpMs;
        fullShare.push_back(100.0 * full / total);
        sparseShare.push_back(100.0 * p.sparseMs / total);
        otherShare.push_back(100.0 * p.warpMs / total);
        table.row()
            .cell("Cicero-" + std::to_string(window))
            .cell(fullShare.back(), 1)
            .cell(sparseShare.back(), 1)
            .cell(otherShare.back(), 1)
            .cell(total, 1);
    }
    table.row()
        .cell("DS-2")
        .cell(100.0, 1)
        .cell(0.0, 1)
        .cell(0.0, 1)
        .cell(p.fullMs / 4.0, 1);
    table.print();
    // Warping ("others") is the smallest share at both windows.
    bool warpSmallest = true;
    for (std::size_t i = 0; i < 2; ++i)
        warpSmallest &= otherShare[i] < std::min(fullShare[i],
                                                 sparseShare[i]);
    return {{join(fullShare, 1) + "% full, " +
                 join(sparseShare, 1) + "% sparse",
             fullShare[1] < fullShare[0] && sparseShare[1] > sparseShare[0]},
            {join(otherShare, 1) + "%", warpSmallest}};
}

const SystemVariant kVariants[] = {
    SystemVariant::Baseline, SystemVariant::Sparw, SystemVariant::SparwFs,
    SystemVariant::Cicero};

/** Figs. 19a/19b: CICERO's speedup, energy saving and orderings. */
struct VariantResult
{
    std::vector<double> speed; //!< mean speedup of SPARW, +FS, CICERO
    double esave;              //!< mean CICERO energy saving
    bool ordered;              //!< CICERO > SPARW+FS > SPARW > Baseline
    double highestBaseMj, lowestOtherMj; //!< device energy
};

/**
 * Figs. 19a and 19b: the four system variants of each main model
 * against the baseline SoC, rendering locally or remotely. Locally the
 * ordering covers energy as well as speed.
 */
VariantResult
variants(Lab &lab, bool remote)
{
    PerformanceModel pm;
    auto traj = sceneOrbit(lab.scene("lego"), 18);
    Table table({"model", "variant", "ms/frame", "speedup x",
                 remote ? "device mJ" : "norm energy",
                 remote ? "comm ms" : "E-save x"});
    Summary speed[4], esave;
    bool ordered = true;
    std::vector<double> baseMj, otherMj;
    for (ModelKind kind : mainModelKinds()) {
        const WorkloadInputs &in = lab.probe(kind, traj);
        auto price = [&](SystemVariant v) {
            return remote ? pm.priceRemote(v, in) : pm.priceLocal(v, in);
        };
        FramePrice base = price(SystemVariant::Baseline);
        std::vector<double> ms, nj;
        for (int i = 0; i < 4; ++i) {
            SystemVariant v = kVariants[i];
            FramePrice p = price(v);
            ms.push_back(p.timeMs);
            nj.push_back(p.energyNj);
            (i == 0 ? baseMj : otherMj).push_back(p.energyNj * 1e-6);
            speed[i].add(base.timeMs / p.timeMs);
            if (v == SystemVariant::Cicero)
                esave.add(base.energyNj / p.energyNj);
            table.row()
                .cell(modelName(kind))
                .cell(variantName(v))
                .cell(p.timeMs, 1)
                .cell(base.timeMs / p.timeMs, 1);
            if (remote)
                table.cell(p.energyNj * 1e-6, 1).cell(p.otherMs, 2);
            else
                table.cell(p.energyNj / base.energyNj, 3)
                    .cell(base.energyNj / p.energyNj, 1);
        }
        ordered &= falling(ms) && (remote || falling(nj));
    }
    table.print();
    return {{speed[1].mean(), speed[2].mean(), speed[3].mean()},
            esave.mean(),
            ordered,
            *std::max_element(baseMj.begin(), baseMj.end()),
            *std::min_element(otherMj.begin(), otherMj.end())};
}

std::vector<Verdict>
fig19a(Lab &lab)
{
    banner("Fig. 19a", "local rendering: speedup & energy vs baseline");
    VariantResult r = variants(lab, false);
    Verdict speed = point(r.speed.back(), 28.2, 1, "x");
    Verdict esave = point(r.esave, 37.8, 1, "x");
    return {{join(r.speed, 1) + "x mean", r.ordered},
            {speed.ours + " / " + esave.ours, speed.holds && esave.holds}};
}

std::vector<Verdict>
fig19b(Lab &lab)
{
    banner("Fig. 19b", "remote rendering: speedup & energy vs baseline");
    VariantResult r = variants(lab, true);
    return {{join(r.speed, 1) + "x mean", r.ordered},
            point(r.speed.back(), 8.0, 1, "x"),
            {"baseline " + formatDouble(r.highestBaseMj, 1) +
                 " mJ, lowest other " + formatDouble(r.lowestOtherMj, 1) +
                 " mJ",
             r.highestBaseMj < r.lowestOtherMj}};
}

std::vector<Verdict>
fig20(Lab &lab)
{
    banner("Fig. 20", "feature gathering: GU vs GPU");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 4);
    PerformanceModel pm;

    Table table({"model", "GPU ms", "GU ms", "speedup x", "GPU mJ",
                 "GU mJ", "E-save x"});
    Summary speed;
    std::vector<double> speeds;
    for (ModelKind kind : allModelKinds()) {
        auto g = pm.priceGatherOnly(lab.probe(kind, traj));
        speed.add(g.gpuMs / g.guMs);
        speeds.push_back(g.gpuMs / g.guMs);
        table.row()
            .cell(modelName(kind))
            .cell(g.gpuMs, 1)
            .cell(g.guMs, 2)
            .cell(g.gpuMs / g.guMs, 1)
            .cell(g.gpuEnergyNj * 1e-6, 1)
            .cell(g.guEnergyNj * 1e-6, 2)
            .cell(g.gpuEnergyNj / g.guEnergyNj, 1);
    }
    table.print();
    // allModelKinds() lists Instant-NGP first.
    return {point(speed.mean(), 72.2, 1, "x"),
            {join(speeds, 1) + "x",
             speeds[0] == *std::max_element(speeds.begin(), speeds.end())}};
}

std::vector<Verdict>
fig21(Lab &lab)
{
    banner("Fig. 21", "DRAM energy-saving decomposition");

    const Scene &scene = lab.scene("lego");
    auto traj = sceneOrbit(scene, 4);
    GpuModel gpu;
    EnergyConstants energy;

    Table table({"model", "baseline GB", "FS MB", "traffic %",
                 "streaming %", "total save x"});
    Summary trafficShare;
    bool trafficDominates = true;
    for (ModelKind kind : allModelKinds()) {
        const WorkloadInputs &in = lab.probe(kind, traj);

        // Baseline DRAM traffic: miss-driven transactions at the
        // measured random/streaming mix.
        double baseBytes = static_cast<double>(
            gpu.gatherDramBytes(in.fullFrame, in.gatherProfile));
        double baseNj = gpu.gatherDramEnergyNj(in.fullFrame,
                                               in.gatherProfile, energy);
        double pricePerByte = baseNj * 1e3 / baseBytes;

        // FS traffic: streamed MVoxels once + hashed-level residue.
        const StreamPlan &plan = in.fullStreamPlan;
        double fsBytes = static_cast<double>(plan.streamedBytes +
                                             plan.randomBytes);
        double fsNj = energy.dramNj(plan.streamedBytes, plan.randomBytes);

        double saving = baseNj - fsNj;
        // Two effects compose: fewer bytes move (traffic reduction) and
        // the bytes that move become streaming. Attribute by Shapley
        // value (average over both application orders), which is
        // order-independent.
        double fsPricePerByte = fsNj * 1e3 / fsBytes;
        double trafficFirst =
            (baseBytes - fsBytes) * pricePerByte * 1e-3;
        double trafficSecond =
            (baseBytes - fsBytes) * fsPricePerByte * 1e-3;
        double trafficNj = 0.5 * (trafficFirst + trafficSecond);
        double streamNj = saving - trafficNj;
        double tShare = 100.0 * trafficNj / saving;
        trafficShare.add(tShare);
        trafficDominates &= trafficNj > streamNj;

        table.row()
            .cell(modelName(kind))
            .cell(baseBytes / 1e9, 2)
            .cell(fsBytes / 1e6, 1)
            .cell(tShare, 1)
            .cell(100.0 * streamNj / saving, 1)
            .cell(baseNj / fsNj, 1);
    }
    table.print();
    return {everyModel(trafficDominates),
            point(trafficShare.mean(), 84.5, 1, "%")};
}

std::vector<Verdict>
fig22(Lab &lab)
{
    banner("Fig. 22", "warping-window sensitivity (Instant-NGP)");

    const Scene &scene = lab.scene("lego");
    const NerfModel &model = lab.model(ModelKind::InstantNgp);
    auto traj = sceneOrbit(scene, 33);
    GroundTruth gt(scene, qualityCamera(scene, traj[0], 64), traj);
    PerformanceModel pm;

    // DS-2 quality line (the red dashed line in the figure).
    double ds2Psnr = gt.meanPsnr(
        SparwPipeline(model, gt.cam, SparwConfig{}).runDownsampled(traj, 2));

    const WorkloadInputs &in16 = lab.probe(ModelKind::InstantNgp, traj);
    FramePrice baseLocal = pm.priceLocal(SystemVariant::Baseline, in16);
    FramePrice baseRemote = pm.priceRemote(SystemVariant::Baseline, in16);

    Table table({"window", "PSNR dB", "local x", "remote x",
                 "rerender %"});
    const std::vector<int> windows = {1, 6, 11, 16, 21, 26, 31};
    std::vector<double> quality, local, remote;
    for (int window : windows) {
        SparwConfig cfg;
        cfg.window = window;
        SparwRun run = SparwPipeline(model, gt.cam, cfg).run(traj);

        const WorkloadInputs &in =
            lab.probe(ModelKind::InstantNgp, traj, window);
        quality.push_back(gt.meanPsnr(run));
        local.push_back(baseLocal.timeMs /
                        pm.priceLocal(SystemVariant::Cicero, in).timeMs);
        remote.push_back(baseRemote.timeMs /
                         pm.priceRemote(SystemVariant::Cicero, in).timeMs);
        table.row()
            .cell(window)
            .cell(quality.back(), 2)
            .cell(local.back(), 1)
            .cell(remote.back(), 1)
            .cell(100.0 * run.meanRerender(), 2);
    }
    table.print();

    // Windows 1..21 are the first five entries; 26 and 31 the last two.
    std::vector<double> upTo21(quality.begin(), quality.begin() + 5);
    bool qualityHolds =
        falling(upTo21) &&
        *std::min_element(upTo21.begin(), upTo21.end()) > ds2Psnr;
    double peakLocal = *std::max_element(local.begin(), local.end());
    std::vector<double> remoteTo16(remote.begin(), remote.begin() + 4);
    return {{join(upTo21, 2) + " dB vs DS-2 " +
                 formatDouble(ds2Psnr, 2) + " dB",
             qualityHolds},
            {"peak " + formatDouble(peakLocal, 1) + "x, " +
                 formatDouble(local.back(), 1) + "x at 31",
             local.back() < peakLocal},
            {join(remoteTo16, 1) + "x", rising(remoteTo16)}};
}

std::vector<Verdict>
fig23(Lab &lab)
{
    banner("Fig. 23", "GU energy vs VFT buffer size");

    const Scene &scene = lab.scene("lego");
    const NerfModel &model = lab.model(ModelKind::DirectVoxGO);
    auto traj = sceneOrbit(scene, 2);
    Camera cam = Camera::fromFov(64, 64, scene.fovYDeg, traj[0]);
    auto positions = model.collectSamplePositions(cam);
    auto *grid =
        dynamic_cast<const DenseGridEncoding *>(&model.encoding());
    const std::uint32_t vertexBytes = grid->vertexBytes();

    Table table({"VFT KB", "MVoxel edge", "GU uJ", "normalized"});
    std::vector<double> energy;
    for (int kb : {8, 16, 32, 64, 128, 256}) {
        std::uint64_t vftBytes = static_cast<std::uint64_t>(kb) << 10;
        int edge = GatheringUnitModel::mvoxelEdgeForBuffer(vftBytes,
                                                           vertexBytes);
        // Rebuild the footprint with matching MVoxel geometry (layout
        // only; no re-bake needed for address accounting).
        DenseGridEncoding layout(grid->voxelsPerAxis(),
                                 GridLayout::MVoxelBlocked, edge);
        StreamPlan plan =
            scalePlan(layout.streamingFootprint(positions),
                      scaleFactor(ProbeOptions{}));

        GatheringUnitConfig cfg;
        cfg.vftBytes = vftBytes;
        GuCost cost = GatheringUnitModel(cfg).price(plan, vertexBytes);
        energy.push_back(cost.energyNj);
        table.row()
            .cell(kb)
            .cell(edge)
            .cell(cost.energyNj * 1e-3, 1)
            .cell(cost.energyNj / energy.front(), 2);
    }
    table.print();
    // Normalized energy at 64, 128 and 256 KB.
    std::vector<double> from64;
    for (std::size_t i = 3; i < energy.size(); ++i)
        from64.push_back(energy[i] / energy.front());
    return {{join(from64, 2) + " at 64 / 128 / 256 KB", rising(from64)}};
}

std::vector<Verdict>
fig24(Lab &lab)
{
    banner("Fig. 24", "Cicero vs NeuRex vs NGPC on Instant-NGP");

    const Scene &scene = lab.scene("lego");
    const WorkloadInputs &in =
        lab.probe(ModelKind::InstantNgp, sceneOrbit(scene, 18));

    PerformanceModel pm;
    double gpuMs =
        GpuModel().timeNerfFrame(in.fullFrame, in.gatherProfile).totalMs();
    double neurexMs =
        NeurexModel().price(in.fullFrame, in.bankConflictRate).timeMs;
    double ngpcMs = NgpcModel().price(in.fullFrame).timeMs;
    double ciceroNoSparwMs =
        pm.priceFullFrame(SystemVariant::Cicero, in).timeMs;
    double ciceroMs = pm.priceLocal(SystemVariant::Cicero, in).timeMs;

    Table table({"design", "ms/frame", "vs GPU x", "on-chip buffer"});
    table.row().cell("GPU baseline").cell(gpuMs, 1).cell(1.0, 1).cell(
        "2 MB cache");
    table.row()
        .cell("NeuRex")
        .cell(neurexMs, 1)
        .cell(gpuMs / neurexMs, 1)
        .cell("64 KB");
    table.row()
        .cell("NGPC")
        .cell(ngpcMs, 1)
        .cell(gpuMs / ngpcMs, 1)
        .cell("16 MB");
    table.row()
        .cell("Cicero w/o SPARW")
        .cell(ciceroNoSparwMs, 1)
        .cell(gpuMs / ciceroNoSparwMs, 1)
        .cell("32 KB VFT");
    table.row()
        .cell("Cicero-16")
        .cell(ciceroMs, 1)
        .cell(gpuMs / ciceroMs, 1)
        .cell("32 KB VFT");
    table.print();

    Verdict noSparw = point(neurexMs / ciceroNoSparwMs, 2.0, 1, "x");
    Verdict vsNeurex = point(neurexMs / ciceroMs, 16.4, 1, "x");
    Verdict vsNgpc = point(ngpcMs / ciceroMs, 8.2, 1, "x");
    return {{noSparw.ours + " faster than NeuRex; Cicero-16 " +
                 vsNeurex.ours + " / " + vsNgpc.ours,
             neurexMs > ciceroNoSparwMs && ciceroNoSparwMs > ciceroMs &&
                 ngpcMs > ciceroMs},
            {noSparw.ours, noSparw.holds},
            {vsNeurex.ours + " / " + vsNgpc.ours,
             vsNeurex.holds && vsNgpc.holds}};
}

std::vector<Verdict>
fig25(Lab &lab)
{
    banner("Fig. 25", "Ignatius: 1 FPS vs 30 FPS temporal resolution");

    const Scene &scene = lab.scene("ignatius");
    const NerfModel &model = lab.model(ModelKind::DirectVoxGO);
    Camera cam = qualityCamera(scene, Pose{}, 64);

    // The raw capture: 30 FPS. The dataset release: every 30th frame.
    auto dense = sceneOrbit(scene, 30 * 12, 20.0f);
    auto sparse = decimate(dense, 30);
    auto dense12 = decimate(dense, 2); // 12-frame 15FPS slice for speed
    dense12.resize(12);
    sparse.resize(12);

    auto evaluate = [&](const std::vector<Pose> &traj, const char *label) {
        Quality q = quality(model, GroundTruth(scene, cam, traj));
        Table table({"variant", "PSNR dB"});
        table.row().cell("Baseline").cell(q.baseline, 2);
        table.row().cell("Cicero-6").cell(q.cicero6, 2);
        table.row().cell("Cicero-16").cell(q.cicero16, 2);
        table.row().cell("DS-2").cell(q.ds2, 2);
        table.row().cell("Temp-16").cell(q.temp16, 2);
        std::printf("\n%s\n", label);
        table.print();
        return q;
    };
    Quality a = evaluate(sparse,
                         "(a) sparse 1 FPS sequence "
                         "(paper: 37.8 / 37.2 / 37.0 / 37.4 / 36.6 dB — "
                         "Cicero below DS-2)");
    Quality b = evaluate(dense12,
                         "(b) dense video-rate sequence "
                         "(paper: 38.2 / 38.1 / 38.1 / 38.0 / 37.6 dB — "
                         "Cicero matches DS-2 at ~4x its speed)");
    return {{join({a.cicero6, a.cicero16}, 2) + " dB vs DS-2 " +
                 formatDouble(a.ds2, 2) + " dB",
             a.cicero6 < a.ds2 && a.cicero16 < a.ds2},
            {formatDouble(b.cicero16, 2) + " dB vs DS-2 " +
                 formatDouble(b.ds2, 2) + " dB",
             b.cicero16 >= b.ds2},
            {formatDouble(a.cicero16, 2) + " dB at 1 FPS, " +
                 formatDouble(b.cicero16, 2) + " dB at video rate",
             b.cicero16 > a.cicero16}};
}

std::vector<Verdict>
fig26(Lab &lab)
{
    banner("Fig. 26", "warping threshold ϕ on the 1 FPS sequence");

    const Scene &scene = lab.scene("ignatius");
    PerformanceModel pm;
    auto traj = decimate(sceneOrbit(scene, 30 * 10, 20.0f), 30);
    GroundTruth gt(scene, qualityCamera(scene, Pose{}, 56), traj, 224);

    // A larger threshold never raises quality nor lowers the speedup,
    // and the largest one trades quality for speed.
    bool tradeOff = true, at4 = true;
    std::vector<double> drop4, speed4;
    for (ModelKind kind : mainModelKinds()) {
        const NerfModel &model = lab.model(kind);
        const WorkloadInputs &in = lab.probe(kind, traj);
        FramePrice base = pm.priceLocal(SystemVariant::Baseline, in);

        Table table({"phi deg", "PSNR dB", "rerender %", "speedup x"});
        std::vector<double> psnrs, speeds;
        for (float phi : {1.0f, 2.0f, 4.0f, 8.0f, 16.0f, 180.0f}) {
            SparwConfig cfg;
            cfg.window = 16;
            cfg.dtSeconds = 1.0f;
            cfg.warp.maxAngleDeg = phi;
            SparwRun run = SparwPipeline(model, gt.cam, cfg).run(traj);

            // Price with the measured sparse fraction under this ϕ.
            WorkloadInputs sized = in;
            double frac = run.meanRerender();
            sized.sparsePerFrame = in.fullFrame.scaled(frac);
            sized.sparseStreamPlan.ritEntries =
                static_cast<std::uint64_t>(
                    in.fullStreamPlan.ritEntries * frac);
            double speed =
                base.timeMs /
                pm.priceLocal(SystemVariant::Cicero, sized).timeMs;
            psnrs.push_back(gt.meanPsnr(run));
            speeds.push_back(speed);

            table.row()
                .cell(phi, 0)
                .cell(psnrs.back(), 2)
                .cell(100.0 * frac, 1)
                .cell(speed, 1);
        }
        std::printf("\n%s\n", modelName(kind));
        table.print();
        tradeOff &= psnrs.back() < psnrs[0] && speeds.back() > speeds[0];
        for (std::size_t i = 1; i < psnrs.size(); ++i)
            tradeOff &= psnrs[i] <= psnrs[i - 1] && speeds[i] >= speeds[i - 1];
        // ϕ = 4° is the third threshold.
        drop4.push_back(gt.baselinePsnr(model) - psnrs[2]);
        speed4.push_back(speeds[2]);
        at4 &= drop4.back() <= 0.1 && point(speeds[2], 4.3, 1, "x").holds;
    }
    return {everyModel(tradeOff),
            {join(drop4, 2) + " dB drop at " + join(speed4, 1) + "x",
             at4}};
}

// --------------------------------------------------------- the claims

/** One paper claim and the verdict our models give today. */
struct Claim
{
    const char *claim; //!< the paper's statement
    const char *paper; //!< the paper's value
    bool reproduced;   //!< recorded verdict: does the property hold?
};

/** A figure: prints its tables and returns one verdict per claim. */
struct Figure
{
    const char *id;
    std::vector<Verdict> (*run)(Lab &);
    std::vector<Claim> claims;
};

// The paper's claims, figure by figure: {statement, paper's value,
// recorded verdict}. A point value holds only at the paper's precision.
const std::vector<Figure> kFigures = {
    {"2", fig02,
     {{"no NeRF model reaches 60 FPS at 800x800 on a mobile GPU",
       "<60 FPS", true}}},
    {"3", fig03,
     {{"Feature Gathering dominates execution time", ">56%", true}}},
    {"4", fig04,
     {{"Feature Gathering DRAM accesses are mostly non-streaming",
       ">81%", false}}},
    {"5", fig05,
     {{"mean oracle miss rate of a 2 MB gather buffer", "38%",
       false}}},
    {"6", fig06,
     {{"mean feature-major SRAM bank conflict rate", "52%", false},
      {"more concurrent rays conflict more; more banks conflict less",
       "NGP: 80% at 64 rays", true},
      {"the channel-major layout has no bank conflicts", "0%", true}}},
    {"7", fig07,
     {{"warping reuses most pixels of synthetic scenes", ">98%", true},
      {"real-world scenes re-render more than synthetic ones",
       "4.3% / 4.9% vs <2%", false}}},
    {"16", fig16,
     {{"Cicero-6 is within 1.0 dB of the baseline", "<=1.0 dB", false},
      {"Cicero-16 stays above DS-2 and Temp-16", "above both", true},
      {"Temp-16 is the worst variant", "lowest", false},
      {"real-world: Baseline > Cicero-6 > DS-2 > Cicero-16 > Temp-16",
       "37.7 / 36.9 / 36.8 / 36.6 / 36.0 dB", false}}},
    {"17", fig17,
     {{"software Cicero-16 beats Cicero-6 and DS-2 on the GPU",
       "8.0x vs DS-2 4.0x", true},
      {"software Cicero-16 speedup over the GPU", "8.0x", false}}},
    {"18", fig18,
     {{"a wider window moves GPU time from full-frame to sparse NeRF",
       "86.1% -> 49.7% full", true},
      {"warping is the smallest share of GPU time", "negligible", true}}},
    {"19a", fig19a,
     {{"local speed and energy: CICERO > SPARW+FS > SPARW > Baseline",
       "28.2x > 9.7x > 8.1x", true},
      {"CICERO local speedup / energy saving", "28.2x / 37.8x", false}}},
    {"19b", fig19b,
     {{"remote speed: CICERO > SPARW+FS > SPARW > Baseline",
       "8.0x > 3.8x > 3.1x", false},
      {"CICERO remote speedup", "8.0x", false},
      {"full offload uses the least device energy", "lowest", false}}},
    {"20", fig20,
     {{"mean GU speedup of Feature Gathering over the GPU", "72.2x",
       false},
      {"Instant-NGP gains most from the GU", "182.4x", false}}},
    {"21", fig21,
     {{"traffic reduction saves more DRAM energy than streaming",
       "84.5% vs 15.5%", true},
      {"traffic reduction's share of the DRAM saving", "84.5%", false}}},
    {"22", fig22,
     {{"quality falls with the window, above DS-2 through 21",
       "above DS-2 at 21", true},
      {"local speedup dips past window ~26", "dips past 26", true},
      {"remote speedup rises with the window up to ~16",
       "near-linear to 16", true}}},
    {"23", fig23,
     {{"GU energy rises with the VFT beyond 64 KB",
       "flat 8-64 KB, rising beyond", true}}},
    {"24", fig24,
     {{"Cicero beats NeuRex w/o SPARW; Cicero-16 beats NeuRex and NGPC",
       "2.0x; 16.4x / 8.2x", true},
      {"Cicero w/o SPARW over NeuRex", "2.0x", false},
      {"Cicero-16 over NeuRex / NGPC", "16.4x / 8.2x", false}}},
    {"25", fig25,
     {{"at 1 FPS Cicero-6 and Cicero-16 fall below DS-2",
       "37.2 / 37.0 vs 37.4 dB", false},
      {"at video rate Cicero-16 is at least DS-2", "38.1 vs 38.0 dB",
       true},
      {"Cicero-16 is better at video rate than at 1 FPS",
       "38.1 vs 37.0 dB", true}}},
    {"26", fig26,
     {{"a larger threshold trades quality for speed",
       "quality down, speedup up", true},
      {"at 4 degrees: within 0.1 dB of baseline at 4.3x",
       "<=0.1 dB, 4.3x", false}}},
};

/** @p s as a JSON string literal. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main()
{
    Lab lab;
    int claims = 0, differ = 0;
    for (const Figure &fig : kFigures) {
        std::vector<Verdict> verdicts = fig.run(lab);
        if (verdicts.size() != fig.claims.size())
            throw std::logic_error(std::string("Fig. ") + fig.id +
                                   ": verdicts do not match its claims");
        std::printf("\n");
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
            const Claim &c = fig.claims[i];
            const Verdict &v = verdicts[i];
            std::printf("{\"figure\": %s, \"claim\": %s, \"paper\": %s, "
                        "\"ours\": %s, \"holds\": %s, "
                        "\"reproduced\": %s}\n",
                        quoted(fig.id).c_str(), quoted(c.claim).c_str(),
                        quoted(c.paper).c_str(), quoted(v.ours).c_str(),
                        v.holds ? "true" : "false",
                        c.reproduced ? "true" : "false");
            ++claims;
            if (v.holds != c.reproduced) {
                ++differ;
                std::fprintf(stderr,
                             "Fig. %s: \"%s\" %s, recorded as %s\n",
                             fig.id, c.claim,
                             v.holds ? "holds" : "does not hold",
                             c.reproduced ? "reproduced"
                                          : "not reproduced");
            }
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::fprintf(stderr,
                 "bench_claims: %d claims, %d differ from the record; "
                 "%d Full-preset model builds\n",
                 claims, differ, lab.builds());
    return differ == 0 ? 0 : 1;
}
