/**
 * @file
 * Tests for the design-space exploration subsystem: accelerator-stack
 * replay (live vs file source bit-identical stats for the GPU, NPU,
 * GU and baseline stacks, across capture thread counts), workload
 * summary round-trips, corpus manifest round-trip and malformed-input
 * error paths, sweep-spec parsing, the driver's parallel-vs-serial
 * byte-identity contract, and its Cicero price being
 * PerformanceModel's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accel_replay.hh"
#include "cicero/pipeline.hh"
#include "common/parallel.hh"
#include "dse/corpus.hh"
#include "dse/driver.hh"
#include "dse/minijson.hh"
#include "memory/cache_model.hh"
#include "memory/tracefile.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

// ---------------------------------------------------------------------
// Accelerator replay: live vs file source
// ---------------------------------------------------------------------

TEST(DseAccelReplayTest, ReplayStatsBitIdenticalToLiveAllStacks)
{
    // The tentpole contract: every accelerator stack prices a replayed
    // trace bit-identically to the live render stream, whether the
    // capture ran serial or pool-sharded.
    ThreadCountGuard guard;
    const int res = 24;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(res);

    setParallelThreadCount(1);
    TraceWorkloadDescriptor live = measureWorkload(*model, cam);
    TraceSourceFn liveSrc = liveSource(*model, cam);
    std::string liveGpu = statsJson(runGpuStack(liveSrc, live));
    std::string liveNpu = statsJson(runNpuStack(liveSrc, live));
    std::string liveGu = statsJson(runGuStack(liveSrc, live));
    std::string liveBase = statsJson(runBaselineStack(liveSrc, live));

    for (int threads : {1, 4}) {
        setParallelThreadCount(threads);
        std::vector<std::uint8_t> ctrace;
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        writer.setWorkloadSummary(
            toSummary(measureWorkload(*model, cam, &writer)));
        writer.close();

        TraceFileReader reader(ctrace);
        ASSERT_TRUE(reader.hasWorkloadSummary());
        TraceWorkloadDescriptor replayed = workloadFromTrace(reader);
        TraceSourceFn fileSrc = fileSource(reader);

        EXPECT_EQ(liveGpu, statsJson(runGpuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveNpu, statsJson(runNpuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveGu, statsJson(runGuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveBase,
                  statsJson(runBaselineStack(fileSrc, replayed)))
            << "threads=" << threads;
    }
}

TEST(DseAccelReplayTest, WorkloadSummaryRoundTrip)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(16);

    TraceWorkloadDescriptor desc = measureWorkload(*model, cam);
    TraceWorkloadDescriptor back = fromSummary(toSummary(desc));
    EXPECT_EQ(desc.work.rays, back.work.rays);
    EXPECT_EQ(desc.work.samples, back.work.samples);
    EXPECT_EQ(desc.work.indexOps, back.work.indexOps);
    EXPECT_EQ(desc.work.vertexFetches, back.work.vertexFetches);
    EXPECT_EQ(desc.work.gatherBytes, back.work.gatherBytes);
    EXPECT_EQ(desc.work.interpOps, back.work.interpOps);
    EXPECT_EQ(desc.work.mlpMacs, back.work.mlpMacs);
    EXPECT_EQ(desc.work.compositeOps, back.work.compositeOps);
    EXPECT_EQ(desc.plan.streamedBytes, back.plan.streamedBytes);
    EXPECT_EQ(desc.plan.randomBytes, back.plan.randomBytes);
    EXPECT_EQ(desc.plan.ritEntries, back.plan.ritEntries);
    EXPECT_EQ(desc.plan.ritBytes, back.plan.ritBytes);
    EXPECT_EQ(desc.vertexBytes, back.vertexBytes);

    // And through the container: the persisted summary recovers the
    // identical integers.
    std::vector<std::uint8_t> ctrace;
    TraceFileWriter writer(ctrace, captureMeta(*model, cam));
    writer.setWorkloadSummary(
        toSummary(measureWorkload(*model, cam, &writer)));
    writer.close();
    TraceFileReader reader(ctrace);
    TraceWorkloadDescriptor fromFile = workloadFromTrace(reader);
    EXPECT_EQ(desc.work.mlpMacs, fromFile.work.mlpMacs);
    EXPECT_EQ(desc.plan.streamedBytes, fromFile.plan.streamedBytes);
    EXPECT_EQ(desc.vertexBytes, fromFile.vertexBytes);
}

TEST(DseAccelReplayTest, TraceWithoutSummaryThrows)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(16);

    std::vector<std::uint8_t> ctrace;
    {
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        model->traceWorkload(cam, &writer);
        writer.close();
    }
    TraceFileReader reader(ctrace);
    EXPECT_FALSE(reader.hasWorkloadSummary());
    EXPECT_THROW(workloadFromTrace(reader), std::runtime_error);
}

// ---------------------------------------------------------------------
// Corpus manifest
// ---------------------------------------------------------------------

dse::CorpusEntry
sampleEntry(const std::string &id)
{
    dse::CorpusEntry e;
    e.id = id;
    e.file = id + ".ctrace";
    e.scene = "lego";
    e.model = "dvgo";
    e.encoding = "dense-grid";
    e.res = 32;
    e.frame = 3;
    e.preset = "full";
    e.layout = "mvoxel";
    e.fp16 = true;
    return e;
}

TEST(DseCorpusTest, ManifestRoundTripPreservesAllFields)
{
    dse::Corpus corpus("/tmp/corpus-here");
    corpus.add(sampleEntry("lego_dvgo_32_f3"));
    corpus.add(sampleEntry("lego_dvgo_32_f4"));

    dse::Corpus back = dse::Corpus::fromManifestJson(
        corpus.manifestJson(), corpus.dir());
    ASSERT_EQ(back.size(), 2u);
    const dse::CorpusEntry &e = back.entries().front();
    EXPECT_EQ(e.id, "lego_dvgo_32_f3");
    EXPECT_EQ(e.file, "lego_dvgo_32_f3.ctrace");
    EXPECT_EQ(e.scene, "lego");
    EXPECT_EQ(e.model, "dvgo");
    EXPECT_EQ(e.encoding, "dense-grid");
    EXPECT_EQ(e.res, 32u);
    EXPECT_EQ(e.frame, 3u);
    EXPECT_EQ(e.preset, "full");
    EXPECT_EQ(e.layout, "mvoxel");
    EXPECT_TRUE(e.fp16);
    EXPECT_EQ(back.tracePath(e),
              "/tmp/corpus-here/lego_dvgo_32_f3.ctrace");
    EXPECT_NE(back.findEntry("lego_dvgo_32_f4"), nullptr);
    EXPECT_EQ(back.findEntry("nope"), nullptr);

    // Serialization is deterministic: round-tripping reproduces the
    // manifest byte for byte.
    EXPECT_EQ(corpus.manifestJson(), back.manifestJson());
}

TEST(DseCorpusTest, SaveAndLoadFromDisk)
{
    char dirTemplate[] = "/tmp/cicero_dse_test_XXXXXX";
    const char *dir = mkdtemp(dirTemplate);
    ASSERT_NE(dir, nullptr);

    dse::Corpus corpus(dir);
    corpus.add(sampleEntry("a"));
    corpus.save();

    dse::Corpus loaded = dse::Corpus::load(dir);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.manifestJson(), corpus.manifestJson());

    std::remove((std::string(dir) + "/corpus.json").c_str());
    std::remove(dir);
}

TEST(DseCorpusTest, MalformedManifestThrows)
{
    using dse::Corpus;
    // Invalid JSON.
    EXPECT_THROW(Corpus::fromManifestJson("{oops", "."),
                 std::runtime_error);
    // Root must be an object.
    EXPECT_THROW(Corpus::fromManifestJson("[1, 2]", "."),
                 std::runtime_error);
    // Missing "entries".
    EXPECT_THROW(Corpus::fromManifestJson("{\"version\": 1}", "."),
                 std::runtime_error);
    // Entries must be objects.
    EXPECT_THROW(
        Corpus::fromManifestJson("{\"entries\": [42]}", "."),
        std::runtime_error);
    // Entry missing "id".
    EXPECT_THROW(Corpus::fromManifestJson(
                     "{\"entries\": [{\"file\": \"x.ctrace\"}]}", "."),
                 std::runtime_error);
    // Entry missing "file".
    EXPECT_THROW(
        Corpus::fromManifestJson("{\"entries\": [{\"id\": \"x\"}]}", "."),
        std::runtime_error);
    // Duplicate ids.
    EXPECT_THROW(Corpus::fromManifestJson(
                     "{\"entries\": ["
                     "{\"id\": \"x\", \"file\": \"a.ctrace\"},"
                     "{\"id\": \"x\", \"file\": \"b.ctrace\"}]}",
                     "."),
                 std::runtime_error);
    // Trailing garbage after the document.
    EXPECT_THROW(Corpus::fromManifestJson("{\"entries\": []} extra", "."),
                 std::runtime_error);
}

TEST(DseCorpusTest, DuplicateAddThrows)
{
    dse::Corpus corpus(".");
    corpus.add(sampleEntry("x"));
    EXPECT_THROW(corpus.add(sampleEntry("x")), std::runtime_error);
}

// ---------------------------------------------------------------------
// Sweep spec + grid expansion
// ---------------------------------------------------------------------

TEST(DseDriverTest, ParseSweepSpec)
{
    dse::SweepAxes axes = dse::parseSweepSpec(
        "{\"cache_mb\": [0.5, 1], \"gu_vft_kb\": [16],"
        " \"dram_gbs\": [12.8, 25.6, 51.2]}");
    EXPECT_EQ(axes.cacheMb, (std::vector<double>{0.5, 1.0}));
    EXPECT_EQ(axes.guVftKb, (std::vector<std::uint32_t>{16}));
    EXPECT_EQ(axes.dramGBs, (std::vector<double>{12.8, 25.6, 51.2}));
    // Unspecified axes keep their defaults.
    EXPECT_EQ(axes.warpWays, dse::SweepAxes{}.warpWays);
    EXPECT_EQ(axes.configCount(), 2u * 1u * 3u);

    EXPECT_THROW(dse::parseSweepSpec("{\"bogus_axis\": [1]}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("{\"cache_mb\": []}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("{\"cache_mb\": [0]}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("[1]"), std::runtime_error);
}

TEST(DseDriverTest, ParseCacheWaysAxis)
{
    // 0 is legal for cache_ways only (fully associative).
    dse::SweepAxes axes = dse::parseSweepSpec(
        "{\"cache_ways\": [0, 4, 8], \"cache_mb\": [1, 2],"
        " \"gu_vft_kb\": [32]}");
    EXPECT_EQ(axes.cacheWays, (std::vector<std::uint32_t>{0, 4, 8}));
    EXPECT_EQ(axes.configCount(), 2u * 3u * 1u);
    // Unspecified cache_ways keeps the fully-associative default.
    dse::SweepAxes defaults = dse::parseSweepSpec("{\"cache_mb\": [1]}");
    EXPECT_EQ(defaults.cacheWays, (std::vector<std::uint32_t>{0}));
    // Other u32 axes still reject 0.
    EXPECT_THROW(dse::parseSweepSpec("{\"warp_ways\": [0]}"),
                 std::runtime_error);
}

TEST(DseDriverTest, GridExpansionIncludesCacheWays)
{
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.cacheWays = {0, 4};
    axes.warpWays = {32};
    axes.guVftKb = {32};
    axes.guBanks = {32};
    axes.dramGBs = {25.6};
    axes.sramBanks = {16};
    axes.concurrentRays = {16};
    std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 4u);
    // cache_ways varies faster than cache_mb (it sits right after it
    // in lexicographic axis order).
    EXPECT_EQ(grid[0].cacheMb, 1.0);
    EXPECT_EQ(grid[0].cacheWays, 0u);
    EXPECT_EQ(grid[1].cacheMb, 1.0);
    EXPECT_EQ(grid[1].cacheWays, 4u);
    EXPECT_EQ(grid[2].cacheMb, 2.0);
    EXPECT_EQ(grid[2].cacheWays, 0u);
    EXPECT_EQ(grid[3].cacheMb, 2.0);
    EXPECT_EQ(grid[3].cacheWays, 4u);
    // Associativity is part of the config identity.
    EXPECT_NE(grid[0].id(), grid[1].id());
    EXPECT_NE(grid[0].id(), grid[2].id());
}

TEST(DseDriverTest, SetAssociativeLruAddsConflictMisses)
{
    // Tiny cache: 4 lines of 64 B. A cyclic sweep over 5 lines
    // thrashes LRU fully-associative (every access misses); direct-
    // mapped (1-way, 4 sets) keeps lines 0..3 resident except where
    // line 4 conflicts with line 0 in set 0.
    CacheConfig full;
    full.capacityBytes = 4 * 64;
    CacheConfig direct = full;
    direct.ways = 1;
    EXPECT_EQ(full.numSets(), 1u);
    EXPECT_EQ(direct.numSets(), 4u);

    LruCache fullCache(full);
    LruCache directCache(direct);
    for (int round = 0; round < 8; ++round) {
        for (std::uint64_t line = 0; line < 5; ++line) {
            MemAccess a;
            a.addr = line * 64;
            a.bytes = 4;
            fullCache.onAccess(a);
            directCache.onAccess(a);
        }
    }
    // Fully associative: pure LRU thrash, zero hits after warmup.
    EXPECT_EQ(fullCache.stats().hits, 0u);
    // Direct-mapped: sets 1..3 hit every round after the first; only
    // set 0 (lines 0 and 4) conflicts.
    EXPECT_GT(directCache.stats().hits, 0u);
    EXPECT_EQ(directCache.stats().accesses, fullCache.stats().accesses);
    // And a non-trivial associativity still bounds the set size.
    CacheConfig twoWay = full;
    twoWay.ways = 2;
    EXPECT_EQ(twoWay.numSets(), 2u);
}

TEST(DseDriverTest, GridExpansionIsLexicographic)
{
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.warpWays = {16, 32};
    axes.guVftKb = {32};
    axes.guBanks = {32};
    axes.dramGBs = {25.6};
    axes.sramBanks = {16};
    axes.concurrentRays = {16};
    std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].cacheMb, 1.0);
    EXPECT_EQ(grid[0].warpWays, 16u);
    EXPECT_EQ(grid[1].cacheMb, 1.0);
    EXPECT_EQ(grid[1].warpWays, 32u);
    EXPECT_EQ(grid[3].cacheMb, 2.0);
    EXPECT_EQ(grid[3].warpWays, 32u);
    // Ids are unique.
    EXPECT_NE(grid[0].id(), grid[1].id());
    EXPECT_NE(grid[1].id(), grid[2].id());
}

// ---------------------------------------------------------------------
// Driver determinism
// ---------------------------------------------------------------------

/**
 * A corpus of @p frames captures of the tiny model in a fresh
 * temporary directory, deleted with the object.
 */
struct TempCorpus
{
    explicit TempCorpus(int frames)
    {
        char dirTemplate[] = "/tmp/cicero_dse_test_XXXXXX";
        const char *made = mkdtemp(dirTemplate);
        if (!made)
            throw std::runtime_error("mkdtemp failed");
        dir = made;
        corpus = std::make_unique<dse::Corpus>(dir);
        auto model = test::tinyModel();
        Camera cam = test::tinyCamera(20);
        std::vector<std::uint8_t> ctrace;
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        writer.setWorkloadSummary(
            toSummary(measureWorkload(*model, cam, &writer)));
        writer.close();
        for (int f = 0; f < frames; ++f) {
            dse::CorpusEntry entry;
            entry.id = "tiny_f" + std::to_string(f);
            entry.file = entry.id + ".ctrace";
            entry.scene = "tiny";
            entry.res = 20;
            entry.frame = static_cast<std::uint32_t>(f);
            writeFile(corpus->tracePath(entry), ctrace);
            corpus->add(std::move(entry));
        }
        corpus->save();
    }

    TempCorpus(const TempCorpus &) = delete;
    TempCorpus &operator=(const TempCorpus &) = delete;

    ~TempCorpus()
    {
        for (const auto &entry : corpus->entries())
            std::remove(corpus->tracePath(entry).c_str());
        std::remove((dir + "/corpus.json").c_str());
        std::remove(dir.c_str());
    }

    static void
    writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *out = std::fopen(path.c_str(), "wb");
        if (!out || std::fwrite(bytes.data(), 1, bytes.size(), out) !=
                        bytes.size())
            throw std::runtime_error("cannot write " + path);
        std::fclose(out);
    }

    std::string dir;
    std::unique_ptr<dse::Corpus> corpus;
};

/** The GPU stack a sweep point runs at @p config. */
GpuStackConfig
gpuStackConfig(const dse::DseConfig &config)
{
    GpuStackConfig cfg;
    cfg.gpu.dram.bandwidthGBs = config.dramGBs;
    cfg.cache.capacityBytes =
        static_cast<std::uint64_t>(config.cacheMb * (1ull << 20));
    cfg.cache.ways = config.cacheWays;
    cfg.warpWays = config.warpWays;
    return cfg;
}

/** The GU stack a sweep point runs at @p config. */
GuStackConfig
guStackConfig(const dse::DseConfig &config)
{
    GuStackConfig cfg;
    cfg.gu.vftBytes = std::uint64_t{config.guVftKb} * 1024;
    cfg.gu.banks = config.guBanks;
    cfg.dram.bandwidthGBs = config.dramGBs;
    return cfg;
}

/** The baseline stack a sweep point runs at @p config. */
BaselineStackConfig
baselineStackConfig(const dse::DseConfig &config)
{
    BaselineStackConfig cfg;
    cfg.bank.numBanks = config.sramBanks;
    cfg.bank.concurrentRays = config.concurrentRays;
    cfg.dram.bandwidthGBs = config.dramGBs;
    return cfg;
}

TEST(DseDriverTest, ParallelSweepByteIdenticalToSerial)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    TempCorpus temp(2);
    const dse::Corpus &corpus = *temp.corpus;

    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.guVftKb = {32, 64};
    dse::DseDriver driver(axes);

    setParallelThreadCount(4);
    dse::DseResult parallelRun = driver.run(corpus, true);
    dse::DseResult serialRun = driver.run(corpus, false);

    EXPECT_EQ(parallelRun.json(), serialRun.json());
    EXPECT_EQ(parallelRun.paretoJson(), serialRun.paretoJson());
    EXPECT_EQ(parallelRun.points.size(), 2u * 4u);
    EXPECT_EQ(parallelRun.traceCount, 2u);
    EXPECT_EQ(parallelRun.configCount, 4u);

    // At least one config sits on the Pareto frontier.
    std::size_t frontier = 0;
    for (const auto &s : parallelRun.summaries)
        frontier += s.pareto ? 1 : 0;
    EXPECT_GE(frontier, 1u);
}

TEST(DseDriverTest, CiceroPriceIsPerformanceModelPrice)
{
    // A sweep point's Cicero price is PerformanceModel's full-frame
    // Cicero price on the profile its GPU stack measured: the GPU
    // indexes and composites, and the GU's gather overlaps the NPU's
    // MLP work alone (compositing is not charged a second time).
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    TempCorpus temp(1);
    const dse::Corpus &corpus = *temp.corpus;
    TraceFileReader reader(corpus.tracePath(corpus.entries()[0]));
    const TraceWorkloadDescriptor desc = workloadFromTrace(reader);

    dse::SweepAxes axes;
    axes.cacheMb = {2.0};
    axes.guVftKb = {32, 64};
    axes.dramGBs = {12.8, 25.6};
    const std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 4u);
    const dse::DseResult result = dse::DseDriver(axes).run(corpus);
    ASSERT_EQ(result.points.size(), grid.size());

    for (std::size_t c = 0; c < grid.size(); ++c) {
        const dse::DseConfig &config = grid[c];
        const GpuStackConfig gpuCfg = gpuStackConfig(config);
        const GuStackConfig guCfg = guStackConfig(config);

        WorkloadInputs inputs;
        inputs.fullFrame = desc.work;
        inputs.gatherProfile =
            runGpuStack(fileSource(reader), desc, gpuCfg).profile;
        inputs.fullStreamPlan = desc.plan;
        inputs.vertexBytes = desc.vertexBytes;
        const FramePrice want =
            PerformanceModel(gpuCfg.gpu, NpuConfig{}, guCfg.gu)
                .priceFullFrame(SystemVariant::Cicero, inputs);

        const dse::DsePointResult &point = result.points[c];
        EXPECT_EQ(point.configId, config.id());
        EXPECT_GT(want.timeMs, 0.0) << point.configId;
        EXPECT_EQ(point.ciceroTimeMs, want.timeMs) << point.configId;
        EXPECT_EQ(point.ciceroEnergyNj, want.energyNj) << point.configId;
    }
}

TEST(DseDriverTest, OnePassPointMatchesPerStackReplays)
{
    // A sweep point replays its trace once into all four stacks; each
    // run*Stack replays it into its own stack alone. Both price alike
    // on a dense-grid and a hash-grid capture, fully and 8-way
    // associative, at two bank counts and two ray-slot counts.
    const Scene scene = makeScene("lego");
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    const Camera cam = Camera::fromFov(8, 8, scene.fovYDeg,
                                       orbitTrajectory(orbit, 1)[0]);

    dse::SweepAxes axes;
    axes.cacheMb = {2.0};
    axes.cacheWays = {0, 8};
    axes.guVftKb = {32};
    axes.sramBanks = {8, 16};
    axes.concurrentRays = {4, 16};
    const std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 8u);

    for (ModelKind kind : {ModelKind::DirectVoxGO, ModelKind::InstantNgp}) {
        SCOPED_TRACE(modelName(kind));
        const auto model = buildModel(kind, scene);
        std::vector<std::uint8_t> ctrace;
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        writer.setWorkloadSummary(
            toSummary(measureWorkload(*model, cam, &writer)));
        writer.close();
        const TraceFileReader reader(ctrace);
        const TraceWorkloadDescriptor desc = workloadFromTrace(reader);
        const TraceSourceFn source = fileSource(reader);
        for (const dse::DseConfig &config : grid) {
            SCOPED_TRACE(config.id());
            const dse::DsePointResult point =
                dse::evaluatePoint(source, desc, "lego", config);
            EXPECT_EQ(point.gpuJson,
                      statsJson(runGpuStack(source, desc,
                                            gpuStackConfig(config))));
            EXPECT_EQ(point.npuJson, statsJson(runNpuStack(source, desc)));
            EXPECT_EQ(point.guJson,
                      statsJson(runGuStack(source, desc,
                                           guStackConfig(config))));
            EXPECT_EQ(point.baselinesJson,
                      statsJson(runBaselineStack(
                          source, desc, baselineStackConfig(config))));
        }
    }
}

TEST(DseDriverTest, StackTimesAddUpToCiceroTime)
{
    // The Cicero frame is the GPU's indexing and compositing, then the
    // GU's gather overlapped with the NPU's MLP, so every point's stack
    // stats add up to its Cicero time (to the JSON's 6 decimals).
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    TempCorpus temp(1);
    dse::SweepAxes axes;
    axes.cacheMb = {2.0};
    axes.guVftKb = {32, 64};
    axes.dramGBs = {12.8, 25.6};
    const dse::DseResult result = dse::DseDriver(axes).run(*temp.corpus);
    ASSERT_EQ(result.points.size(), 4u);

    auto ms = [](const std::string &json, const std::string &field) {
        const dse::JsonValue stats = dse::parseJson(json);
        const dse::JsonValue *value = stats.find(field);
        if (!value)
            throw std::runtime_error("no " + field + " in " + json);
        return value->asNumber(field);
    };
    for (const dse::DsePointResult &point : result.points) {
        const double sum = ms(point.gpuJson, "index_ms") +
                           ms(point.gpuJson, "composite_ms") +
                           std::max(ms(point.guJson, "time_ms"),
                                    ms(point.npuJson, "time_ms"));
        EXPECT_NEAR(sum, point.ciceroTimeMs, 2e-6) << point.configId;
    }
}

TEST(DseDriverTest, CorruptTraceFailsTheSweepInBothModes)
{
    // One truncated trace among good ones: its parse fails, its points
    // never run, and the sweep reports the parse error, whether the
    // bad trace comes first, in the middle or last.
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    TempCorpus temp(4);
    const dse::Corpus &corpus = *temp.corpus;
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.cacheWays = {0, 8};
    axes.guVftKb = {32};
    dse::DseDriver driver(axes);

    std::vector<std::uint8_t> good;
    {
        const std::string path = corpus.tracePath(corpus.entries()[0]);
        std::FILE *in = std::fopen(path.c_str(), "rb");
        ASSERT_NE(in, nullptr);
        int ch;
        while ((ch = std::fgetc(in)) != EOF)
            good.push_back(static_cast<std::uint8_t>(ch));
        std::fclose(in);
    }
    const std::vector<std::uint8_t> truncated(
        good.begin(), good.begin() + good.size() / 2);

    for (std::size_t bad : {std::size_t{0}, std::size_t{2},
                            std::size_t{3}}) {
        SCOPED_TRACE("corrupt trace " + std::to_string(bad));
        const std::string path =
            corpus.tracePath(corpus.entries()[bad]);
        TempCorpus::writeFile(path, truncated);
        for (int threads : {1, 4}) {
            setParallelThreadCount(threads);
            EXPECT_THROW(driver.run(corpus, true), TraceFileError);
            EXPECT_THROW(driver.run(corpus, false), TraceFileError);
        }
        TempCorpus::writeFile(path, good);
    }
    // Repaired, the same corpus sweeps.
    setParallelThreadCount(4);
    EXPECT_EQ(driver.run(corpus, true).points.size(), 4u * 4u);
}

TEST(DseDriverTest, EmptyCorpusThrows)
{
    dse::Corpus corpus(".");
    dse::DseDriver driver;
    EXPECT_THROW(driver.run(corpus), std::runtime_error);
}

} // namespace
} // namespace cicero
