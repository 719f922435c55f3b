/**
 * @file
 * `cicero_trace` — trace-file workbench for the capture-once /
 * replay-many workflow:
 *
 *   cicero_trace capture --scene lego --model dvgo --res 64 -o t.ctrace
 *       Walk a scene frame's workload once (measureWorkload) and
 *       persist its gather access stream as a compressed .ctrace file,
 *       with the workload summary accelerator replays price.
 *
 *   cicero_trace replay t.ctrace --stack cache
 *       Stream a persisted trace through a memory-model stack (cache,
 *       bank or dram) and print its stats JSON. Replaying a capture
 *       reproduces the live-render statistics bit-identically.
 *
 *   cicero_trace capture-set -o DIR --scenes lego,chair --models dvgo
 *       Capture a corpus: one trace per scene x model x frame, plus a
 *       corpus.json manifest the DSE driver consumes.
 *
 *   cicero_trace stats t.ctrace
 *       Ray/access counts, per-event-type payload breakdown, address
 *       histogram, compression ratio.
 *
 *   cicero_trace diff a.ctrace b.ctrace
 *       Event-level comparison of two traces; exit 1 on mismatch.
 *
 *   cicero_trace recover damaged.ctrace -o salvaged.ctrace
 *       Salvage the longest checksum-valid event prefix of a truncated
 *       or corrupted trace and (optionally) rewrite it as a clean
 *       container.
 *
 * All commands accept --threads N (validated like CICERO_THREADS) and
 * --faults SPEC (arm fault-injection sites; same grammar as
 * CICERO_FAULTS).
 *
 * Exit codes: 0 success, 1 comparison mismatch / check failure,
 * 2 usage error, 3 I/O error, 4 parse error (malformed trace or
 * manifest), 5 other runtime failure (including injected faults).
 */

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "cli.hh"
#include "accel/accel_replay.hh"
#include "common/errors.hh"
#include "dse/corpus.hh"
#include "dse/minijson.hh"
#include "memory/replay.hh"
#include "memory/tracefile.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"

using namespace cicero;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cicero_trace <command> [options]\n"
        "\n"
        "commands:\n"
        "  capture -o FILE [--scene NAME] [--model ngp|dvgo|tensorf|enerf]\n"
        "          [--res N] [--frame K] [--preset fast|full]\n"
        "          [--layout linear|mvoxel] [--fp16]\n"
        "      walk one frame's workload and persist its gather access\n"
        "      stream; --fp16 first quantizes the model (feature storage\n"
        "      and MLP weights, as cicero_serve --fp16 does), so the\n"
        "      trace's 2 B/channel featureBytes accounting matches the run\n"
        "  capture-set -o DIR [--scenes A,B] [--models A,B] [--res N]\n"
        "          [--frames K] [--preset fast|full] [--layout ...]\n"
        "          [--fp16]\n"
        "      capture one trace per scene x model x frame into DIR and\n"
        "      write a corpus.json manifest (DSE corpus input)\n"
        "  replay FILE [--stack cache|bank|dram|gpu|npu|gu|accels]\n"
        "          [--ways N] [--capacity-mb N] [--banks N] [--rays N]\n"
        "          [--sram-layout feature|channel] [--salvage]\n"
        "      run a persisted trace through a memory-model or\n"
        "      accelerator stack, print stats JSON; --ways and\n"
        "      --capacity-mb apply to cache|gpu, --banks to\n"
        "      bank|gu|accels, --rays to bank|accels, --sram-layout to\n"
        "      bank, and any other option is rejected\n"
        "  stats FILE [--salvage]\n"
        "      counts, event breakdown, address histogram, ratio\n"
        "  diff FILE_A FILE_B\n"
        "      compare two traces event by event; exit 1 if they differ\n"
        "  recover FILE [-o OUT]\n"
        "      salvage the longest checksum-valid event prefix of a\n"
        "      damaged trace; with -o, rewrite it as a clean container\n"
        "\n"
        "global: --threads N    set worker count (like CICERO_THREADS)\n"
        "        --faults SPEC  arm fault injection (CICERO_FAULTS "
        "grammar)\n"
        "\n"
        "exit codes: 0 ok, 1 mismatch, 2 usage, 3 I/O error,\n"
        "            4 parse error, 5 other failure\n");
    return 2;
}

/** Read mode for commands accepting --salvage. */
TraceReadMode
readMode(const cli::Args &cli)
{
    return cli.optFlag("--salvage") ? TraceReadMode::Salvage
                                            : TraceReadMode::Strict;
}

/** Report what a salvage-mode read had to recover (stderr). */
void
reportRecovery(const char *file, const TraceFileReader &reader)
{
    const TraceRecoveryInfo &r = reader.recovery();
    if (!r.salvaged)
        return;
    std::fprintf(stderr,
                 "cicero_trace: %s was damaged; salvaged %llu events "
                 "(%llu checkpoint(s) verified, %llu payload bytes "
                 "dropped)\n",
                 file, static_cast<unsigned long long>(r.keptEvents),
                 static_cast<unsigned long long>(r.checkpointsVerified),
                 static_cast<unsigned long long>(r.droppedPayloadBytes));
}

std::string
metaJson(const TraceFileReader &reader)
{
    const TraceFileMeta &m = reader.meta();
    const TraceFileCounts &c = reader.counts();
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "\"width\": %u, \"height\": %u, \"threads\": %u, "
                  "\"feature_bytes\": %u, \"storage\": \"%s\", "
                  "\"storage_consistent\": %s, \"accesses\": %llu, "
                  "\"ray_ends\": %llu, \"flushes\": %llu",
                  m.width, m.height, m.threads, m.featureBytes,
                  traceStorageModeName(m.storageMode),
                  traceMetaStorageConsistent(m) ? "true" : "false",
                  static_cast<unsigned long long>(c.accesses),
                  static_cast<unsigned long long>(c.rayEnds),
                  static_cast<unsigned long long>(c.flushes));
    return "{\"scene\": \"" + dse::jsonEscape(m.scene) +
           "\", \"encoding\": \"" + dse::jsonEscape(m.encoding) +
           "\", \"model\": \"" + dse::jsonEscape(m.model) + "\", " + buf +
           "}";
}

// ---------------------------------------------------------------------
// capture
// ---------------------------------------------------------------------

/** One capture's parameters, shared by capture and capture-set. */
struct CaptureSpec
{
    ModelKind kind = ModelKind::DirectVoxGO;
    std::string sceneName = "lego";
    std::uint32_t res = 64;
    std::uint32_t frame = 0;
    ModelBuildOptions opts;
    bool fp16 = false;
};

/**
 * Capture one trace to @p outPath: one measureWorkload walk of the
 * frame streams its gather accesses into a TraceFileWriter and gives
 * the workload summary (StageWork + streaming footprint + vertex size)
 * that replay-driven accelerator runs read back.
 */
void
captureOne(const CaptureSpec &spec, const NerfModel &model,
           const Scene &scene, const std::string &outPath)
{
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    std::vector<Pose> traj = orbitTrajectory(orbit, spec.frame + 1);
    Camera cam = Camera::fromFov(spec.res, spec.res, scene.fovYDeg,
                                 traj[spec.frame]);

    TraceFileMeta meta = captureMeta(model, cam);
    meta.model = modelName(spec.kind);
    TraceFileWriter writer(outPath, meta);
    writer.setWorkloadSummary(
        toSummary(measureWorkload(model, cam, &writer)));
    writer.close();

    double ratio =
        writer.counts().rawStreamBytes()
            ? static_cast<double>(writer.fileBytes()) /
                  writer.counts().rawStreamBytes()
            : 0.0;
    std::printf("captured %s: %llu accesses, %llu rays, %llu bytes "
                "(%.1f%% of raw %llu-byte stream)\n",
                outPath.c_str(),
                static_cast<unsigned long long>(writer.counts().accesses),
                static_cast<unsigned long long>(writer.counts().rayEnds),
                static_cast<unsigned long long>(writer.fileBytes()),
                100.0 * ratio,
                static_cast<unsigned long long>(
                    writer.counts().rawStreamBytes()));
}

/** Parse shared capture options into @p spec. */
bool
parseCaptureOpts(const cli::Args &cli, CaptureSpec &spec)
{
    if (!cli.optUint("--res", 64, 1, 4096, spec.res) ||
        !cli.optUint("--frame", 0, 0, 100000, spec.frame))
        return false;
    if (!parseModelPreset(cli.optValueOr("--preset", "fast"),
                          spec.opts.preset) ||
        !parseGridLayout(cli.optValueOr("--layout", "linear"),
                         spec.opts.gridLayout)) {
        std::fprintf(stderr,
                     "capture: unknown --preset or --layout value\n");
        return false;
    }
    spec.fp16 = cli.optFlag("--fp16");
    return true;
}

int
cmdCapture(const cli::Args &cli)
{
    const char *out = cli.optValueOr("-o", cli.optValue("--out"));
    if (!out) {
        std::fprintf(stderr, "capture: missing -o FILE\n");
        return usage();
    }

    CaptureSpec spec;
    if (!parseModelKind(cli.optValueOr("--model", "dvgo"),
                        spec.kind)) {
        std::fprintf(stderr, "capture: unknown --model\n");
        return usage();
    }
    spec.sceneName = cli.optValueOr("--scene", "lego");
    if (!parseCaptureOpts(cli, spec) || !cli.onlyKnownOptions())
        return usage();

    Scene scene = makeScene(spec.sceneName);
    auto model = buildModel(spec.kind, scene, spec.opts);
    if (spec.fp16)
        model->quantizeFp16();
    captureOne(spec, *model, scene, out);
    return 0;
}

// ---------------------------------------------------------------------
// capture-set
// ---------------------------------------------------------------------

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

int
cmdCaptureSet(const cli::Args &cli)
{
    const char *dir = cli.optValueOr("-o", cli.optValue("--out"));
    if (!dir) {
        std::fprintf(stderr, "capture-set: missing -o DIR\n");
        return usage();
    }

    std::vector<std::string> scenes =
        splitCsv(cli.optValueOr("--scenes", "lego"));
    std::vector<std::string> models =
        splitCsv(cli.optValueOr("--models", "dvgo"));
    std::uint32_t frames;
    CaptureSpec base;
    if (!cli.optUint("--frames", 1, 1, 1000, frames) ||
        !parseCaptureOpts(cli, base) || !cli.onlyKnownOptions())
        return usage();
    if (scenes.empty() || models.empty()) {
        std::fprintf(stderr, "capture-set: empty --scenes/--models\n");
        return usage();
    }

    if (::mkdir(dir, 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "capture-set: cannot create %s: %s\n", dir,
                     std::strerror(errno));
        return 3;
    }

    dse::Corpus corpus(dir);
    for (const std::string &sceneName : scenes) {
        for (const std::string &modelName : models) {
            CaptureSpec spec = base;
            spec.sceneName = sceneName;
            if (!parseModelKind(modelName, spec.kind)) {
                std::fprintf(stderr, "capture-set: unknown model '%s'\n",
                             modelName.c_str());
                return usage();
            }
            // One model build serves every frame of the orbit.
            Scene scene = makeScene(sceneName);
            auto model = buildModel(spec.kind, scene, spec.opts);
            if (spec.fp16)
                model->quantizeFp16();
            for (std::uint32_t f = 0; f < frames; ++f) {
                spec.frame = f;
                dse::CorpusEntry entry;
                entry.id = sceneName + "_" + modelName + "_" +
                           std::to_string(spec.res) + "_f" +
                           std::to_string(f);
                entry.file = entry.id + ".ctrace";
                entry.scene = sceneName;
                entry.model = modelName;
                entry.encoding = model->encoding().name();
                entry.res = spec.res;
                entry.frame = f;
                entry.preset = spec.opts.preset == ModelPreset::Full
                                   ? "full"
                                   : "fast";
                entry.layout =
                    spec.opts.gridLayout == GridLayout::MVoxelBlocked
                        ? "mvoxel"
                        : "linear";
                entry.fp16 = spec.fp16;
                captureOne(spec, *model, scene,
                           corpus.tracePath(entry));
                corpus.add(std::move(entry));
            }
        }
    }
    corpus.save();
    std::printf("corpus %s: %llu traces, manifest corpus.json\n", dir,
                static_cast<unsigned long long>(corpus.size()));
    return 0;
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

int
cmdReplay(const cli::Args &cli)
{
    const char *file = cli.positional(0);
    const TraceReadMode mode = readMode(cli);
    std::string stack = cli.optValueOr("--stack", "cache");
    if (stack != "cache" && stack != "bank" && stack != "dram" &&
        stack != "gpu" && stack != "npu" && stack != "gu" &&
        stack != "accels") {
        std::fprintf(stderr, "replay: unknown --stack '%s'\n",
                     stack.c_str());
        return usage();
    }

    // Check every option before the trace is opened and decoded: a bad
    // or unknown option is a usage error whatever the file, and costs
    // no decode.
    std::uint32_t warpWays = 32, capacityMb = 2;
    std::uint32_t banks = stack == "gu" ? 32 : 16, rays = 16;
    SramLayout layout = SramLayout::FeatureMajor;
    if (stack == "cache" || stack == "gpu") {
        if (!cli.optUint("--ways", 32, 1, 4096, warpWays) ||
            !cli.optUint("--capacity-mb", 2, 1, 65536, capacityMb))
            return usage();
    } else if (stack == "bank" || stack == "gu" || stack == "accels") {
        // The GU's channel-major gather has no ray slots to size.
        if (!cli.optUint("--banks", banks, 1, 65536, banks) ||
            (stack != "gu" &&
             !cli.optUint("--rays", 16, 1, 65536, rays)))
            return usage();
    }
    if (stack == "bank") {
        std::string name = cli.optValueOr("--sram-layout", "feature");
        if (name != "feature" && name != "channel") {
            std::fprintf(stderr, "replay: unknown --sram-layout '%s'\n",
                         name.c_str());
            return usage();
        }
        if (name == "channel")
            layout = SramLayout::ChannelMajor;
    }
    if (!cli.onlyKnownOptions())
        return usage();
    if (!file) {
        std::fprintf(stderr, "replay: missing trace file\n");
        return usage();
    }
    const std::uint64_t capacityBytes =
        static_cast<std::uint64_t>(capacityMb) << 20;

    TraceFileReader reader(file, mode);
    reportRecovery(file, reader);
    if (!traceMetaStorageConsistent(reader.meta()))
        std::fprintf(stderr,
                     "cicero_trace: warning: %s was captured with %s "
                     "feature storage but its featureBytes accounting "
                     "assumes fp16-class 2 B/channel — replayed byte "
                     "counts under-count the functional run\n",
                     file,
                     traceStorageModeName(reader.meta().storageMode));

    // Run the stack *before* printing, so stdout carries either one
    // complete JSON object or nothing.
    std::string stats;
    if (stack == "cache") {
        CacheStackConfig cfg;
        cfg.warpWays = warpWays;
        cfg.cache.capacityBytes = capacityBytes;
        stats = statsJson(runCacheStack(fileSource(reader), cfg));
    } else if (stack == "bank") {
        SramBankConfig cfg;
        cfg.numBanks = banks;
        cfg.concurrentRays = rays;
        cfg.featureBytes = reader.meta().featureBytes
                               ? reader.meta().featureBytes
                               : cfg.featureBytes;
        cfg.layout = layout;
        stats = statsJson(runBankStack(fileSource(reader), cfg));
    } else if (stack == "dram") {
        stats = statsJson(runDramStack(fileSource(reader)));
    } else {
        // Accelerator stacks need the capture-time workload summary
        // (version-2 containers); workloadFromTrace throws otherwise.
        TraceWorkloadDescriptor desc = workloadFromTrace(reader);
        if (stack == "gpu") {
            GpuStackConfig cfg;
            cfg.warpWays = warpWays;
            cfg.cache.capacityBytes = capacityBytes;
            stats = statsJson(runGpuStack(fileSource(reader), desc, cfg));
        } else if (stack == "npu") {
            stats = statsJson(runNpuStack(fileSource(reader), desc));
        } else if (stack == "gu") {
            GuStackConfig cfg;
            cfg.gu.banks = banks;
            stats = statsJson(runGuStack(fileSource(reader), desc, cfg));
        } else { // accels: the NeuRex/NGPC baselines
            BaselineStackConfig cfg;
            cfg.bank.numBanks = banks;
            cfg.bank.concurrentRays = rays;
            stats = statsJson(
                runBaselineStack(fileSource(reader), desc, cfg));
        }
    }

    std::printf("{\"meta\": %s,\n \"stats\": %s}\n",
                metaJson(reader).c_str(), stats.c_str());
    return 0;
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

/** Streaming min/max/bytes scan — never materializes the trace. */
struct RangeScan : public TraceSink
{
    std::uint64_t minAddr = ~0ull;
    std::uint64_t maxAddr = 0;
    std::uint64_t bytes = 0;
    std::uint64_t accesses = 0;

    void
    onAccess(const MemAccess &a) override
    {
        minAddr = std::min(minAddr, a.addr);
        maxAddr = std::max(maxAddr, a.addr);
        bytes += a.bytes;
        ++accesses;
    }
};

/** Streaming fixed-bucket address histogram (second pass). */
struct HistogramScan : public TraceSink
{
    static constexpr int kBuckets = 16;
    std::uint64_t base = 0;
    std::uint64_t bucketWidth = 1;
    std::uint64_t hist[kBuckets] = {};

    void
    onAccess(const MemAccess &a) override
    {
        ++hist[(a.addr - base) / bucketWidth];
    }
};

int
cmdStats(const cli::Args &cli)
{
    const char *file = cli.positional(0);
    const TraceReadMode mode = readMode(cli);
    if (!cli.onlyKnownOptions())
        return usage();
    if (!file) {
        std::fprintf(stderr, "stats: missing trace file\n");
        return usage();
    }
    TraceFileReader reader(file, mode);
    reportRecovery(file, reader);

    // Two streaming replays (range, then histogram) keep memory O(1)
    // however long the trace is — the whole point of sink plumbing.
    RangeScan range;
    reader.replay(&range);
    std::uint64_t minAddr = range.minAddr, maxAddr = range.maxAddr,
                  bytes = range.bytes;

    const TraceFileMeta &m = reader.meta();
    std::printf("trace %s\n", file);
    std::printf("  scene=%s encoding=%s model=%s %ux%u threads=%u\n",
                m.scene.c_str(), m.encoding.c_str(), m.model.c_str(),
                m.width, m.height, m.threads);
    // featureBytes distinguishes capture-time feature storage at a
    // glance: fp16-class 2 B/channel captures decompose cleanly.
    if (m.featureBytes % kBytesPerChannel == 0)
        std::printf("  featureBytes=%u (%u channels x %u B, "
                    "fp16-class storage) storage=%s\n",
                    m.featureBytes, m.featureBytes / kBytesPerChannel,
                    kBytesPerChannel,
                    traceStorageModeName(m.storageMode));
    else
        std::printf("  featureBytes=%u (not %u B/channel) storage=%s\n",
                    m.featureBytes, kBytesPerChannel,
                    traceStorageModeName(m.storageMode));
    if (!traceMetaStorageConsistent(m)) {
        if (m.storageMode == TraceStorageMode::Fp32)
            std::printf("  STORAGE MISMATCH: featureBytes assumes "
                        "%u B/channel but the capture-time encoding "
                        "stored fp32 features (featuresFp16() not set) "
                        "— byte accounting under-counts; recapture "
                        "with --fp16 to quantize storage to match\n",
                        kBytesPerChannel);
        else
            std::printf("  STORAGE MISMATCH: storage recorded as %s "
                        "but featureBytes=%u does not decompose into "
                        "%u B channels\n",
                        traceStorageModeName(m.storageMode),
                        m.featureBytes, kBytesPerChannel);
    }
    std::printf("  accesses=%llu rayEnds=%llu flushes=%llu "
                "bytesAccessed=%llu\n",
                static_cast<unsigned long long>(reader.counts().accesses),
                static_cast<unsigned long long>(reader.counts().rayEnds),
                static_cast<unsigned long long>(reader.counts().flushes),
                static_cast<unsigned long long>(bytes));
    std::printf("  file=%llu B payload=%llu B raw-stream=%llu B "
                "ratio=%.1f%%\n",
                static_cast<unsigned long long>(reader.fileBytes()),
                static_cast<unsigned long long>(reader.payloadBytes()),
                static_cast<unsigned long long>(
                    reader.counts().rawStreamBytes()),
                100.0 * reader.compressionRatio());

    // Per-event-type payload accounting: where the encoded bytes go,
    // and how often the writer's elisions fired.
    TraceEventBreakdown ev = reader.eventBreakdown();
    std::printf("  events: access=%llu (%llu B) rayEnd=%llu (%llu B) "
                "flush=%llu (%llu B) checkpoint=%llu (%llu B) "
                "end=%llu B\n",
                static_cast<unsigned long long>(ev.accessEvents),
                static_cast<unsigned long long>(ev.accessBytes),
                static_cast<unsigned long long>(ev.rayEndEvents),
                static_cast<unsigned long long>(ev.rayEndBytes),
                static_cast<unsigned long long>(ev.flushEvents),
                static_cast<unsigned long long>(ev.flushBytes),
                static_cast<unsigned long long>(ev.checkpointEvents),
                static_cast<unsigned long long>(ev.checkpointBytes),
                static_cast<unsigned long long>(ev.terminatorBytes));
    std::printf("  elisions: same-bytes=%llu same-ray=%llu\n",
                static_cast<unsigned long long>(ev.sameBytesElisions),
                static_cast<unsigned long long>(ev.sameRayElisions));

    std::printf("  version=%u workload-summary=%s\n", reader.version(),
                reader.hasWorkloadSummary() ? "yes" : "no");
    if (reader.hasWorkloadSummary()) {
        const TraceWorkloadSummary &w = reader.workloadSummary();
        std::printf("  workload: rays=%llu samples=%llu "
                    "vertexFetches=%llu mlpMacs=%llu\n",
                    static_cast<unsigned long long>(w.rays),
                    static_cast<unsigned long long>(w.samples),
                    static_cast<unsigned long long>(w.vertexFetches),
                    static_cast<unsigned long long>(w.mlpMacs));
        std::printf("  stream-plan: streamed=%llu B random=%llu B "
                    "ritEntries=%llu vertexBytes=%u\n",
                    static_cast<unsigned long long>(w.streamedBytes),
                    static_cast<unsigned long long>(w.randomBytes),
                    static_cast<unsigned long long>(w.ritEntries),
                    w.vertexBytes);
    }

    if (range.accesses > 0) {
        HistogramScan histo;
        histo.base = minAddr;
        std::uint64_t span = maxAddr - minAddr + 1;
        histo.bucketWidth =
            (span + HistogramScan::kBuckets - 1) / HistogramScan::kBuckets;
        reader.replay(&histo);
        std::uint64_t peak = *std::max_element(
            histo.hist, histo.hist + HistogramScan::kBuckets);
        std::printf("  address histogram [0x%llx .. 0x%llx], %llu B "
                    "buckets:\n",
                    static_cast<unsigned long long>(minAddr),
                    static_cast<unsigned long long>(maxAddr),
                    static_cast<unsigned long long>(histo.bucketWidth));
        for (int b = 0; b < HistogramScan::kBuckets; ++b) {
            int bars =
                peak ? static_cast<int>(40 * histo.hist[b] / peak) : 0;
            std::printf("    [%2d] %10llu %.*s\n", b,
                        static_cast<unsigned long long>(histo.hist[b]),
                        bars,
                        "########################################");
        }
    }
    return 0;
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

/** Flattens a replay into a comparable event list. */
struct EventLog : public TraceSink
{
    struct Event
    {
        std::uint8_t kind; // 0 access, 1 rayEnd, 2 flush
        MemAccess access;
        std::uint32_t rayId = 0;

        bool
        operator==(const Event &o) const
        {
            if (kind != o.kind)
                return false;
            if (kind == 0)
                return access.addr == o.access.addr &&
                       access.bytes == o.access.bytes &&
                       access.rayId == o.access.rayId;
            if (kind == 1)
                return rayId == o.rayId;
            return true;
        }
    };

    std::vector<Event> events;

    void
    onAccess(const MemAccess &a) override
    {
        events.push_back(Event{0, a, 0});
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back(Event{1, MemAccess{}, rayId});
    }
    void onFlush() override { events.push_back(Event{2, MemAccess{}, 0}); }
};

std::string
describe(const EventLog::Event &e)
{
    char buf[96];
    if (e.kind == 0)
        std::snprintf(buf, sizeof(buf),
                      "access addr=0x%llx bytes=%u ray=%u",
                      static_cast<unsigned long long>(e.access.addr),
                      e.access.bytes, e.access.rayId);
    else if (e.kind == 1)
        std::snprintf(buf, sizeof(buf), "rayEnd ray=%u", e.rayId);
    else
        std::snprintf(buf, sizeof(buf), "flush");
    return buf;
}

int
cmdDiff(const cli::Args &cli)
{
    const char *fileA = cli.positional(0);
    const char *fileB = cli.positional(1);
    if (!cli.onlyKnownOptions())
        return usage();
    if (!fileA || !fileB) {
        std::fprintf(stderr, "diff: need two trace files\n");
        return usage();
    }

    TraceFileReader readerA(fileA), readerB(fileB);
    EventLog a, b;
    readerA.replay(&a);
    readerB.replay(&b);

    std::size_t n = std::min(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(a.events[i] == b.events[i])) {
            std::printf("traces differ at event %llu:\n  %s: %s\n  %s: "
                        "%s\n",
                        static_cast<unsigned long long>(i), fileA,
                        describe(a.events[i]).c_str(), fileB,
                        describe(b.events[i]).c_str());
            return 1;
        }
    }
    if (a.events.size() != b.events.size()) {
        std::printf("traces differ in length: %s has %llu events, %s has "
                    "%llu\n",
                    fileA,
                    static_cast<unsigned long long>(a.events.size()),
                    fileB,
                    static_cast<unsigned long long>(b.events.size()));
        return 1;
    }
    std::printf("traces identical: %llu events\n",
                static_cast<unsigned long long>(a.events.size()));
    return 0;
}

// ---------------------------------------------------------------------
// recover
// ---------------------------------------------------------------------

int
cmdRecover(const cli::Args &cli)
{
    const char *file = cli.positional(0);
    const char *out = cli.optValueOr("-o", cli.optValue("--out"));
    if (!cli.onlyKnownOptions())
        return usage();
    if (!file) {
        std::fprintf(stderr, "recover: missing trace file\n");
        return usage();
    }

    TraceFileReader reader(file, TraceReadMode::Salvage);
    const TraceRecoveryInfo &r = reader.recovery();
    std::printf("recover %s: %s\n", file,
                r.salvaged ? "damage found, tail dropped"
                           : "file intact, nothing to do");
    std::printf("  kept: accesses=%llu rayEnds=%llu flushes=%llu\n",
                static_cast<unsigned long long>(reader.counts().accesses),
                static_cast<unsigned long long>(reader.counts().rayEnds),
                static_cast<unsigned long long>(reader.counts().flushes));
    if (r.salvaged)
        std::printf("  salvage: events=%llu checkpointsVerified=%llu "
                    "droppedPayloadBytes=%llu\n",
                    static_cast<unsigned long long>(r.keptEvents),
                    static_cast<unsigned long long>(r.checkpointsVerified),
                    static_cast<unsigned long long>(
                        r.droppedPayloadBytes));

    if (out) {
        // Re-encode the recovered prefix as a fresh, clean container
        // (checkpoints and checksums rebuilt by the writer).
        TraceFileWriter writer(out, reader.meta());
        reader.replay(&writer);
        if (reader.hasWorkloadSummary())
            writer.setWorkloadSummary(reader.workloadSummary());
        writer.close();
        std::printf("  rewrote %s: %llu bytes\n", out,
                    static_cast<unsigned long long>(writer.fileBytes()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    const cli::Args cli(argc, argv, 2, "cicero_trace",
                        {"--fp16", "--salvage"});
    cli.applyThreadsOption();
    if (!cli.applyFaultsOption())
        return usage();
    try {
        if (cmd == "capture")
            return cmdCapture(cli);
        if (cmd == "capture-set")
            return cmdCaptureSet(cli);
        if (cmd == "replay")
            return cmdReplay(cli);
        if (cmd == "stats")
            return cmdStats(cli);
        if (cmd == "diff")
            return cmdDiff(cli);
        if (cmd == "recover")
            return cmdRecover(cli);
    } catch (const IoError &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 3;
    } catch (const ParseError &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 5;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
}
