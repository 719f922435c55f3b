/**
 * @file
 * Tests for the trace persistence subsystem: container round-trips
 * (capture → write → read → replay byte-identical to the live stream)
 * across encodings and thread counts; compression-ratio and
 * error-path guarantees; and live-vs-replayed memory-model statistics
 * (the capture-once / replay-many contract).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accel_replay.hh"
#include "common/parallel.hh"
#include "memory/replay.hh"
#include "memory/tracefile.hh"
#include "nerf/models.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/** Records the full event stream for exact comparison. */
struct EventRecorder : public TraceSink
{
    std::vector<std::string> events;

    void
    onAccess(const MemAccess &a) override
    {
        events.push_back("A" + std::to_string(a.addr) + ":" +
                         std::to_string(a.bytes) + ":r" +
                         std::to_string(a.rayId));
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back("E" + std::to_string(rayId));
    }
    void onFlush() override { events.push_back("F"); }
};

// ---------------------------------------------------------------------
// Round-trip byte identity
// ---------------------------------------------------------------------

TEST(TraceFileTest, RoundTripByteIdentityAcrossEncodingsAndThreads)
{
    // The core contract: capture → write → read → replay reproduces
    // the live serial stream exactly, for all three encodings (hash
    // grid, dense grid, TensoRF), at 1 and N threads.
    ThreadCountGuard guard;
    const int res = 24;
    Scene scene = test::tinyScene();

    const ModelKind kinds[] = {ModelKind::InstantNgp,
                               ModelKind::DirectVoxGO,
                               ModelKind::TensoRF};
    for (ModelKind kind : kinds) {
        auto model = buildModel(kind, scene);
        Camera cam = test::tinyCamera(res);

        setParallelThreadCount(1);
        EventRecorder live;
        model->traceWorkload(cam, &live);
        ASSERT_FALSE(live.events.empty());

        for (int threads : {1, 4}) {
            setParallelThreadCount(threads);
            std::vector<std::uint8_t> ctrace;
            {
                TraceFileWriter writer(ctrace, captureMeta(*model, cam));
                model->traceWorkload(cam, &writer);
                writer.close();
            }

            TraceFileReader reader(ctrace);
            EventRecorder replayed;
            reader.replay(&replayed);
            EXPECT_EQ(live.events, replayed.events)
                << modelName(kind) << " threads=" << threads;
        }
    }
}

TEST(TraceFileTest, ReaderReplaysRepeatedly)
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
    EventRecorder first, second;
    reader.replay(&first);
    reader.replay(&second);
    EXPECT_EQ(first.events, second.events);
}

TEST(TraceFileTest, EventBreakdownBytesSumToPayload)
{
    // Every payload byte belongs to one event class: access + rayEnd +
    // flush + checkpoint + terminator bytes add up to the payload the
    // container stores.
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
    const TraceFileReader reader(ctrace);
    const TraceEventBreakdown ev = reader.eventBreakdown();
    EXPECT_GT(ev.checkpointEvents, 1u); // periodic ones and the last
    EXPECT_EQ(ev.accessBytes + ev.rayEndBytes + ev.flushBytes +
                  ev.checkpointBytes + ev.terminatorBytes,
              reader.payloadBytes());
}

// ---------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------

TEST(TraceFileTest, CompressedTraceIsAtMostQuarterOfRawStream)
{
    // Acceptance bound: the .ctrace is <= 25% of the raw
    // sizeof(MemAccess)-stream size on the quickstart scene + model
    // (lego / DirectVoxGO), through the workload walk every capture
    // writes.
    Scene scene = makeScene("lego");
    auto model = buildModel(ModelKind::DirectVoxGO, scene);
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    Camera cam =
        Camera::fromFov(48, 48, scene.fovYDeg, orbitTrajectory(orbit, 1)[0]);

    std::vector<std::uint8_t> ctrace;
    {
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        model->traceWorkload(cam, &writer);
        writer.close();
    }
    TraceFileReader reader(ctrace);
    ASSERT_GT(reader.counts().accesses, 0u);
    EXPECT_LE(reader.compressionRatio(), 0.25);
}

// ---------------------------------------------------------------------
// Container metadata & synthetic streams
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
syntheticContainer()
{
    TraceFileMeta meta;
    meta.scene = "synthetic";
    meta.encoding = "none";
    meta.model = "unit-test";
    meta.width = 4;
    meta.height = 2;
    meta.threads = 3;
    meta.featureBytes = 16;

    std::vector<std::uint8_t> out;
    TraceFileWriter writer(out, meta);
    writer.onAccess(MemAccess{4096, 64, 0});
    writer.onAccess(MemAccess{4160, 64, 0});
    writer.onRayEnd(0);
    writer.onAccess(MemAccess{1 << 20, 32, 7});
    writer.onRayEnd(7);
    writer.onFlush();
    writer.close();
    return out;
}

TEST(TraceFileTest, MetadataAndCountsRoundTrip)
{
    std::vector<std::uint8_t> buf = syntheticContainer();
    TraceFileReader reader(buf);
    EXPECT_EQ(reader.meta().scene, "synthetic");
    EXPECT_EQ(reader.meta().encoding, "none");
    EXPECT_EQ(reader.meta().model, "unit-test");
    EXPECT_EQ(reader.meta().width, 4u);
    EXPECT_EQ(reader.meta().height, 2u);
    EXPECT_EQ(reader.meta().threads, 3u);
    EXPECT_EQ(reader.meta().featureBytes, 16u);
    // Default-constructed meta: no storage mode recorded.
    EXPECT_EQ(reader.meta().storageMode, TraceStorageMode::Unknown);
    EXPECT_EQ(reader.counts().accesses, 3u);
    EXPECT_EQ(reader.counts().rayEnds, 2u);
    EXPECT_EQ(reader.counts().flushes, 1u);
    EXPECT_EQ(reader.counts().rawStreamBytes(), 3 * sizeof(MemAccess));
    EXPECT_EQ(reader.fileBytes(), buf.size());

    EventRecorder rec;
    reader.replay(&rec);
    std::vector<std::string> expect = {"A4096:64:r0", "A4160:64:r0",
                                       "E0", "A1048576:32:r7", "E7",
                                       "F"};
    EXPECT_EQ(rec.events, expect);
}

TEST(TraceFileTest, StorageModeRoundTripsAndFlagsMismatch)
{
    // The capture-time feature-storage mode travels in the header byte
    // that used to be reserved, and the consistency helper ties the
    // 2 B/channel featureBytes accounting to it: only fp16-quantized
    // captures (featuresFp16() set) are faithfully accounted; legacy
    // files (byte = 0) are vacuously consistent.
    for (TraceStorageMode mode :
         {TraceStorageMode::Unknown, TraceStorageMode::Fp32,
          TraceStorageMode::Fp16}) {
        TraceFileMeta meta;
        meta.scene = "synthetic";
        meta.featureBytes = 18; // 9 channels x 2 B
        meta.storageMode = mode;

        std::vector<std::uint8_t> buf;
        TraceFileWriter writer(buf, meta);
        writer.onAccess(MemAccess{64, 16, 0});
        writer.close();

        TraceFileReader reader(buf);
        EXPECT_EQ(reader.meta().storageMode, mode);
        EXPECT_EQ(traceMetaStorageConsistent(reader.meta()),
                  mode != TraceStorageMode::Fp32);
    }

    EXPECT_STREQ(traceStorageModeName(TraceStorageMode::Unknown),
                 "unknown");
    EXPECT_STREQ(traceStorageModeName(TraceStorageMode::Fp32), "fp32");
    EXPECT_STREQ(traceStorageModeName(TraceStorageMode::Fp16), "fp16");

    // An unrecognized byte value (a future mode) degrades to Unknown
    // instead of poisoning the parse.
    TraceFileMeta meta;
    meta.storageMode = static_cast<TraceStorageMode>(250);
    std::vector<std::uint8_t> buf;
    TraceFileWriter writer(buf, meta);
    writer.close();
    TraceFileReader reader(buf);
    EXPECT_EQ(reader.meta().storageMode, TraceStorageMode::Unknown);
}

TEST(TraceFileTest, QuantizedEncodingTagsCaptureFp16)
{
    // End-to-end: the header captureMeta builds for a capture over an
    // fp16-quantized encoding records Fp16 and is consistent; the same
    // capture without quantization records Fp32 and is flagged.
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();

    auto capture = [&](TraceStorageMode tagged) {
        Camera cam = test::tinyCamera(12);
        TraceFileMeta meta = captureMeta(*model, cam);
        EXPECT_EQ(meta.storageMode, tagged);
        std::vector<std::uint8_t> buf;
        TraceFileWriter writer(buf, meta);
        model->traceWorkload(cam, &writer);
        writer.close();
        return buf;
    };

    std::vector<std::uint8_t> fp32Buf = capture(TraceStorageMode::Fp32);
    EXPECT_FALSE(traceMetaStorageConsistent(
        TraceFileReader(fp32Buf).meta()));

    model->encoding().quantizeFeaturesFp16();
    ASSERT_TRUE(model->encoding().featuresFp16());
    std::vector<std::uint8_t> fp16Buf = capture(TraceStorageMode::Fp16);
    EXPECT_TRUE(traceMetaStorageConsistent(
        TraceFileReader(fp16Buf).meta()));
}

TEST(TraceFileTest, EmptyTraceAndRepeatedFlushesRoundTrip)
{
    TraceFileMeta meta;
    std::vector<std::uint8_t> buf;
    {
        TraceFileWriter writer(buf, meta);
        writer.onFlush();
        writer.onFlush();
        writer.close();
    }
    TraceFileReader reader(buf);
    EXPECT_EQ(reader.counts().accesses, 0u);
    EXPECT_EQ(reader.counts().flushes, 2u);
    EventRecorder rec;
    reader.replay(&rec);
    EXPECT_EQ(rec.events, (std::vector<std::string>{"F", "F"}));
}

TEST(TraceFileTest, FileAndMemoryBackendsProduceIdenticalContainers)
{
    std::vector<std::uint8_t> memory = syntheticContainer();

    const std::string path = "tracefile_test_tmp.ctrace";
    {
        TraceFileMeta meta;
        meta.scene = "synthetic";
        meta.encoding = "none";
        meta.model = "unit-test";
        meta.width = 4;
        meta.height = 2;
        meta.threads = 3;
        meta.featureBytes = 16;
        TraceFileWriter writer(path, meta);
        writer.onAccess(MemAccess{4096, 64, 0});
        writer.onAccess(MemAccess{4160, 64, 0});
        writer.onRayEnd(0);
        writer.onAccess(MemAccess{1 << 20, 32, 7});
        writer.onRayEnd(7);
        writer.onFlush();
        writer.close();
    }

    // The on-disk bytes equal the memory container bit for bit, and
    // the file reader sees the same trace.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<std::uint8_t> disk;
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        disk.insert(disk.end(), chunk, chunk + n);
    std::fclose(f);
    EXPECT_EQ(disk, memory);

    TraceFileReader reader(path);
    EventRecorder fromFile, fromMemory;
    reader.replay(&fromFile);
    TraceFileReader(memory).replay(&fromMemory);
    EXPECT_EQ(fromFile.events, fromMemory.events);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Format stability across commits
// ---------------------------------------------------------------------

/**
 * FNV-1a 64-bit digest. Not CRC32: the header ends with its own CRC32,
 * which leaves a CRC32 register at a constant residue, so a
 * whole-container CRC32 cannot see any header change.
 */
std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

TEST(TraceFileTest, ContainerBytesMatchRecordedGolden)
{
    // Round trips cannot see a format drift that writer and reader
    // share, so a fixed synthetic stream is pinned to the length and
    // digest of its containers. The stream repeats and changes access
    // size and ray id (backwards too), moves addresses both ways, ends
    // rays, flushes mid-stream and holds 1,652 events, so a mid-stream
    // checkpoint is written. A change here is a container-format
    // change: it needs a new kTraceFileVersion. The event breakdown of
    // the stream is pinned too.
    struct Golden
    {
        bool workload;
        std::size_t bytes;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {false, 7188, 10315965122330372734ull},
        {true, 7288, 9294750394777283708ull},
    };
    for (const Golden &g : goldens) {
        TraceFileMeta meta;
        meta.scene = "golden";
        meta.encoding = "synthetic";
        meta.model = "none";
        meta.width = 40;
        meta.height = 30;
        meta.threads = 1;
        meta.featureBytes = 16;
        meta.storageMode = TraceStorageMode::Fp16;

        std::vector<std::uint8_t> buf;
        TraceFileWriter writer(buf, meta);
        for (std::uint32_t i = 0; i < 1500; ++i) {
            const std::uint32_t ray = (i / 10) ^ 3;
            const std::uint64_t addr = (i * 2654435761ull) % (1u << 22);
            writer.onAccess(MemAccess{addr, i % 7 == 0 ? 32u : 64u, ray});
            if (i % 10 == 9)
                writer.onRayEnd(ray);
            if (i == 777)
                writer.onFlush();
        }
        writer.onFlush();
        if (g.workload) {
            TraceWorkloadSummary w;
            w.rays = 150;
            w.samples = 1500;
            w.indexOps = 12000;
            w.vertexFetches = 12001;
            w.gatherBytes = 192016;
            w.interpOps = 24000;
            w.mlpMacs = 987654321;
            w.compositeOps = 4500;
            w.streamedBytes = 1u << 20;
            w.randomBytes = 77777;
            w.ritEntries = 321;
            w.ritBytes = 2568;
            w.vertexBytes = 16;
            writer.setWorkloadSummary(w);
        }
        writer.close();

        SCOPED_TRACE(testing::Message()
                     << (g.workload ? "with" : "without")
                     << " workload summary");
        EXPECT_EQ(buf.size(), g.bytes);
        EXPECT_EQ(fnv1a64(buf), g.digest);
        // The byte fields of the event breakdown sum to the payload
        // (7,097 B).
        const TraceEventBreakdown ev = TraceFileReader(buf).eventBreakdown();
        EXPECT_EQ((std::vector<std::uint64_t>{
                      ev.accessEvents, ev.accessBytes, ev.rayEndEvents,
                      ev.rayEndBytes, ev.flushEvents, ev.flushBytes,
                      ev.checkpointEvents, ev.checkpointBytes,
                      ev.terminatorBytes, ev.sameBytesElisions,
                      ev.sameRayElisions}),
                  (std::vector<std::uint64_t>{1500, 6778, 150, 300, 2, 2,
                                              2, 16, 1, 1070, 1350}));
    }
}

TEST(TraceFileTest, RejectsBadMagic)
{
    std::vector<std::uint8_t> buf = syntheticContainer();
    buf[0] = 'X';
    EXPECT_THROW(TraceFileReader{buf}, std::runtime_error);
}

TEST(TraceFileTest, RejectsVersionMismatch)
{
    // Only the current container version parses. The pre-checksum
    // versions 1 and 2, the two-codec version 3 and every newer
    // version are refused by the version check itself (not by a later
    // checksum), in both modes.
    for (int version : {1, 2, 3, 5, 99}) {
        std::vector<std::uint8_t> buf = syntheticContainer();
        buf[4] = static_cast<std::uint8_t>(version); // follows the magic
        buf[5] = 0;
        for (TraceReadMode mode :
             {TraceReadMode::Strict, TraceReadMode::Salvage}) {
            try {
                TraceFileReader reader(buf, mode);
                ADD_FAILURE() << "version " << version << " accepted";
            } catch (const TraceFileError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "unsupported trace-file version"),
                          std::string::npos)
                    << "version " << version << ": " << e.what();
            }
        }
    }
}

TEST(TraceFileTest, RejectsTruncatedFiles)
{
    std::vector<std::uint8_t> buf = syntheticContainer();
    // Truncation anywhere — inside the header or the payload — must
    // throw, never crash or replay a partial stream.
    for (std::size_t keep : {std::size_t(3), std::size_t(10),
                             std::size_t(30), buf.size() - 1}) {
        std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + keep);
        EXPECT_THROW(TraceFileReader{cut}, std::runtime_error)
            << "kept " << keep << " bytes";
    }
}

TEST(TraceFileTest, MissingFileThrows)
{
    EXPECT_THROW(TraceFileReader("does_not_exist.ctrace"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Live vs replayed memory-model statistics
// ---------------------------------------------------------------------

TEST(TraceFileTest, ReplayedStatsJsonBitIdenticalToLive)
{
    // The headline guarantee: sweeping a memory model over a persisted
    // trace produces *bit-identical* stats JSON to running it live
    // against the renderer.
    ThreadCountGuard guard;
    setParallelThreadCount(2);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(32);

    TraceSourceFn live = [&](TraceSink *sink) {
        model->traceWorkload(cam, sink);
    };

    std::vector<std::uint8_t> ctrace;
    {
        TraceFileWriter writer(ctrace, captureMeta(*model, cam));
        model->traceWorkload(cam, &writer);
        writer.close();
    }
    TraceFileReader reader(ctrace);

    EXPECT_EQ(statsJson(runCacheStack(live)),
              statsJson(runCacheStack(fileSource(reader))));

    SramBankConfig bank;
    bank.featureBytes = reader.meta().featureBytes;
    EXPECT_EQ(statsJson(runBankStack(live, bank)),
              statsJson(runBankStack(fileSource(reader), bank)));

    EXPECT_EQ(statsJson(runDramStack(live)),
              statsJson(runDramStack(fileSource(reader))));
}

} // namespace
} // namespace cicero
