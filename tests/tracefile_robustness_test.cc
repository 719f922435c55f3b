/**
 * @file
 * Robustness tests for the .ctrace container: checkpointed payloads,
 * strict-vs-salvage reads of truncated and corrupted files,
 * deterministic byte-mutation fuzzing of the parser (typed errors
 * only, never a crash or hang), the file backend's atomic-rename
 * guarantee, and the trace read/write fault-injection sites.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/fault.hh"
#include "memory/tracefile.hh"

namespace cicero {
namespace {

TraceFileMeta
syntheticMeta()
{
    TraceFileMeta meta;
    meta.scene = "synthetic";
    meta.encoding = "test-encoding";
    meta.model = "test-model";
    meta.width = 8;
    meta.height = 8;
    meta.threads = 1;
    meta.featureBytes = 32;
    return meta;
}

/** Feed @p events deterministic pseudo-random events into @p sink. */
void
emitEvents(TraceSink &sink, int events)
{
    std::uint64_t addr = 0x10000;
    std::uint32_t ray = 0;
    for (int i = 0; i < events; ++i) {
        MemAccess a;
        a.addr = addr;
        a.bytes = 16u + 16u * (static_cast<std::uint32_t>(i) % 3u);
        a.rayId = ray;
        sink.onAccess(a);
        addr += 64 * ((static_cast<std::uint64_t>(i) * 2654435761ull) %
                          977 +
                      1);
        if (i % 9 == 8) {
            sink.onRayEnd(ray);
            ++ray;
        }
        if (i % 101 == 100)
            sink.onFlush();
    }
}

std::vector<std::uint8_t>
buildTrace(int events, TraceCodec codec)
{
    std::vector<std::uint8_t> buf;
    TraceFileWriter writer(buf, syntheticMeta(), codec);
    emitEvents(writer, events);
    writer.close();
    return buf;
}

/** Flattened replay for prefix comparison. */
struct EventLog : public TraceSink
{
    struct Event
    {
        int kind; // 0 access, 1 rayEnd, 2 flush
        std::uint64_t addr = 0;
        std::uint32_t bytes = 0;
        std::uint32_t ray = 0;

        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && addr == o.addr && bytes == o.bytes &&
                   ray == o.ray;
        }
    };

    std::vector<Event> events;

    void
    onAccess(const MemAccess &a) override
    {
        events.push_back(Event{0, a.addr, a.bytes, a.rayId});
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back(Event{1, 0, 0, rayId});
    }
    void onFlush() override { events.push_back(Event{2, 0, 0, 0}); }
};

TEST(TraceRobustnessTest, CleanFileRoundTripsWithCheckpoints)
{
    for (TraceCodec codec : {TraceCodec::Varint, TraceCodec::Range}) {
        std::vector<std::uint8_t> buf = buildTrace(3000, codec);
        TraceFileReader reader(buf);
        EXPECT_FALSE(reader.recovery().salvaged);
        EXPECT_EQ(reader.version(), kTraceFileVersion);
        EXPECT_EQ(reader.counts().accesses, 3000u);

        // ~3000 access events plus rayEnds/flushes at interval 1024
        // means at least the final checkpoint plus two periodic ones.
        TraceEventBreakdown ev = reader.eventBreakdown();
        EXPECT_GE(ev.checkpointEvents, 3u);
        EXPECT_GT(ev.checkpointBytes, 0u);

        EventLog log;
        reader.replay(&log);
        EXPECT_EQ(log.events.size(),
                  reader.counts().accesses + reader.counts().rayEnds +
                      reader.counts().flushes);
    }
}

TEST(TraceRobustnessTest, TruncationStrictThrowsSalvageRecoversPrefix)
{
    for (TraceCodec codec : {TraceCodec::Varint, TraceCodec::Range}) {
        std::vector<std::uint8_t> buf = buildTrace(3000, codec);
        EventLog full;
        TraceFileReader(buf).replay(&full);

        // Cut points across the whole file, including deep payload
        // truncations and near-complete files.
        for (std::ptrdiff_t keep = static_cast<std::ptrdiff_t>(buf.size()) - 1;
             keep > 16; keep -= 37) {
            std::vector<std::uint8_t> cut(buf.begin(),
                                          buf.begin() + keep);
            // Strict: always a typed error, never garbage events.
            EXPECT_THROW(TraceFileReader{cut}, TraceFileError)
                << "codec " << static_cast<int>(codec) << " keep "
                << keep;

            // Salvage: either the header itself is gone (typed error)
            // or we get a checksum-valid prefix that replays clean.
            try {
                TraceFileReader reader(cut, TraceReadMode::Salvage);
                EXPECT_TRUE(reader.recovery().salvaged);
                EventLog part;
                reader.replay(&part);
                ASSERT_LE(part.events.size(), full.events.size());
                for (std::size_t i = 0; i < part.events.size(); ++i)
                    ASSERT_TRUE(part.events[i] == full.events[i])
                        << "keep " << keep << " event " << i;
            } catch (const TraceFileError &) {
                // Header truncation: salvage cannot help, typed throw.
            }
        }

        // A deep cut that still holds several checkpoints recovers a
        // non-empty prefix — the whole point of salvage mode.
        std::vector<std::uint8_t> half(buf.begin(),
                                       buf.begin() + buf.size() / 2);
        TraceFileReader reader(half, TraceReadMode::Salvage);
        EXPECT_TRUE(reader.recovery().salvaged);
        EXPECT_GT(reader.recovery().keptEvents, 0u);
        EXPECT_GT(reader.recovery().checkpointsVerified, 0u);
    }
}

TEST(TraceRobustnessTest, ByteMutationFuzzThrowsTypedOrParsesClean)
{
    // Deterministic fuzz: every iteration derives its mutations from a
    // seeded LCG, so a failure reproduces exactly. Any outcome is
    // acceptable except a crash, a hang, or an untyped exception.
    for (TraceCodec codec : {TraceCodec::Varint, TraceCodec::Range}) {
        const std::vector<std::uint8_t> clean = buildTrace(1500, codec);
        std::uint64_t rng = 0x9e3779b97f4a7c15ull ^
                            static_cast<std::uint64_t>(codec);
        auto next = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return rng >> 33;
        };

        for (int iter = 0; iter < 300; ++iter) {
            std::vector<std::uint8_t> fuzzed = clean;
            const int flips = 1 + static_cast<int>(next() % 4);
            for (int f = 0; f < flips; ++f) {
                std::size_t pos = next() % fuzzed.size();
                fuzzed[pos] ^= static_cast<std::uint8_t>(1 + next() % 255);
            }

            for (TraceReadMode mode :
                 {TraceReadMode::Strict, TraceReadMode::Salvage}) {
                try {
                    TraceFileReader reader(fuzzed, mode);
                    EventLog log; // survived parsing => must replay
                    reader.replay(&log);
                } catch (const TraceFileError &) {
                    // The typed rejection path — always acceptable.
                }
                // Anything else escapes and fails the test.
            }
        }
    }
}

TEST(TraceRobustnessTest, EveryPayloadBitFlipIsCaughtByCheckpoints)
{
    // A flipped data bit inside a varint leaves the framing intact, so
    // only the checkpoint CRCs can catch it. With the varint codec the
    // stored payload is the event stream itself: flip one bit of every
    // payload byte in turn. Strict reads must reject each one, and
    // salvage must keep a prefix of the clean stream.
    const std::vector<std::uint8_t> clean =
        buildTrace(1500, TraceCodec::Varint);
    EventLog full;
    TraceFileReader(clean).replay(&full);
    const std::size_t payloadStart =
        clean.size() - TraceFileReader(clean).payloadBytes();

    for (std::size_t pos = payloadStart; pos < clean.size(); ++pos) {
        std::vector<std::uint8_t> flipped = clean;
        flipped[pos] ^= 0x01;
        EXPECT_THROW(TraceFileReader{flipped}, TraceFileError)
            << "byte " << pos;

        TraceFileReader reader(flipped, TraceReadMode::Salvage);
        EXPECT_TRUE(reader.recovery().salvaged) << "byte " << pos;
        EventLog part;
        reader.replay(&part);
        ASSERT_LE(part.events.size(), full.events.size());
        for (std::size_t i = 0; i < part.events.size(); ++i)
            ASSERT_TRUE(part.events[i] == full.events[i])
                << "byte " << pos << " event " << i;
    }
}

TEST(TraceRobustnessTest, HeaderCorruptionThrowsInBothModes)
{
    std::vector<std::uint8_t> buf = buildTrace(200, TraceCodec::Varint);
    // Flip a byte inside the header proper (past the 4-byte magic):
    // the header CRC rejects it in strict AND salvage mode — salvage
    // needs trustworthy counts and sizes to cut against.
    buf[9] ^= 0x40;
    EXPECT_THROW(TraceFileReader{buf}, TraceFileError);
    EXPECT_THROW(TraceFileReader(buf, TraceReadMode::Salvage),
                 TraceFileError);
}

TEST(TraceRobustnessTest, FileBackendFinalizesAtomically)
{
    const std::string path =
        testing::TempDir() + "cicero_atomic_test.ctrace";
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmp.c_str());

    {
        TraceFileWriter writer(path, syntheticMeta());
        emitEvents(writer, 500);
        // Mid-write: the destination must not exist yet (a path that
        // exists is the contract for "complete container").
        std::FILE *probe = std::fopen(path.c_str(), "rb");
        EXPECT_EQ(probe, nullptr);
        if (probe)
            std::fclose(probe);
        writer.close();
    }

    // Closed: destination parses, no .tmp litter.
    TraceFileReader reader(path);
    EXPECT_EQ(reader.counts().accesses, 500u);
    std::FILE *left = std::fopen(tmp.c_str(), "rb");
    EXPECT_EQ(left, nullptr);
    if (left)
        std::fclose(left);
    std::remove(path.c_str());
}

TEST(TraceRobustnessTest, InjectedWriteFaultLeavesNoFile)
{
    const std::string path =
        testing::TempDir() + "cicero_write_fault.ctrace";
    std::remove(path.c_str());

    FaultScope scope("trace_write:count=1");
    {
        TraceFileWriter writer(path, syntheticMeta());
        emitEvents(writer, 100);
        EXPECT_THROW(writer.close(), FaultInjectedError);
        // close() is idempotent even after the fault: the destructor's
        // implicit close must not retry (and must not throw).
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "a failed close must not publish a file";
    if (f)
        std::fclose(f);
    std::FILE *t = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(t, nullptr);
    if (t)
        std::fclose(t);
}

TEST(TraceRobustnessTest, InjectedReadAndFlushFaultsAreTyped)
{
    std::vector<std::uint8_t> buf = buildTrace(50, TraceCodec::Varint);
    {
        FaultScope scope("trace_read:count=1");
        EXPECT_THROW(TraceFileReader{buf}, FaultInjectedError);
        // Window exhausted: the very next read succeeds.
        EXPECT_NO_THROW(TraceFileReader{buf});
    }
    {
        FaultScope scope("trace_flush:count=1");
        std::vector<std::uint8_t> out;
        TraceFileWriter writer(out, syntheticMeta());
        EXPECT_THROW(writer.onFlush(), FaultInjectedError);
    }
}

TEST(TraceRobustnessTest, MissingFileIsAnIoErrorWithPath)
{
    const std::string path = testing::TempDir() + "cicero_no_such.ctrace";
    std::remove(path.c_str());
    try {
        TraceFileReader reader(path);
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_EQ(e.path(), path);
        EXPECT_NE(e.errnum(), 0);
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
}

} // namespace
} // namespace cicero
