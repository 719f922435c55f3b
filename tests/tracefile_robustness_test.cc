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
buildTrace(int events)
{
    std::vector<std::uint8_t> buf;
    TraceFileWriter writer(buf, syntheticMeta());
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
    std::vector<std::uint8_t> buf = buildTrace(3000);
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

TEST(TraceRobustnessTest, TruncationStrictThrowsSalvageRecoversPrefix)
{
    std::vector<std::uint8_t> buf = buildTrace(3000);
    EventLog full;
    TraceFileReader(buf).replay(&full);

    // Cut points across the whole file, including deep payload
    // truncations and near-complete files.
    for (std::ptrdiff_t keep = static_cast<std::ptrdiff_t>(buf.size()) - 1;
         keep > 16; keep -= 37) {
        std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + keep);
        // Strict: always a typed error, never garbage events.
        EXPECT_THROW(TraceFileReader{cut}, TraceFileError)
            << "keep " << keep;

        // Salvage: either the header itself is gone (typed error) or
        // we get a checksum-valid prefix that replays clean.
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

TEST(TraceRobustnessTest, ByteMutationFuzzThrowsTypedOrParsesClean)
{
    // Deterministic fuzz: every iteration derives its mutations from a
    // seeded LCG, so a failure reproduces exactly. Any outcome is
    // acceptable except a crash, a hang, or an untyped exception.
    const std::vector<std::uint8_t> clean = buildTrace(1500);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
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

TEST(TraceRobustnessTest, EveryPayloadBitFlipIsCaughtByCheckpoints)
{
    // A flipped data bit inside a varint leaves the framing intact, so
    // only the checkpoint CRCs can catch it. Flip one bit of every
    // payload byte in turn. Strict reads must reject each one, and
    // salvage must keep a prefix of the clean stream.
    const std::vector<std::uint8_t> clean = buildTrace(1500);
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
    std::vector<std::uint8_t> buf = buildTrace(200);
    // Flip a byte inside the header proper (past the 4-byte magic):
    // the header CRC rejects it in strict AND salvage mode — salvage
    // needs trustworthy counts and sizes to cut against.
    buf[9] ^= 0x40;
    EXPECT_THROW(TraceFileReader{buf}, TraceFileError);
    EXPECT_THROW(TraceFileReader(buf, TraceReadMode::Salvage),
                 TraceFileError);
}

/** CRC32 (IEEE 802.3), bitwise: re-seals a rewritten header. */
std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

/** Overwrite @p bytes bytes at @p pos with @p v, little-endian. */
void
putLe(std::vector<std::uint8_t> &buf, std::size_t pos, std::uint64_t v,
      std::size_t bytes)
{
    for (std::size_t i = 0; i < bytes; ++i)
        buf[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(TraceRobustnessTest, ForgedHeaderSizesThrowInBothModes)
{
    // A header whose CRC checks out can still lie. Forge the payload
    // length far past what the event counts allow, then the access
    // count far past what the payload can hold, re-sealing the header
    // CRC each time: both are rejected as implausible before the
    // payload is walked, so salvage cannot mistake a forgery for a
    // truncated capture.
    const std::vector<std::uint8_t> clean = buildTrace(200);
    const std::uint64_t payloadBytes = TraceFileReader(clean).payloadBytes();
    const std::size_t headerEnd = clean.size() - payloadBytes;
    // Header layout: magic, u16 version, u8 storage mode, three
    // length-prefixed strings, four u32 fields, then the u64 access
    // count; it ends with the u64 payload length and the u32 CRC.
    const TraceFileMeta meta = syntheticMeta();
    const std::size_t accessesPos = 4 + 2 + 1 + 3 * 4 + meta.scene.size() +
                                    meta.encoding.size() +
                                    meta.model.size() + 4 * 4;
    const std::size_t payloadLenPos = headerEnd - 12;
    const std::size_t crcPos = headerEnd - 4;
    // The offsets hold the true values: rewriting them changes nothing.
    std::vector<std::uint8_t> same = clean;
    putLe(same, accessesPos, 200, 8);
    putLe(same, payloadLenPos, payloadBytes, 8);
    ASSERT_EQ(same, clean);

    struct Forgery
    {
        const char *name;
        std::size_t pos;
        std::uint64_t value;
    };
    const Forgery forgeries[] = {
        {"payload length", payloadLenPos, 1ull << 40},
        {"access count", accessesPos, 1ull << 60},
    };
    for (const Forgery &f : forgeries) {
        std::vector<std::uint8_t> forged = clean;
        putLe(forged, f.pos, f.value, 8);
        putLe(forged, crcPos, crc32(forged.data(), crcPos), 4);
        for (TraceReadMode mode :
             {TraceReadMode::Strict, TraceReadMode::Salvage}) {
            try {
                TraceFileReader reader(forged, mode);
                ADD_FAILURE() << f.name << " forgery accepted";
            } catch (const TraceFileError &e) {
                EXPECT_NE(std::string(e.what()).find("implausible"),
                          std::string::npos)
                    << f.name << ": " << e.what();
            }
        }
    }
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
    std::vector<std::uint8_t> buf = buildTrace(50);
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
