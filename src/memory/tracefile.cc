#include "memory/tracefile.hh"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/fault.hh"

namespace cicero {

namespace {

// ---------------------------------------------------------------------
// Event framing
//
// Each event starts with a tag byte. The low 2 bits are the event
// type; access events use two more bits to elide fields that repeat
// the previous event's value (the common case by far).
// ---------------------------------------------------------------------

constexpr std::uint8_t kEvAccess = 0;
constexpr std::uint8_t kEvRayEnd = 1;
constexpr std::uint8_t kEvFlush = 2;
constexpr std::uint8_t kEvEnd = 3; //!< stream terminator
constexpr std::uint8_t kFlagSameBytes = 1u << 2;
constexpr std::uint8_t kFlagSameRay = 1u << 3;

//! Checkpoint: the terminator type with bit 2 set, followed by
//! varint(cumulative event count) + varint(section CRC32).
constexpr std::uint8_t kFlagCheckpoint = 1u << 2;
constexpr std::uint8_t kEvCheckpoint = kEvEnd | kFlagCheckpoint;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven) — the per-section
// payload checksums and the header checksum.
// ---------------------------------------------------------------------

struct Crc32Table
{
    std::uint32_t t[256];

    Crc32Table()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n,
      std::uint32_t seed = 0)
{
    static const Crc32Table table;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table.t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

// ---------------------------------------------------------------------
// Container header serialization
// ---------------------------------------------------------------------

constexpr char kMagic[4] = {'C', 'T', 'R', 'C'};

/** Appends header fields little-endian; see headerFields(). */
struct HeaderWriter
{
    std::vector<std::uint8_t> &out;

    template <class T>
    void
    field(T v)
    {
        static_assert(std::is_integral_v<T>);
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    field(const std::string &s)
    {
        field(static_cast<std::uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }

    template <class... T>
    void
    operator()(const T &...v)
    {
        (field(v), ...);
    }
};

/** Bounds-checked cursor over a parsed container. */
struct Cursor
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    void
    need(std::size_t n) const
    {
        if (size - pos < n)
            throw TraceFileError("truncated trace file");
    }

    template <class T>
    void
    field(T &v)
    {
        static_assert(std::is_integral_v<T>);
        need(sizeof(T));
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            x |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
        pos += sizeof(T);
        v = static_cast<T>(x);
    }

    void
    field(std::string &s)
    {
        std::uint32_t n = 0;
        field(n);
        need(n);
        s.assign(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
    }

    template <class... T>
    void
    operator()(T &...v)
    {
        (field(v), ...);
    }

    template <class T>
    T
    get()
    {
        T v{};
        field(v);
        return v;
    }
};

/**
 * The header fields from scene through the workload summary, in file
 * order: the one list TraceFileWriter::close() writes through a
 * HeaderWriter and TraceFileReader::parse() reads through a Cursor.
 * Each field's C++ type sets its encoding: u32 / u64 little-endian,
 * bool as one byte, string as u32 length + bytes.
 */
template <class Io>
void
headerFields(Io &io, TraceFileMeta &meta, TraceFileCounts &counts,
             bool &hasWorkload, TraceWorkloadSummary &w)
{
    io(meta.scene, meta.encoding, meta.model, meta.width, meta.height,
       meta.threads, meta.featureBytes, counts.accesses, counts.rayEnds,
       counts.flushes, hasWorkload);
    if (hasWorkload)
        io(w.rays, w.samples, w.indexOps, w.vertexFetches, w.gatherBytes,
           w.interpOps, w.mlpMacs, w.compositeOps, w.streamedBytes,
           w.randomBytes, w.ritEntries, w.ritBytes, w.vertexBytes);
}

// ---------------------------------------------------------------------
// Event decoding
// ---------------------------------------------------------------------

/** One payload event, as EventDecoder::next() returns it. */
struct DecodedEvent
{
    /**
     * kEvAccess (elision flags stripped), kEvRayEnd, kEvFlush,
     * kEvCheckpoint or kEvEnd.
     */
    std::uint8_t kind = kEvEnd;
    bool sameBytes = false; //!< access size elided (repeats the last)
    bool sameRay = false;   //!< ray id elided (repeats the last)
    /**
     * Running address, size and ray id after this event: the access
     * itself for kEvAccess, the ended ray in rayId for kEvRayEnd.
     */
    MemAccess access;
    std::uint64_t checkpointEvents = 0; //!< kEvCheckpoint: cumulative count
    std::uint64_t checkpointCrc = 0;    //!< kEvCheckpoint: stored CRC32
    std::size_t start = 0; //!< byte span [start, end) in the payload
    std::size_t end = 0;
};

/**
 * The one reader of the event grammar: tag bytes, elision flags,
 * zigzag deltas, checkpoints and the terminator. Validation, the byte
 * breakdown and replay are each a loop over next().
 */
class EventDecoder
{
  public:
    EventDecoder(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    /**
     * Decode the event at the cursor and step past it. Forced inline
     * into each loop: replay's per-event cost is a share of every DSE
     * sweep point.
     *
     * @throws TraceFileError on an invalid tag, a truncated or
     *         overlong varint, or a stream that ends unterminated.
     */
    [[gnu::always_inline]] inline DecodedEvent
    next()
    {
        auto varint = [this] {
            std::uint64_t v = 0;
            int shift = 0;
            for (;;) {
                if (_pos >= _size)
                    throw TraceFileError(
                        "corrupt trace payload: truncated varint");
                std::uint8_t b = _data[_pos++];
                v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
                if (!(b & 0x80))
                    return v;
                shift += 7;
                if (shift >= 64)
                    throw TraceFileError(
                        "corrupt trace payload: varint overflow");
            }
        };
        // Unsigned, so deltas wrap modulo 2^64 (addresses) and 2^32
        // (ray ids) instead of overflowing on a corrupt payload.
        auto delta = [&] {
            return static_cast<std::uint64_t>(unzigzag(varint()));
        };

        if (_pos >= _size)
            throw TraceFileError(
                "corrupt trace payload: missing stream terminator");
        DecodedEvent e;
        e.start = _pos;
        const std::uint8_t tag = _data[_pos++];
        e.kind = tag;
        switch (tag) {
          case kEvAccess:
          case kEvAccess | kFlagSameBytes:
          case kEvAccess | kFlagSameRay:
          case kEvAccess | kFlagSameBytes | kFlagSameRay:
            e.kind = kEvAccess;
            e.sameBytes = tag & kFlagSameBytes;
            e.sameRay = tag & kFlagSameRay;
            _last.addr += delta();
            if (!e.sameBytes)
                _last.bytes = static_cast<std::uint32_t>(varint());
            if (!e.sameRay)
                _last.rayId =
                    static_cast<std::uint32_t>(_last.rayId + delta());
            break;
          case kEvRayEnd:
            _last.rayId = static_cast<std::uint32_t>(_last.rayId + delta());
            break;
          case kEvFlush:
          case kEvEnd:
            break;
          case kEvCheckpoint:
            e.checkpointEvents = varint();
            e.checkpointCrc = varint();
            break;
          default:
            throw TraceFileError(
                "corrupt trace payload: invalid event tag");
        }
        e.access = _last;
        e.end = _pos;
        return e;
    }

  private:
    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    MemAccess _last; //!< running address, size and ray id
};

/**
 * Whether a payload of @p payloadBytes can honestly hold the events the
 * header counts: at least one byte per event plus the terminator, at
 * most their worst-case encodings plus checkpoint overhead
 * (saturating). Anything outside is a forged header, rejected in every
 * read mode before the payload is walked.
 */
bool
payloadSizePlausible(const TraceFileCounts &counts,
                     std::uint64_t payloadBytes)
{
    auto satMul = [](std::uint64_t a, std::uint64_t b) {
        if (a != 0 && b > UINT64_MAX / a)
            return UINT64_MAX;
        return a * b;
    };
    auto satAdd = [](std::uint64_t a, std::uint64_t b) {
        return a > UINT64_MAX - b ? UINT64_MAX : a + b;
    };
    const std::uint64_t events = satAdd(
        satAdd(counts.accesses, counts.rayEnds), counts.flushes);
    // Worst case per event: access = tag + 10B addr delta + 5B bytes +
    // 10B ray delta; rayEnd = tag + 10B delta; flush = tag.
    std::uint64_t most = satMul(counts.accesses, 26);
    most = satAdd(most, satMul(counts.rayEnds, 11));
    most = satAdd(most, counts.flushes);
    // Checkpoints: one per interval plus the final one, each at most
    // tag + 10B count + 5B crc; plus terminator and slack.
    most = satAdd(most, satMul(events / kTraceCheckpointInterval + 2, 16));
    most = satAdd(most, 64);
    return payloadBytes > events && payloadBytes <= most;
}

} // namespace

const char *
traceStorageModeName(TraceStorageMode mode)
{
    switch (mode) {
      case TraceStorageMode::Fp32:
        return "fp32";
      case TraceStorageMode::Fp16:
        return "fp16";
      case TraceStorageMode::Unknown:
        break;
    }
    return "unknown";
}

bool
traceMetaStorageConsistent(const TraceFileMeta &meta)
{
    switch (meta.storageMode) {
      case TraceStorageMode::Fp16:
        // 2 B/channel accounting must decompose into whole channels.
        return meta.featureBytes % 2 == 0;
      case TraceStorageMode::Fp32:
        // The trace's featureBytes assumes fp16-class storage, but the
        // capture-time encoding held 4-byte floats.
        return false;
      case TraceStorageMode::Unknown:
        break;
    }
    return true; // nothing recorded, nothing to check
}

// ---------------------------------------------------------------------
// TraceFileWriter
// ---------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const TraceFileMeta &meta)
    : _meta(meta), _path(path)
{
}

TraceFileWriter::TraceFileWriter(std::vector<std::uint8_t> &buffer,
                                 const TraceFileMeta &meta)
    : _meta(meta), _memoryOut(&buffer)
{
    _memoryOut->clear();
}

TraceFileWriter::~TraceFileWriter()
{
    try {
        close();
    } catch (...) {
        // A destructor cannot report the failure; explicit close()
        // callers get the exception.
    }
}

void
TraceFileWriter::putVarint(std::uint64_t v)
{
    appendVarint(_payload, v);
}

void
TraceFileWriter::putSignedDelta(std::int64_t d)
{
    appendVarint(_payload, zigzag(d));
}

void
TraceFileWriter::noteEvent()
{
    ++_eventCount;
    if (++_eventsSinceCheckpoint >= kTraceCheckpointInterval)
        emitCheckpoint();
}

/**
 * Seal the payload section since the previous checkpoint under a CRC.
 * The checkpoint event itself starts the next section.
 */
void
TraceFileWriter::emitCheckpoint()
{
    std::uint32_t crc = crc32(_payload.data() + _checkpointStart,
                              _payload.size() - _checkpointStart);
    _payload.push_back(kEvCheckpoint);
    putVarint(_eventCount);
    putVarint(crc);
    _checkpointStart = _payload.size();
    _eventsSinceCheckpoint = 0;
}

void
TraceFileWriter::onAccess(const MemAccess &access)
{
    std::uint8_t tag = kEvAccess;
    bool sameBytes = _haveBytes && access.bytes == _lastBytes;
    bool sameRay = access.rayId == _lastRay;
    if (sameBytes)
        tag |= kFlagSameBytes;
    if (sameRay)
        tag |= kFlagSameRay;

    _payload.push_back(tag);
    putSignedDelta(static_cast<std::int64_t>(access.addr - _lastAddr));
    if (!sameBytes)
        putVarint(access.bytes);
    if (!sameRay)
        putSignedDelta(static_cast<std::int64_t>(access.rayId) -
                       static_cast<std::int64_t>(_lastRay));

    _lastAddr = access.addr;
    _lastBytes = access.bytes;
    _lastRay = access.rayId;
    _haveBytes = true;
    ++_counts.accesses;
    noteEvent();
}

void
TraceFileWriter::onRayEnd(std::uint32_t rayId)
{
    _payload.push_back(kEvRayEnd);
    putSignedDelta(static_cast<std::int64_t>(rayId) -
                   static_cast<std::int64_t>(_lastRay));
    _lastRay = rayId;
    ++_counts.rayEnds;
    noteEvent();
}

void
TraceFileWriter::onFlush()
{
    faultCheck(FaultSite::TraceFlush);
    _payload.push_back(kEvFlush);
    ++_counts.flushes;
    noteEvent();
}

void
TraceFileWriter::close()
{
    if (_closed)
        return;
    _closed = true;

    // Final checkpoint seals the tail section, so salvage can recover
    // every event of a file whose only damage is past the payload.
    emitCheckpoint();
    _payload.push_back(kEvEnd);

    _payloadBytes = _payload.size();

    std::vector<std::uint8_t> header(kMagic, kMagic + 4);
    HeaderWriter out{header};
    out(kTraceFileVersion, static_cast<std::uint8_t>(_meta.storageMode));
    headerFields(out, _meta, _counts, _hasWorkload, _workload);
    out(_payloadBytes);
    out(crc32(header.data(), header.size()));

    _fileBytes = header.size() + _payloadBytes;

    faultCheck(FaultSite::TraceWrite);

    if (_memoryOut) {
        *_memoryOut = header;
        _memoryOut->insert(_memoryOut->end(), _payload.begin(),
                           _payload.end());
    } else {
        // Temp file + atomic rename: the destination path either keeps
        // its previous content or gains a complete container. A crash
        // mid-write orphans only the .tmp.
        const std::string tmp = _path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            throw IoError("cannot open trace file for write", tmp,
                          errno);
        bool ok =
            std::fwrite(header.data(), 1, header.size(), f) ==
                header.size() &&
            std::fwrite(_payload.data(), 1, _payload.size(), f) ==
                _payload.size();
        int writeErr = ok ? 0 : errno;
        ok = std::fclose(f) == 0 && ok;
        if (writeErr == 0 && !ok)
            writeErr = errno;
        if (!ok) {
            std::remove(tmp.c_str());
            throw IoError("short write on trace file", tmp, writeErr);
        }
        if (std::rename(tmp.c_str(), _path.c_str()) != 0) {
            int renameErr = errno;
            std::remove(tmp.c_str());
            throw IoError("cannot rename trace file into place", _path,
                          renameErr);
        }
    }

    _payload = std::vector<std::uint8_t>();
}

// ---------------------------------------------------------------------
// TraceFileReader
// ---------------------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string &path,
                                 TraceReadMode mode)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IoError("cannot open trace file", path, errno);
    // One allocation sized from the file. Bytes past that size (a file
    // that grew since, or one with no size, like a pipe) read on in
    // chunks.
    struct stat st;
    if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0)
        _bytes.resize(static_cast<std::size_t>(st.st_size));
    _bytes.resize(std::fread(_bytes.data(), 1, _bytes.size(), f));
    std::uint8_t chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        _bytes.insert(_bytes.end(), chunk, chunk + n);
    bool readError = std::ferror(f) != 0;
    int readErrno = errno;
    std::fclose(f);
    if (readError)
        throw IoError("read error on trace file", path, readErrno);
    parse(mode);
}

TraceFileReader::TraceFileReader(const std::uint8_t *data,
                                 std::size_t size, TraceReadMode mode)
    : _bytes(data, data + size)
{
    parse(mode);
}

TraceFileReader::TraceFileReader(const std::vector<std::uint8_t> &buffer,
                                 TraceReadMode mode)
    : _bytes(buffer)
{
    parse(mode);
}

void
TraceFileReader::parse(TraceReadMode mode)
{
    faultCheck(FaultSite::TraceRead);

    Cursor c{_bytes.data(), _bytes.size()};

    c.need(4);
    if (std::memcmp(_bytes.data(), kMagic, 4) != 0)
        throw TraceFileError("not a trace file (bad magic)");
    c.pos = 4;

    const auto version = c.get<std::uint16_t>();
    if (version != kTraceFileVersion)
        throw TraceFileError(
            "unsupported trace-file version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kTraceFileVersion) + " only)");

    const auto storage = c.get<std::uint8_t>();
    _meta.storageMode =
        storage <= static_cast<std::uint8_t>(TraceStorageMode::Fp16)
            ? static_cast<TraceStorageMode>(storage)
            : TraceStorageMode::Unknown;

    headerFields(c, _meta, _counts, _hasWorkload, _workload);
    _payloadBytes = c.get<std::uint64_t>();

    const std::size_t crcPos = c.pos;
    const auto storedCrc = c.get<std::uint32_t>();
    // Header damage is unrecoverable in any mode: the counts and the
    // payload size below the CRC are what salvage itself depends on.
    if (crc32(_bytes.data(), crcPos) != storedCrc)
        throw TraceFileError("corrupt trace file: header checksum mismatch");

    if (!payloadSizePlausible(_counts, _payloadBytes))
        throw TraceFileError(
            "corrupt trace file: implausible payload size");

    _payloadStart = c.pos;
    std::uint64_t payloadUsed = _payloadBytes;
    if (eventBytes() < _payloadBytes) {
        if (mode == TraceReadMode::Strict)
            throw TraceFileError("truncated trace file");
        payloadUsed = eventBytes();
    }
    // Bytes past the payload are not part of the container.
    _bytes.resize(_payloadStart + payloadUsed);
    _fileBytes = _bytes.size();

    validatePayload(mode);
}

/**
 * Walk the payload's event stream end to end, checking framing,
 * checkpoint CRCs, and that the walked event counts match the header.
 * Strict mode throws on the first defect; Salvage mode cuts the stream
 * back to the last trustworthy prefix — the last CRC-verified
 * checkpoint — re-terminates it, and recomputes the counts from what
 * was kept.
 */
void
TraceFileReader::validatePayload(TraceReadMode mode)
{
    EventDecoder decoder(events(), eventBytes());
    TraceFileCounts walked;
    std::uint64_t walkedEvents = 0;
    std::size_t sectionStart = 0;

    // Salvage cut candidate: everything before it is trustworthy.
    std::size_t lastGood = 0;
    TraceFileCounts lastGoodCounts;
    std::uint64_t lastGoodEvents = 0;

    bool damaged = false;

    try {
        for (;;) {
            const DecodedEvent e = decoder.next();
            if (e.kind == kEvEnd) {
                if (e.end != eventBytes())
                    throw TraceFileError(
                        "corrupt trace payload: trailing bytes after "
                        "terminator");
                break;
            }
            if (e.kind == kEvCheckpoint) {
                if (e.checkpointCrc > 0xFFFFFFFFull ||
                    e.checkpointEvents != walkedEvents ||
                    static_cast<std::uint32_t>(e.checkpointCrc) !=
                        crc32(events() + sectionStart,
                              e.start - sectionStart))
                    throw TraceFileError(
                        "corrupt trace payload: checkpoint "
                        "checksum mismatch");
                sectionStart = lastGood = e.end;
                lastGoodCounts = walked;
                lastGoodEvents = walkedEvents;
                ++_recovery.checkpointsVerified;
                continue;
            }
            ++walkedEvents;
            walked.accesses += e.kind == kEvAccess;
            walked.rayEnds += e.kind == kEvRayEnd;
            walked.flushes += e.kind == kEvFlush;
        }
        if (walked.accesses != _counts.accesses ||
            walked.rayEnds != _counts.rayEnds ||
            walked.flushes != _counts.flushes)
            throw TraceFileError(
                "corrupt trace file: header/payload event count "
                "mismatch");
    } catch (const TraceFileError &) {
        if (mode == TraceReadMode::Strict)
            throw;
        damaged = true;
    }

    if (damaged) {
        _recovery.salvaged = true;
        _recovery.droppedPayloadBytes = eventBytes() - lastGood;
        _bytes.resize(_payloadStart + lastGood);
        _bytes.push_back(kEvEnd);
        _counts = lastGoodCounts;
        walkedEvents = lastGoodEvents;
    }
    _recovery.keptEvents = walkedEvents;
}

TraceEventBreakdown
TraceFileReader::eventBreakdown() const
{
    TraceEventBreakdown out;
    EventDecoder decoder(events(), eventBytes());
    for (;;) {
        const DecodedEvent e = decoder.next();
        const std::uint64_t bytes = e.end - e.start;
        switch (e.kind) {
          case kEvAccess:
            ++out.accessEvents;
            out.accessBytes += bytes;
            out.sameBytesElisions += e.sameBytes;
            out.sameRayElisions += e.sameRay;
            break;
          case kEvRayEnd:
            ++out.rayEndEvents;
            out.rayEndBytes += bytes;
            break;
          case kEvFlush:
            ++out.flushEvents;
            out.flushBytes += bytes;
            break;
          case kEvCheckpoint:
            ++out.checkpointEvents;
            out.checkpointBytes += bytes;
            break;
          case kEvEnd:
            out.terminatorBytes += bytes;
            return out;
        }
    }
}

void
TraceFileReader::replay(TraceSink *sink) const
{
    EventDecoder decoder(events(), eventBytes());
    for (;;) {
        const DecodedEvent e = decoder.next();
        switch (e.kind) {
          case kEvAccess:
            sink->onAccess(e.access);
            break;
          case kEvRayEnd:
            sink->onRayEnd(e.access.rayId);
            break;
          case kEvFlush:
            sink->onFlush();
            break;
          case kEvEnd:
            return;
        }
        // Checkpoints are integrity metadata, not sink events; they
        // were verified at parse time.
    }
}

} // namespace cicero
