/**
 * @file
 * Offline replay engine: run a gather access stream — live from a
 * functional render or persisted in a trace file — through the
 * memory-model stacks of the paper's characterization figures, and
 * serialize the resulting statistics deterministically.
 *
 * Every stack takes a TraceSourceFn, a callback that emits the stream
 * into a sink: a lambda around a render call for live runs, or
 * fileSource() around a TraceFileReader for persisted traces. The same
 * stack runs either way and — because a
 * persisted trace replays byte-identically — produces bit-identical
 * stats JSON in both modes (the capture-once / replay-many contract).
 */

#ifndef CICERO_MEMORY_REPLAY_HH
#define CICERO_MEMORY_REPLAY_HH

#include <functional>
#include <string>

#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/energy_model.hh"
#include "memory/sram_bank_model.hh"
#include "memory/tracefile.hh"

namespace cicero {

/** Emits one full trace (accesses, ray ends, flush) into @p sink. */
using TraceSourceFn = std::function<void(TraceSink *sink)>;

/** Trace source that replays a persisted trace file. */
inline TraceSourceFn
fileSource(const TraceFileReader &reader)
{
    return [&reader](TraceSink *sink) { reader.replay(sink); };
}

/**
 * Fig. 5 stack: a WarpInterleaver models GPU warp scheduling in front
 * of an LRU and a Belady (oracle) cache sharing one stream.
 */
struct CacheStackConfig
{
    CacheConfig cache;            //!< 2 MB / 64 B lines by default
    std::uint32_t warpWays = 32;  //!< interleaved rays
    EnergyConstants energy;       //!< per-byte energy costs
};

/**
 * Results of the Fig. 5 cache stack. Energy is priced from
 * EnergyConstants: every access reads one line from SRAM, every miss
 * fills the line from DRAM at random-access cost — the same per-byte
 * constants the figure benches price with.
 */
struct CacheStackResult
{
    CacheStats lru;
    CacheStats belady;
    double lruEnergyNj = 0.0;
    double beladyEnergyNj = 0.0;
};

/** Run the interleaver → {LRU, Belady} stack over @p source. */
CacheStackResult runCacheStack(const TraceSourceFn &source,
                               const CacheStackConfig &config = {});

/**
 * Results of the Fig. 6 bank stack: conflict stats plus the SRAM
 * energy of the completed and re-issued (stalled) fetch attempts.
 */
struct BankStackResult
{
    BankConflictStats stats;
    double energyNj = 0.0;
};

/** Run the Fig. 6 bank-conflict simulator over @p source. */
BankStackResult runBankStack(const TraceSourceFn &source,
                             const SramBankConfig &config,
                             const EnergyConstants &energy = {});

/** Results of the DRAM stack: classification stats plus cost. */
struct DramStackResult
{
    DramStats stats;
    double energyNj = 0.0;
    double timeMs = 0.0;
};

/** Run the streaming-vs-random DRAM classifier over @p source. */
DramStackResult runDramStack(const TraceSourceFn &source,
                             const DramConfig &config = {},
                             const EnergyConstants &energy = {});

/**
 * Deterministic JSON serialization of stack results: integer fields
 * verbatim, derived rates with fixed precision — equal stats always
 * produce byte-identical strings.
 */
std::string statsJson(const CacheStackResult &result);
std::string statsJson(const BankStackResult &result);
std::string statsJson(const DramStackResult &result);

} // namespace cicero

#endif // CICERO_MEMORY_REPLAY_HH
