#include "memory/replay.hh"

#include <cstdio>

namespace cicero {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
cacheStatsFields(const CacheStats &s)
{
    return "\"accesses\": " + u64s(s.accesses) +
           ", \"hits\": " + u64s(s.hits) +
           ", \"misses\": " + u64s(s.misses) +
           ", \"miss_rate\": " + fmt("%.6f", s.missRate());
}

/** Nanojoules of moving @p bytes at @p pjPerByte. */
double
bytesNj(std::uint64_t bytes, double pjPerByte)
{
    return bytes * pjPerByte * 1e-3;
}

/** Pricing of a cache run: SRAM line reads + DRAM line fills. */
double
cacheEnergyNj(const CacheStats &s, const CacheConfig &cache,
              const EnergyConstants &energy)
{
    return bytesNj(s.accesses * cache.lineBytes, energy.sramPjPerByte) +
           bytesNj(s.misses * cache.lineBytes, energy.dramRandomPjPerByte);
}

} // namespace

CacheStackResult
runCacheStack(const TraceSourceFn &source, const CacheStackConfig &config)
{
    LruCache lru(config.cache);
    BeladyCache belady(config.cache);
    WarpInterleaver interleaver(config.warpWays);
    interleaver.addSink(&lru);
    interleaver.addSink(&belady);
    source(&interleaver);
    CacheStackResult result{lru.stats(), belady.simulate(), 0.0, 0.0};
    result.lruEnergyNj =
        cacheEnergyNj(result.lru, config.cache, config.energy);
    result.beladyEnergyNj =
        cacheEnergyNj(result.belady, config.cache, config.energy);
    return result;
}

BankStackResult
runBankStack(const TraceSourceFn &source, const SramBankConfig &config,
             const EnergyConstants &energy)
{
    BankConflictSim sim(config);
    source(&sim);
    BankStackResult result{sim.stats(), 0.0};
    // Completed fetches read a feature vector from SRAM; every stalled
    // attempt re-issues, paying the access again.
    result.energyNj = bytesNj((result.stats.fetches +
                               result.stats.stalls) *
                                  config.featureBytes,
                              energy.sramPjPerByte);
    return result;
}

DramStackResult
runDramStack(const TraceSourceFn &source, const DramConfig &config)
{
    DramModel dram(config);
    source(&dram);
    return DramStackResult{dram.stats(), dram.energyNj(), dram.timeMs()};
}

std::string
statsJson(const CacheStackResult &result)
{
    return "{\"stack\": \"cache\", \"lru\": {" +
           cacheStatsFields(result.lru) +
           ", \"energy_nj\": " + fmt("%.3f", result.lruEnergyNj) +
           "}, \"belady\": {" + cacheStatsFields(result.belady) +
           ", \"energy_nj\": " + fmt("%.3f", result.beladyEnergyNj) +
           "}}";
}

std::string
statsJson(const BankStackResult &result)
{
    const BankConflictStats &stats = result.stats;
    return "{\"stack\": \"bank\", \"requests\": " + u64s(stats.requests) +
           ", \"stalls\": " + u64s(stats.stalls) +
           ", \"cycles\": " + u64s(stats.cycles) +
           ", \"fetches\": " + u64s(stats.fetches) +
           ", \"conflict_rate\": " + fmt("%.6f", stats.conflictRate()) +
           ", \"energy_nj\": " + fmt("%.3f", result.energyNj) + "}";
}

std::string
statsJson(const DramStackResult &result)
{
    const DramStats &s = result.stats;
    return "{\"stack\": \"dram\", \"accesses\": " + u64s(s.accesses) +
           ", \"streaming_accesses\": " + u64s(s.streamingAccesses) +
           ", \"random_accesses\": " + u64s(s.randomAccesses) +
           ", \"bytes\": " + u64s(s.bytes) +
           ", \"streaming_bytes\": " + u64s(s.streamingBytes) +
           ", \"random_bytes\": " + u64s(s.randomBytes) +
           ", \"non_streaming_fraction\": " +
           fmt("%.6f", s.nonStreamingFraction()) +
           ", \"energy_nj\": " + fmt("%.3f", result.energyNj) +
           ", \"time_ms\": " + fmt("%.6f", result.timeMs) + "}";
}

} // namespace cicero
