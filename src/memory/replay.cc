#include "memory/replay.hh"

#include "common/stats.hh"

namespace cicero {

namespace {

std::string
cacheStatsFields(const CacheStats &s)
{
    return "\"accesses\": " + std::to_string(s.accesses) +
           ", \"hits\": " + std::to_string(s.hits) +
           ", \"misses\": " + std::to_string(s.misses) +
           ", \"miss_rate\": " + formatDouble(s.missRate(), 6);
}

/** Pricing of a cache run: SRAM line reads + DRAM line fills. */
double
cacheEnergyNj(const CacheStats &s, const EnergyConstants &energy)
{
    return energy.sramNj(s.accesses * kCacheLineBytes) +
           energy.dramNj(0.0, s.misses * kCacheLineBytes);
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
    result.lruEnergyNj = cacheEnergyNj(result.lru, config.energy);
    result.beladyEnergyNj = cacheEnergyNj(result.belady, config.energy);
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
    result.energyNj = energy.sramNj(
        (result.stats.fetches + result.stats.stalls) * config.featureBytes);
    return result;
}

DramStackResult
runDramStack(const TraceSourceFn &source, const DramConfig &config,
             const EnergyConstants &energy)
{
    DramModel dram(config);
    source(&dram);
    return DramStackResult{dram.stats(), dram.energyNj(energy),
                           dram.timeMs()};
}

std::string
statsJson(const CacheStackResult &result)
{
    return "{\"stack\": \"cache\", \"lru\": {" +
           cacheStatsFields(result.lru) +
           ", \"energy_nj\": " + formatDouble(result.lruEnergyNj, 3) +
           "}, \"belady\": {" + cacheStatsFields(result.belady) +
           ", \"energy_nj\": " + formatDouble(result.beladyEnergyNj, 3) +
           "}}";
}

std::string
statsJson(const BankStackResult &result)
{
    const BankConflictStats &stats = result.stats;
    return "{\"stack\": \"bank\", \"requests\": " +
           std::to_string(stats.requests) +
           ", \"stalls\": " + std::to_string(stats.stalls) +
           ", \"cycles\": " + std::to_string(stats.cycles) +
           ", \"fetches\": " + std::to_string(stats.fetches) +
           ", \"conflict_rate\": " + formatDouble(stats.conflictRate(), 6) +
           ", \"energy_nj\": " + formatDouble(result.energyNj, 3) + "}";
}

std::string
statsJson(const DramStackResult &result)
{
    const DramStats &s = result.stats;
    return "{\"stack\": \"dram\", \"accesses\": " +
           std::to_string(s.accesses) + ", \"streaming_accesses\": " +
           std::to_string(s.streamingAccesses) +
           ", \"random_accesses\": " + std::to_string(s.randomAccesses) +
           ", \"bytes\": " + std::to_string(s.bytes) +
           ", \"streaming_bytes\": " + std::to_string(s.streamingBytes) +
           ", \"random_bytes\": " + std::to_string(s.randomBytes) +
           ", \"non_streaming_fraction\": " +
           formatDouble(s.nonStreamingFraction(), 6) +
           ", \"energy_nj\": " + formatDouble(result.energyNj, 3) +
           ", \"time_ms\": " + formatDouble(result.timeMs, 6) + "}";
}

} // namespace cicero
