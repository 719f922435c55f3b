#include "dse/accel_replay.hh"

#include <stdexcept>

#include "common/stats.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/sram_bank_model.hh"
#include "memory/trace.hh"

namespace cicero {

namespace {

/** Counts the stream so every stack observes what it replayed. */
class CountingSink : public TraceSink
{
  public:
    void
    onAccess(const MemAccess &) override
    {
        ++accesses;
    }

    void
    onRayEnd(std::uint32_t) override
    {
        ++rays;
    }

    void onFlush() override {}

    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

} // namespace

TraceWorkloadSummary
toSummary(const TraceWorkloadDescriptor &desc)
{
    TraceWorkloadSummary s;
    s.rays = desc.work.rays;
    s.samples = desc.work.samples;
    s.indexOps = desc.work.indexOps;
    s.vertexFetches = desc.work.vertexFetches;
    s.gatherBytes = desc.work.gatherBytes;
    s.interpOps = desc.work.interpOps;
    s.mlpMacs = desc.work.mlpMacs;
    s.compositeOps = desc.work.compositeOps;
    s.streamedBytes = desc.plan.streamedBytes;
    s.randomBytes = desc.plan.randomBytes;
    s.ritEntries = desc.plan.ritEntries;
    s.ritBytes = desc.plan.ritBytes;
    s.vertexBytes = desc.vertexBytes;
    return s;
}

TraceWorkloadDescriptor
fromSummary(const TraceWorkloadSummary &summary)
{
    TraceWorkloadDescriptor d;
    d.work.rays = summary.rays;
    d.work.samples = summary.samples;
    d.work.indexOps = summary.indexOps;
    d.work.vertexFetches = summary.vertexFetches;
    d.work.gatherBytes = summary.gatherBytes;
    d.work.interpOps = summary.interpOps;
    d.work.mlpMacs = summary.mlpMacs;
    d.work.compositeOps = summary.compositeOps;
    d.plan.streamedBytes = summary.streamedBytes;
    d.plan.randomBytes = summary.randomBytes;
    d.plan.ritEntries = summary.ritEntries;
    d.plan.ritBytes = summary.ritBytes;
    d.vertexBytes = summary.vertexBytes;
    return d;
}

TraceWorkloadDescriptor
measureWorkload(const NerfModel &model, const Camera &cam)
{
    TraceWorkloadDescriptor desc;
    desc.work = model.traceWorkload(cam, nullptr);
    desc.plan = model.encoding().streamingFootprint(
        model.collectSamplePositions(cam));
    desc.vertexBytes = model.encoding().featureDim() * kBytesPerChannel;
    return desc;
}

TraceWorkloadDescriptor
workloadFromTrace(const TraceFileReader &reader)
{
    if (!reader.hasWorkloadSummary())
        throw std::runtime_error(
            "trace has no workload summary; re-capture with one to "
            "replay accelerator models");
    return fromSummary(reader.workloadSummary());
}

GpuStackResult
runGpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc,
            const GpuStackConfig &config)
{
    // The probe.cc arrangement: warp interleaving in front of the cache
    // and DRAM probes, the raw stream counted on the side.
    DramModel dram(config.gpu.dram);
    LruCache cache(config.cache);
    WarpInterleaver interleaver(config.warpWays);
    interleaver.addSink(&dram);
    interleaver.addSink(&cache);
    CountingSink counter;
    TraceTee tee;
    tee.addSink(&interleaver);
    tee.addSink(&counter);
    source(&tee);

    GpuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.profile.cacheMissRate = cache.stats().missRate();
    result.profile.randomFraction = dram.stats().nonStreamingFraction();

    GpuModel gpu(config.gpu);
    result.times = gpu.timeNerfFrame(desc.work, result.profile);
    result.timeMs = result.times.totalMs();
    result.energyNj =
        gpu.energyNj(result.timeMs) +
        gpu.gatherDramEnergyNj(desc.work, result.profile, config.energy);
    return result;
}

NpuStackResult
runNpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc, const NpuConfig &config,
            const EnergyConstants &energy)
{
    CountingSink counter;
    source(&counter);

    NpuModel npu(config);
    NpuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.mlpMs = npu.mlpTimeMs(desc.work.mlpMacs);
    result.timeMs = result.mlpMs;
    result.energyNj = npu.energyNj(result.timeMs) +
                      npu.macEnergyNj(desc.work.mlpMacs, energy);
    return result;
}

GuStackResult
runGuStack(const TraceSourceFn &source,
           const TraceWorkloadDescriptor &desc, const GuStackConfig &config)
{
    CountingSink counter;
    source(&counter);

    // The channel-major layout of Sec. IV-B gives every PE its own
    // bank, so each fetch is granted on issue: requests = fetches =
    // accesses and no stall, by construction.
    GuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.channelMajor.requests = counter.accesses;
    result.channelMajor.fetches = counter.accesses;
    result.cost = GatheringUnitModel(config.gu).price(
        desc.plan, desc.vertexBytes, config.dram, config.energy);
    return result;
}

BaselineStackResult
runBaselineStack(const TraceSourceFn &source,
                 const TraceWorkloadDescriptor &desc,
                 const BaselineStackConfig &config)
{
    SramBankConfig bank = config.bank;
    bank.featureBytes = desc.vertexBytes ? desc.vertexBytes
                                         : bank.featureBytes;
    bank.layout = SramLayout::FeatureMajor;
    BankConflictSim sim(bank);
    CountingSink counter;
    TraceTee tee;
    tee.addSink(&sim);
    tee.addSink(&counter);
    source(&tee);

    BaselineStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.bankConflictRate = sim.stats().conflictRate();
    result.neurex = NeurexModel(config.neurex)
                        .price(desc.work, result.bankConflictRate,
                               config.dram, config.energy);
    result.ngpc = NgpcModel(config.ngpc).price(desc.work, config.energy);
    return result;
}

namespace {

std::string
accelCostFields(const AccelFrameCost &c)
{
    return "\"gather_ms\": " + formatDouble(c.gatherMs, 6) +
           ", \"mlp_ms\": " + formatDouble(c.mlpMs, 6) +
           ", \"time_ms\": " + formatDouble(c.timeMs, 6) +
           ", \"energy_nj\": " + formatDouble(c.energyNj, 3);
}

} // namespace

std::string
statsJson(const GpuStackResult &result)
{
    return "{\"stack\": \"gpu\", \"accesses\": " +
           std::to_string(result.accesses) +
           ", \"rays\": " + std::to_string(result.rays) +
           ", \"index_ms\": " + formatDouble(result.times.indexMs, 6) +
           ", \"gather_ms\": " + formatDouble(result.times.gatherMs, 6) +
           ", \"mlp_ms\": " + formatDouble(result.times.mlpMs, 6) +
           ", \"composite_ms\": " +
           formatDouble(result.times.compositeMs, 6) +
           ", \"time_ms\": " + formatDouble(result.timeMs, 6) +
           ", \"cache_miss_rate\": " +
           formatDouble(result.profile.cacheMissRate, 6) +
           ", \"random_fraction\": " +
           formatDouble(result.profile.randomFraction, 6) +
           ", \"energy_nj\": " + formatDouble(result.energyNj, 3) + "}";
}

std::string
statsJson(const NpuStackResult &result)
{
    return "{\"stack\": \"npu\", \"accesses\": " +
           std::to_string(result.accesses) +
           ", \"rays\": " + std::to_string(result.rays) +
           ", \"mlp_ms\": " + formatDouble(result.mlpMs, 6) +
           ", \"time_ms\": " + formatDouble(result.timeMs, 6) +
           ", \"energy_nj\": " + formatDouble(result.energyNj, 3) + "}";
}

std::string
statsJson(const GuStackResult &result)
{
    return "{\"stack\": \"gu\", \"accesses\": " +
           std::to_string(result.accesses) +
           ", \"rays\": " + std::to_string(result.rays) +
           ", \"compute_ms\": " + formatDouble(result.cost.computeMs, 6) +
           ", \"dram_ms\": " + formatDouble(result.cost.dramMs, 6) +
           ", \"time_ms\": " + formatDouble(result.cost.timeMs, 6) +
           ", \"cycles\": " + std::to_string(result.cost.cycles) +
           ", \"bank_requests\": " +
           std::to_string(result.channelMajor.requests) +
           ", \"bank_stalls\": " +
           std::to_string(result.channelMajor.stalls) +
           ", \"conflict_rate\": " +
           formatDouble(result.channelMajor.conflictRate(), 6) +
           ", \"energy_nj\": " + formatDouble(result.cost.energyNj, 3) +
           "}";
}

std::string
statsJson(const BaselineStackResult &result)
{
    return "{\"stack\": \"baselines\", \"accesses\": " +
           std::to_string(result.accesses) +
           ", \"rays\": " + std::to_string(result.rays) +
           ", \"bank_conflict_rate\": " +
           formatDouble(result.bankConflictRate, 6) + ", \"neurex\": {" +
           accelCostFields(result.neurex) + "}, \"ngpc\": {" +
           accelCostFields(result.ngpc) + "}}";
}

} // namespace cicero
