#include "accel/accel_replay.hh"

#include <stdexcept>

#include "common/parallel.hh"
#include "common/stats.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/sram_bank_model.hh"
#include "memory/trace.hh"

namespace cicero {

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

std::uint32_t
vertexBytes(const NerfModel &model)
{
    return static_cast<std::uint32_t>(model.encoding().featureDim() *
                                      kBytesPerChannel);
}

TraceWorkloadDescriptor
measureWorkload(const NerfModel &model, const Camera &cam, TraceSink *sink)
{
    TraceWorkloadDescriptor desc;
    desc.work = model.traceWorkload(cam, sink);
    desc.plan = model.encoding().streamingFootprint(
        model.collectSamplePositions(cam));
    desc.vertexBytes = vertexBytes(model);
    return desc;
}

TraceFileMeta
captureMeta(const NerfModel &model, const Camera &cam)
{
    TraceFileMeta meta;
    meta.scene = model.scene().name;
    meta.encoding = model.encoding().name();
    meta.width = static_cast<std::uint32_t>(cam.width);
    meta.height = static_cast<std::uint32_t>(cam.height);
    meta.threads = static_cast<std::uint32_t>(parallelThreadCount());
    meta.featureBytes = vertexBytes(model);
    meta.storageMode = model.encoding().featuresFp16()
                           ? TraceStorageMode::Fp16
                           : TraceStorageMode::Fp32;
    return meta;
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

struct AccelStacks::GpuSinks
{
    explicit GpuSinks(const GpuStackConfig &c)
        : config(c), dram(c.gpu.dram), cache(c.cache),
          interleaver(c.warpWays)
    {
        interleaver.addSink(&dram);
        interleaver.addSink(&cache);
    }

    GpuStackConfig config;
    DramModel dram;
    LruCache cache;
    WarpInterleaver interleaver;
};

struct AccelStacks::BaselineSinks
{
    BaselineSinks(const BaselineStackConfig &c, const SramBankConfig &bank)
        : config(c), sim(bank)
    {
    }

    BaselineStackConfig config;
    BankConflictSim sim;
};

AccelStacks::AccelStacks() = default;

AccelStacks::~AccelStacks() = default;

void
AccelStacks::attachGpu(const GpuStackConfig &config)
{
    _gpu = std::make_unique<GpuSinks>(config);
}

void
AccelStacks::attachBaselines(const BaselineStackConfig &config,
                             std::uint32_t vertexBytes)
{
    SramBankConfig bank = config.bank;
    bank.featureBytes = vertexBytes ? vertexBytes : bank.featureBytes;
    bank.layout = SramLayout::FeatureMajor;
    _baselines = std::make_unique<BaselineSinks>(config, bank);
}

void
AccelStacks::onAccess(const MemAccess &access)
{
    ++_accesses;
    if (_gpu)
        _gpu->interleaver.onAccess(access);
    if (_baselines)
        _baselines->sim.onAccess(access);
}

void
AccelStacks::onRayEnd(std::uint32_t rayId)
{
    ++_rays;
    if (_gpu)
        _gpu->interleaver.onRayEnd(rayId);
    if (_baselines)
        _baselines->sim.onRayEnd(rayId);
}

void
AccelStacks::onFlush()
{
    if (_gpu)
        _gpu->interleaver.onFlush();
    if (_baselines)
        _baselines->sim.onFlush();
}

GpuStackResult
AccelStacks::gpu(const TraceWorkloadDescriptor &desc) const
{
    if (!_gpu)
        throw std::logic_error("AccelStacks::gpu: no GPU sinks attached");
    const GpuStackConfig &config = _gpu->config;
    GpuStackResult result;
    result.accesses = _accesses;
    result.rays = _rays;
    result.profile.cacheMissRate = _gpu->cache.stats().missRate();
    result.profile.randomFraction =
        _gpu->dram.stats().nonStreamingFraction();

    GpuModel gpu(config.gpu);
    result.times = gpu.timeNerfFrame(desc.work, result.profile);
    result.timeMs = result.times.totalMs();
    result.energyNj =
        gpu.energyNj(result.timeMs) +
        gpu.gatherDramEnergyNj(desc.work, result.profile, config.energy);
    return result;
}

NpuStackResult
AccelStacks::npu(const TraceWorkloadDescriptor &desc,
                 const NpuConfig &config,
                 const EnergyConstants &energy) const
{
    NpuModel npu(config);
    NpuStackResult result;
    result.accesses = _accesses;
    result.rays = _rays;
    result.mlpMs = npu.mlpTimeMs(desc.work.mlpMacs);
    result.timeMs = result.mlpMs;
    result.energyNj = npu.energyNj(result.timeMs) +
                      npu.macEnergyNj(desc.work.mlpMacs, energy);
    return result;
}

GuStackResult
AccelStacks::gu(const TraceWorkloadDescriptor &desc,
                const GuStackConfig &config) const
{
    // The channel-major layout of Sec. IV-B gives every PE its own
    // bank, so each fetch is granted on issue: requests = fetches =
    // accesses and no stall, by construction.
    GuStackResult result;
    result.accesses = _accesses;
    result.rays = _rays;
    result.channelMajor.requests = _accesses;
    result.channelMajor.fetches = _accesses;
    result.cost = GatheringUnitModel(config.gu).price(
        desc.plan, desc.vertexBytes, config.dram, config.energy);
    return result;
}

BaselineStackResult
AccelStacks::baselines(const TraceWorkloadDescriptor &desc) const
{
    if (!_baselines)
        throw std::logic_error(
            "AccelStacks::baselines: no baseline sinks attached");
    const BaselineStackConfig &config = _baselines->config;
    BaselineStackResult result;
    result.accesses = _accesses;
    result.rays = _rays;
    result.bankConflictRate = _baselines->sim.stats().conflictRate();
    result.neurex = NeurexModel(config.neurex)
                        .price(desc.work, result.bankConflictRate,
                               config.dram, config.energy);
    result.ngpc = NgpcModel(config.ngpc).price(desc.work, config.energy);
    return result;
}

GpuStackResult
runGpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc,
            const GpuStackConfig &config)
{
    AccelStacks stacks;
    stacks.attachGpu(config);
    source(&stacks);
    return stacks.gpu(desc);
}

NpuStackResult
runNpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc, const NpuConfig &config,
            const EnergyConstants &energy)
{
    AccelStacks stacks;
    source(&stacks);
    return stacks.npu(desc, config, energy);
}

GuStackResult
runGuStack(const TraceSourceFn &source,
           const TraceWorkloadDescriptor &desc, const GuStackConfig &config)
{
    AccelStacks stacks;
    source(&stacks);
    return stacks.gu(desc, config);
}

BaselineStackResult
runBaselineStack(const TraceSourceFn &source,
                 const TraceWorkloadDescriptor &desc,
                 const BaselineStackConfig &config)
{
    AccelStacks stacks;
    stacks.attachBaselines(config, desc.vertexBytes);
    source(&stacks);
    return stacks.baselines(desc);
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
