#include "dse/driver.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "cicero/pipeline.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "dse/minijson.hh"

namespace cicero::dse {

namespace {

/** Shortest "%g" form of an axis value, for config ids. */
std::string
formatAxis(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

void
parseDoubleAxis(const JsonValue &arr, const char *name,
                std::vector<double> &out)
{
    const auto &items = arr.asArray(name);
    if (items.empty())
        throw std::runtime_error(std::string("sweep spec: axis \"") +
                                 name + "\" must not be empty");
    out.clear();
    for (const JsonValue &v : items) {
        double d = v.asNumber(name);
        if (d <= 0)
            throw std::runtime_error(std::string("sweep spec: axis \"") +
                                     name + "\" values must be positive");
        out.push_back(d);
    }
}

void
parseU32Axis(const JsonValue &arr, const char *name,
             std::vector<std::uint32_t> &out, bool allowZero = false)
{
    const auto &items = arr.asArray(name);
    if (items.empty())
        throw std::runtime_error(std::string("sweep spec: axis \"") +
                                 name + "\" must not be empty");
    out.clear();
    for (const JsonValue &v : items) {
        std::uint64_t u = v.asU64(name);
        if ((u == 0 && !allowZero) || u > 0xffffffffull)
            throw std::runtime_error(
                std::string("sweep spec: axis \"") + name +
                "\" values must be in [" + (allowZero ? "0" : "1") +
                ", 2^32)");
        out.push_back(static_cast<std::uint32_t>(u));
    }
}

} // namespace

std::size_t
SweepAxes::configCount() const
{
    return cacheMb.size() * cacheWays.size() * warpWays.size() *
           guVftKb.size() * guBanks.size() * dramGBs.size() *
           sramBanks.size() * concurrentRays.size();
}

SweepAxes
parseSweepSpec(const std::string &jsonText)
{
    JsonValue root = parseJson(jsonText);
    if (!root.isObject())
        throw std::runtime_error("sweep spec: root must be an object");

    SweepAxes axes;
    for (const auto &m : root.members) {
        if (m.first == "cache_mb")
            parseDoubleAxis(m.second, "cache_mb", axes.cacheMb);
        else if (m.first == "cache_ways")
            // 0 = fully associative, a legal sweep point.
            parseU32Axis(m.second, "cache_ways", axes.cacheWays,
                         /*allowZero=*/true);
        else if (m.first == "warp_ways")
            parseU32Axis(m.second, "warp_ways", axes.warpWays);
        else if (m.first == "gu_vft_kb")
            parseU32Axis(m.second, "gu_vft_kb", axes.guVftKb);
        else if (m.first == "gu_banks")
            parseU32Axis(m.second, "gu_banks", axes.guBanks);
        else if (m.first == "dram_gbs")
            parseDoubleAxis(m.second, "dram_gbs", axes.dramGBs);
        else if (m.first == "sram_banks")
            parseU32Axis(m.second, "sram_banks", axes.sramBanks);
        else if (m.first == "concurrent_rays")
            parseU32Axis(m.second, "concurrent_rays",
                         axes.concurrentRays);
        else
            throw std::runtime_error("sweep spec: unknown axis \"" +
                                     m.first + "\"");
    }
    return axes;
}

std::string
DseConfig::id() const
{
    return "cache" + formatAxis(cacheMb) + "-cw" +
           std::to_string(cacheWays) + "-ways" +
           std::to_string(warpWays) + "-vft" + std::to_string(guVftKb) +
           "k-gub" + std::to_string(guBanks) + "-dram" +
           formatAxis(dramGBs) + "-sb" + std::to_string(sramBanks) +
           "-rays" + std::to_string(concurrentRays);
}

std::uint64_t
DseConfig::sramBytes() const
{
    GatheringUnitConfig gu;
    gu.vftBytes = static_cast<std::uint64_t>(guVftKb) * 1024;
    gu.banks = guBanks;
    return static_cast<std::uint64_t>(cacheMb * (1ull << 20)) +
           gu.sramBytes();
}

std::vector<DseConfig>
expandGrid(const SweepAxes &axes)
{
    std::vector<DseConfig> grid;
    grid.reserve(axes.configCount());
    for (double cache : axes.cacheMb)
        for (std::uint32_t cw : axes.cacheWays)
            for (std::uint32_t ways : axes.warpWays)
                for (std::uint32_t vft : axes.guVftKb)
                    for (std::uint32_t gub : axes.guBanks)
                        for (double dram : axes.dramGBs)
                            for (std::uint32_t sb : axes.sramBanks)
                                for (std::uint32_t rays :
                                     axes.concurrentRays) {
                                    DseConfig c;
                                    c.cacheMb = cache;
                                    c.cacheWays = cw;
                                    c.warpWays = ways;
                                    c.guVftKb = vft;
                                    c.guBanks = gub;
                                    c.dramGBs = dram;
                                    c.sramBanks = sb;
                                    c.concurrentRays = rays;
                                    grid.push_back(c);
                                }
    return grid;
}

DsePointResult
evaluatePoint(const TraceSourceFn &source,
              const TraceWorkloadDescriptor &desc,
              const std::string &traceId, const DseConfig &config)
{
    GpuStackConfig gpuCfg;
    gpuCfg.gpu.dram.bandwidthGBs = config.dramGBs;
    gpuCfg.cache.capacityBytes =
        static_cast<std::uint64_t>(config.cacheMb * (1ull << 20));
    gpuCfg.cache.ways = config.cacheWays;
    gpuCfg.warpWays = config.warpWays;

    GuStackConfig guCfg;
    guCfg.gu.vftBytes = static_cast<std::uint64_t>(config.guVftKb) * 1024;
    guCfg.gu.banks = config.guBanks;
    guCfg.dram.bandwidthGBs = config.dramGBs;

    BaselineStackConfig baseCfg;
    baseCfg.bank.numBanks = config.sramBanks;
    baseCfg.bank.concurrentRays = config.concurrentRays;
    baseCfg.dram.bandwidthGBs = config.dramGBs;

    // One replay of the trace feeds all four stacks.
    AccelStacks stacks;
    stacks.attachGpu(gpuCfg);
    stacks.attachBaselines(baseCfg, desc.vertexBytes);
    source(&stacks);
    const GpuStackResult gpu = stacks.gpu(desc);

    DsePointResult point;
    point.traceId = traceId;
    point.configId = config.id();

    // The Cicero frame is priced by the composed model, on the GPU
    // profile this trace measured.
    WorkloadInputs inputs;
    inputs.fullFrame = desc.work;
    inputs.gatherProfile = gpu.profile;
    inputs.fullStreamPlan = desc.plan;
    inputs.vertexBytes = desc.vertexBytes;
    const FramePrice price =
        PerformanceModel(gpuCfg.gpu, NpuConfig{}, guCfg.gu)
            .priceFullFrame(SystemVariant::Cicero, inputs);
    point.ciceroTimeMs = price.timeMs;
    point.ciceroFps =
        point.ciceroTimeMs > 0 ? 1000.0 / point.ciceroTimeMs : 0.0;
    point.ciceroEnergyNj = price.energyNj;

    point.gpuFps = gpu.timeMs > 0 ? 1000.0 / gpu.timeMs : 0.0;
    point.gpuEnergyNj = gpu.energyNj;

    point.gpuJson = statsJson(gpu);
    point.npuJson = statsJson(stacks.npu(desc));
    point.guJson = statsJson(stacks.gu(desc, guCfg));
    point.baselinesJson = statsJson(stacks.baselines(desc));
    return point;
}

DseDriver::DseDriver(SweepAxes axes) : _axes(std::move(axes))
{
}

namespace {

/** One parsed corpus trace, shared by that trace's config points. */
struct LoadedTrace
{
    std::unique_ptr<TraceFileReader> reader; //!< null until parsed
    TraceWorkloadDescriptor desc;
    std::atomic<std::size_t> pointsLeft{0}; //!< the last one frees reader
};

/** Parse @p path into @p trace; the reader is set only on success. */
void
loadTrace(LoadedTrace &trace, const std::string &path)
{
    auto reader = std::make_unique<TraceFileReader>(path);
    trace.desc = workloadFromTrace(*reader);
    trace.reader = std::move(reader);
}

} // namespace

DseResult
DseDriver::run(const Corpus &corpus, bool parallel) const
{
    if (corpus.empty())
        throw std::runtime_error("dse: corpus has no entries");

    std::vector<DseConfig> grid = expandGrid(_axes);
    const std::size_t traces = corpus.size();
    const std::size_t configs = grid.size();

    DseResult result;
    result.traceCount = traces;
    result.configCount = configs;
    result.points.resize(configs * traces);

    // Index-addressed assembly: point (c, t) lands at config-major
    // index c * traces + t, so the result layout never depends on
    // scheduling.
    auto evalPoint = [&](const LoadedTrace &trace, std::size_t c,
                         std::size_t t) {
        result.points[c * traces + t] =
            evaluatePoint(fileSource(*trace.reader), trace.desc,
                          corpus.entries()[t].id, grid[c]);
    };

    // Trace-major: each trace is decoded once, priced at every config,
    // then released, so only the traces in flight hold their payloads.
    if (parallel) {
        // Each trace's parse is a task and its points run after it
        // (replay() is const and reentrant); the last point to finish
        // drops the reader. A failed parse leaves the reader null and
        // its points return at once; the error surfaces at wait().
        std::vector<LoadedTrace> loaded(traces);
        TaskGroup group;
        for (std::size_t t = 0; t < traces; ++t) {
            LoadedTrace &trace = loaded[t];
            trace.pointsLeft = configs;
            const TaskHandle parsed =
                group.run([&trace, &corpus, t] {
                    loadTrace(trace,
                              corpus.tracePath(corpus.entries()[t]));
                });
            for (std::size_t c = 0; c < configs; ++c)
                group.runAfter({parsed}, [&trace, &evalPoint, c, t] {
                    if (!trace.reader)
                        return;
                    evalPoint(trace, c, t);
                    if (--trace.pointsLeft == 0)
                        trace.reader.reset();
                });
        }
        group.wait();
    } else {
        for (std::size_t t = 0; t < traces; ++t) {
            LoadedTrace trace;
            loadTrace(trace, corpus.tracePath(corpus.entries()[t]));
            for (std::size_t c = 0; c < configs; ++c)
                evalPoint(trace, c, t);
        }
    }

    // Per-config aggregates, accumulated in trace order.
    result.summaries.reserve(grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
        DseConfigSummary s;
        s.config = grid[c];
        s.sramBytes = grid[c].sramBytes();
        double fpsSum = 0.0, energySum = 0.0;
        for (std::size_t t = 0; t < traces; ++t) {
            const DsePointResult &p = result.points[c * traces + t];
            fpsSum += p.ciceroFps;
            energySum += p.ciceroEnergyNj;
        }
        s.fps = fpsSum / traces;
        s.energyNj = energySum / traces;
        result.summaries.push_back(s);
    }

    // Pareto frontier over (fps up, energy down, SRAM down).
    for (std::size_t i = 0; i < result.summaries.size(); ++i) {
        DseConfigSummary &a = result.summaries[i];
        bool dominated = false;
        for (std::size_t k = 0; k < result.summaries.size() && !dominated;
             ++k) {
            if (k == i)
                continue;
            const DseConfigSummary &b = result.summaries[k];
            bool geFps = b.fps >= a.fps;
            bool leEnergy = b.energyNj <= a.energyNj;
            bool leSram = b.sramBytes <= a.sramBytes;
            bool strict = b.fps > a.fps || b.energyNj < a.energyNj ||
                          b.sramBytes < a.sramBytes;
            dominated = geFps && leEnergy && leSram && strict;
        }
        a.pareto = !dominated;
    }
    return result;
}

namespace {

std::string
summaryJson(const DseConfigSummary &s)
{
    return "{\"config\": \"" + s.config.id() +
           "\", \"cache_mb\": " + formatAxis(s.config.cacheMb) +
           ", \"cache_ways\": " + std::to_string(s.config.cacheWays) +
           ", \"warp_ways\": " + std::to_string(s.config.warpWays) +
           ", \"gu_vft_kb\": " + std::to_string(s.config.guVftKb) +
           ", \"gu_banks\": " + std::to_string(s.config.guBanks) +
           ", \"dram_gbs\": " + formatAxis(s.config.dramGBs) +
           ", \"sram_banks\": " + std::to_string(s.config.sramBanks) +
           ", \"concurrent_rays\": " +
           std::to_string(s.config.concurrentRays) +
           ", \"sram_bytes\": " + std::to_string(s.sramBytes) +
           ", \"fps\": " + formatDouble(s.fps, 6) +
           ", \"energy_nj\": " + formatDouble(s.energyNj, 3) +
           ", \"pareto\": " + (s.pareto ? "true" : "false") + "}";
}

} // namespace

std::string
DseResult::json() const
{
    std::string out = "{\n  \"tool\": \"cicero_dse\",\n  \"traces\": " +
                      std::to_string(traceCount) +
                      ",\n  \"configs\": " + std::to_string(configCount) +
                      ",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DsePointResult &p = points[i];
        out += i ? ",\n" : "\n";
        out += "    {\"trace\": \"" + jsonEscape(p.traceId) +
               "\", \"config\": \"" + p.configId +
               "\", \"cicero_time_ms\": " + formatDouble(p.ciceroTimeMs, 6) +
               ", \"cicero_fps\": " + formatDouble(p.ciceroFps, 6) +
               ", \"cicero_energy_nj\": " +
               formatDouble(p.ciceroEnergyNj, 3) +
               ", \"gpu_fps\": " + formatDouble(p.gpuFps, 6) +
               ", \"gpu_energy_nj\": " + formatDouble(p.gpuEnergyNj, 3) +
               ", \"gpu\": " + p.gpuJson + ", \"npu\": " + p.npuJson +
               ", \"gu\": " + p.guJson +
               ", \"baselines\": " + p.baselinesJson + "}";
    }
    out += "\n  ],\n  \"summary\": [";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        out += i ? ",\n" : "\n";
        out += "    " + summaryJson(summaries[i]);
    }
    out += "\n  ],\n  \"pareto\": [";
    bool first = true;
    for (const DseConfigSummary &s : summaries) {
        if (!s.pareto)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + s.config.id() + "\"";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
DseResult::paretoJson() const
{
    std::string out = "{\n  \"pareto\": [";
    bool first = true;
    for (const DseConfigSummary &s : summaries) {
        if (!s.pareto)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + summaryJson(s);
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace cicero::dse
