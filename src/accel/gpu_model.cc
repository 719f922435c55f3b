#include "accel/gpu_model.hh"
#include <algorithm>

namespace cicero {

GpuConfig
GpuConfig::remote2080Ti()
{
    GpuConfig c;
    c.name = "RTX2080Ti";
    // ~12x the mobile part on compute, ~18x on bandwidth (616 GB/s).
    c.macThroughput = 4.5e12;
    c.aluThroughput = 4.0e12;
    c.fetchIssueRate = 14e9;
    c.randomPenalty = 6.0;
    c.activePowerW = 220.0;
    c.pointOpsPerSecond = 20e9;
    c.dram.bandwidthGBs = 616.0;
    return c;
}

GpuModel::GpuModel(const GpuConfig &config) : _config(config)
{
}

std::uint64_t
GpuModel::gatherDramBytes(const StageWork &work,
                          const GatherProfile &profile) const
{
    // Every missing fetch moves one cache-line-sized DRAM transaction.
    return static_cast<std::uint64_t>(work.vertexFetches *
                                      profile.cacheMissRate *
                                      _config.cacheMissTransactionBytes);
}

double
GpuModel::gatherDramEnergyNj(const StageWork &work,
                             const GatherProfile &profile,
                             const EnergyConstants &energy) const
{
    std::uint64_t bytes = gatherDramBytes(work, profile);
    double randomBytes = bytes * profile.randomFraction;
    return energy.dramNj(bytes - randomBytes, randomBytes);
}

double
GpuModel::streamingGatherMs(const StreamPlan &plan) const
{
    double bandwidth = _config.dram.bandwidthGBs * 1e9;
    double streamMs = plan.streamedBytes / bandwidth * 1e3;
    double randomMs =
        plan.randomBytes / (bandwidth / _config.randomPenalty) * 1e3;
    // A software RIT walk (decode, address, interpolate, scatter to the
    // ray) sustains ~40% of the raw load-issue rate.
    double issueMs =
        plan.ritEntries * 8.0 / (0.4 * _config.fetchIssueRate) * 1e3;
    return std::max(streamMs + randomMs, issueMs);
}

GpuStageTimes
GpuModel::timeNerfFrame(const StageWork &work,
                        const GatherProfile &profile) const
{
    GpuStageTimes t;

    // Indexing (I): scalar arithmetic bound.
    t.indexMs = work.indexOps / _config.aluThroughput * 1e3;

    // Feature Gathering (G): the maximum of load-slot issue, DRAM
    // transfer (random accesses derate bandwidth), and interpolation
    // arithmetic. On a GPU these overlap, so the bottleneck wins.
    double issueMs = work.vertexFetches / _config.fetchIssueRate * 1e3;
    double dramBytes = static_cast<double>(gatherDramBytes(work, profile));
    double effBw = _config.dram.bandwidthGBs * 1e9 *
                   ((1.0 - profile.randomFraction) +
                    profile.randomFraction / _config.randomPenalty);
    double dramMs = dramBytes / effBw * 1e3;
    double interpMs = work.interpOps / _config.aluThroughput * 1e3;
    t.gatherMs = std::max({issueMs, dramMs, interpMs});

    // Feature Computation (F): MLP MAC bound.
    t.mlpMs = work.mlpMacs / _config.macThroughput * 1e3;

    // Compositing and misc.
    t.compositeMs = work.compositeOps / _config.aluThroughput * 1e3;

    return t;
}

} // namespace cicero
