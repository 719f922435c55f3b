#include "accel/gathering_unit.hh"

#include <algorithm>
#include <cmath>

namespace cicero {

double
planDramEnergyNj(const StreamPlan &plan, const EnergyConstants &energy)
{
    return energy.dramNj(plan.streamedBytes, plan.randomBytes) +
           energy.dramNj(plan.ritBytes, 0.0);
}

GatheringUnitModel::GatheringUnitModel(const GatheringUnitConfig &config)
    : _config(config)
{
}

double
GatheringUnitModel::sramEnergyScale(std::uint64_t vftBytes)
{
    constexpr double kneeBytes = 64.0 * 1024.0;
    if (vftBytes <= kneeBytes)
        return 1.0;
    return 1.0 + 0.45 * std::log2(vftBytes / kneeBytes);
}

int
GatheringUnitModel::mvoxelEdgeForBuffer(std::uint64_t vftBytes,
                                        std::uint32_t vertexBytes)
{
    int edge = static_cast<int>(
        std::cbrt(static_cast<double>(vftBytes) / vertexBytes));
    return std::max(2, edge);
}

GuCost
GatheringUnitModel::price(const StreamPlan &plan,
                          std::uint32_t vertexBytes,
                          const DramConfig &dram,
                          const EnergyConstants &energy) const
{
    GuCost cost;

    // Compute: one RIT entry = one ray sample (possibly partial across
    // MVoxels) = 8 vertex reads; channel-major striping packs
    // floor(B / channels) vertices side by side across the banks, so a
    // cycle retrieves that many vertices per port, and M entries are in
    // flight at once.
    std::uint32_t channels =
        std::max<std::uint32_t>(1, vertexBytes / kBytesPerChannel);
    std::uint32_t vertsPerCycle =
        std::max<std::uint32_t>(1, _config.banks / channels);
    std::uint64_t cyclesPerEntry = (8 + vertsPerCycle - 1) / vertsPerCycle;
    cost.cycles = plan.ritEntries * cyclesPerEntry / _config.ports;
    // Non-streamable (reverted-level) fetches still pass through the
    // VFT datapath one vertex at a time.
    std::uint64_t randomFetches = plan.randomBytes / vertexBytes;
    cost.cycles += randomFetches / (vertsPerCycle * _config.ports);
    cost.computeMs = cost.cycles / (_config.freqGHz * 1e9) * 1e3;

    // DRAM: MVoxels stream at full bandwidth; residual (non-streamable
    // level) traffic pays the random derating.
    double streamMs =
        plan.streamedBytes / (dram.bandwidthGBs * 1e9) * 1e3;
    // The GU keeps many outstanding requests, so non-streamable level
    // traffic still extracts bank parallelism (half of peak).
    double randomBw = dram.bandwidthGBs * 1e9 / 2.0;
    double randomMs = plan.randomBytes / randomBw * 1e3;
    // The RIT is produced by the GPU and DMA-streamed to the GU once.
    double ritMs = plan.ritBytes / (dram.bandwidthGBs * 1e9) * 1e3;
    cost.dramMs = streamMs + randomMs + ritMs;

    // Double buffering overlaps MVoxel loads with reduction.
    cost.timeMs = std::max(cost.computeMs, cost.dramMs);

    // Energy: VFT reads (8 vertices per entry), reducers, RIT traffic
    // (written by GPU, read by GU), and the DRAM traffic itself.
    double scale = sramEnergyScale(_config.vftBytes);
    double sramNj = plan.ritEntries * 8.0 * vertexBytes *
                    energy.sramPjPerByte * scale * 1e-3;
    double reducerNj =
        plan.ritEntries * 8.0 * channels * energy.aluOpPj * 1e-3;
    cost.dramEnergyNj = planDramEnergyNj(plan, energy);
    double staticNj = _config.activePowerW * cost.timeMs * 1e6;
    cost.energyNj = sramNj + reducerNj + cost.dramEnergyNj + staticNj;
    return cost;
}

} // namespace cicero
