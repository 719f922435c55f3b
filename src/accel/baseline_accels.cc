#include "accel/baseline_accels.hh"

#include <algorithm>

namespace cicero {

namespace {

NpuConfig
npuFor(int rows, int cols, double freqGHz)
{
    NpuConfig c;
    c.rows = rows;
    c.cols = cols;
    c.freqGHz = freqGHz;
    return c;
}

} // namespace

NeurexModel::NeurexModel(const NeurexConfig &config)
    : _config(config),
      _npu(npuFor(config.peRows, config.peCols, config.freqGHz))
{
}

AccelFrameCost
NeurexModel::price(const StageWork &work, double bankConflictRate,
                   const DramConfig &dram,
                   const EnergyConstants &energy) const
{
    AccelFrameCost cost;

    // Gather: lanes issue one vertex fetch per cycle; conflicts stall
    // (retried issues), inflating cycles by 1/(1 - conflictRate).
    double stall = 1.0 / std::max(0.05, 1.0 - bankConflictRate);
    double cycles =
        static_cast<double>(work.vertexFetches) / _config.gatherLanes *
        stall;
    double onChipMs = cycles / (_config.freqGHz * 1e9) * 1e3;

    // Buffer misses fetch from DRAM at random-burst cost.
    double missBytes = work.vertexFetches * _config.bufferMissRate * 32.0;
    double randomBw = dram.bandwidthGBs * 1e9 / 2.0;
    double dramMs = missBytes / randomBw * 1e3;

    // NeuRex's modest buffering cannot fully overlap miss traffic with
    // on-chip gathering, so the two serialize.
    cost.gatherMs = onChipMs + dramMs;
    cost.mlpMs = _npu.mlpTimeMs(work.mlpMacs);
    cost.timeMs = cost.gatherMs + cost.mlpMs;

    double sramNj = energy.sramNj(work.vertexFetches * 32.0) * stall;
    double dramNj = energy.dramNj(0.0, missBytes);
    double macNj = work.mlpMacs * energy.macPj * 1e-3;
    double staticNj = _config.activePowerW * cost.timeMs * 1e6;
    cost.energyNj = sramNj + dramNj + macNj + staticNj;
    return cost;
}

NgpcModel::NgpcModel(const NgpcConfig &config)
    : _config(config),
      _npu(npuFor(config.peRows, config.peCols, config.freqGHz))
{
}

AccelFrameCost
NgpcModel::price(const StageWork &work,
                 const EnergyConstants &energy) const
{
    AccelFrameCost cost;

    // Conflict-free gathering from the 16 MB buffer; no DRAM traffic for
    // encodings (they are fully resident).
    double cycles =
        static_cast<double>(work.vertexFetches) / _config.gatherLanes;
    cost.gatherMs = cycles / (_config.freqGHz * 1e9) * 1e3;
    cost.mlpMs = _npu.mlpTimeMs(work.mlpMacs);
    cost.timeMs = cost.gatherMs + cost.mlpMs;

    // The huge SRAM costs extra per access (Fig. 23's size effect).
    double scale = 1.0 + 0.45 * 8.0; // 16 MB >> 64 KB knee
    double sramNj =
        work.vertexFetches * 32.0 * energy.sramPjPerByte * scale * 1e-3;
    double macNj = work.mlpMacs * energy.macPj * 1e-3;
    double staticNj = _config.activePowerW * cost.timeMs * 1e6;
    cost.energyNj = sramNj + macNj + staticNj;
    return cost;
}

} // namespace cicero
