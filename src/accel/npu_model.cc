#include "accel/npu_model.hh"

namespace cicero {

NpuModel::NpuModel(const NpuConfig &config) : _config(config)
{
}

std::uint64_t
NpuModel::layerCycles(int batch, int in, int out) const
{
    // Weight-stationary tiling: each (rows x cols) tile streams `in`
    // activations plus pipeline fill/drain.
    std::uint64_t tilesB = (batch + _config.rows - 1) / _config.rows;
    std::uint64_t tilesO = (out + _config.cols - 1) / _config.cols;
    std::uint64_t fill = _config.rows + _config.cols;
    return tilesB * tilesO * (static_cast<std::uint64_t>(in) + fill);
}

double
NpuModel::mlpTimeMs(std::uint64_t macs) const
{
    double macsPerSecond = static_cast<double>(_config.rows) *
                           _config.cols * _config.freqGHz * 1e9 *
                           _config.utilization;
    return macs / macsPerSecond * 1e3;
}

} // namespace cicero
