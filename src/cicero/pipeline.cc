#include "cicero/pipeline.hh"

#include <algorithm>

namespace cicero {

const char *
variantName(SystemVariant variant)
{
    switch (variant) {
      case SystemVariant::Baseline:
        return "Baseline";
      case SystemVariant::Sparw:
        return "SPARW";
      case SystemVariant::SparwFs:
        return "SPARW+FS";
      case SystemVariant::Cicero:
        return "CICERO";
    }
    return "?";
}

PerformanceModel::PerformanceModel(const GpuConfig &localGpu,
                                   const NpuConfig &npu,
                                   const GatheringUnitConfig &gu,
                                   const GpuConfig &remoteGpu,
                                   const EnergyConstants &energy)
    : _localGpu(localGpu), _npu(npu), _gu(gu), _remoteGpu(remoteGpu),
      _energy(energy)
{
}

FramePrice
PerformanceModel::nerfCost(SystemVariant variant, const StageWork &work,
                           const GatherProfile &profile,
                           const StreamPlan &plan,
                           std::uint32_t vertexBytes) const
{
    FramePrice price;

    // Indexing always runs on the GPU (Fig. 14).
    GpuStageTimes t = _localGpu.timeNerfFrame(work, profile);
    double gpuMs = t.indexMs + t.compositeMs;
    double npuMs = _npu.mlpTimeMs(work.mlpMacs);
    double gatherMs = 0.0;
    double dramNj = 0.0;
    double guNj = 0.0;
    double guDramNj = 0.0;

    switch (variant) {
      case SystemVariant::Baseline:
      case SystemVariant::Sparw: {
        // Pixel-centric gather on the GPU: cache misses produce
        // random-heavy DRAM traffic.
        gatherMs = t.gatherMs;
        dramNj = _localGpu.gatherDramEnergyNj(work, profile, _energy);
        gpuMs += gatherMs;
        break;
      }
      case SystemVariant::SparwFs: {
        // Memory-centric gather in software: the RIT (built against the
        // occupancy grid during Indexing) prunes empty samples, every
        // MVoxel is read once and streaming; hashed-level residue stays
        // random. GpuModel::streamingGatherMs prices that loop; its 40%
        // issue rate is what a software RIT walk sustains.
        gatherMs = _localGpu.streamingGatherMs(plan);
        dramNj = planDramEnergyNj(plan, _energy);
        gpuMs += gatherMs;
        break;
      }
      case SystemVariant::Cicero: {
        // The GU performs gathering; it overlaps with NPU MLP work via
        // the double-buffered global feature buffer.
        GuCost gu = _gu.price(plan, vertexBytes,
                              _localGpu.config().dram, _energy);
        gatherMs = gu.timeMs;
        guNj = gu.energyNj; // includes its DRAM traffic
        guDramNj = gu.dramEnergyNj;
        break;
      }
    }

    double npuNj = _npu.energyNj(npuMs) +
                   work.mlpMacs * _energy.macPj * 1e-3;
    double gpuNj = _localGpu.energyNj(gpuMs);

    if (variant == SystemVariant::Cicero) {
        // GPU indexing, then gather (GU) overlapped with MLP (NPU).
        price.timeMs = t.indexMs + t.compositeMs +
                       std::max(gatherMs, npuMs);
    } else {
        price.timeMs = gpuMs + npuMs;
    }
    price.energyNj = gpuNj + npuNj + dramNj + guNj;
    price.dramEnergyNj = dramNj + guDramNj;
    price.fullFrameMs = price.timeMs;
    return price;
}

FramePrice
PerformanceModel::warpCost(std::uint64_t points) const
{
    FramePrice price;
    // Eqs. 1-3 each touch every point once; the depth test adds a
    // projection pass. The paper measures <1 ms per million points.
    price.warpMs = _localGpu.warpTimeMs(points * 2);
    price.timeMs = price.warpMs;
    price.energyNj = _localGpu.energyNj(price.timeMs);
    return price;
}

std::pair<FramePrice, FramePrice>
PerformanceModel::targetFrameCost(SystemVariant variant,
                                  const WorkloadInputs &inputs) const
{
    FramePrice sparse =
        nerfCost(variant, inputs.sparsePerFrame, inputs.gatherProfile,
                 inputs.sparseStreamPlan, inputs.vertexBytes);
    double overhead = _localGpu.config().sparseDispatchOverhead;
    sparse.timeMs *= overhead;
    sparse.energyNj *= overhead;
    sparse.dramEnergyNj *= overhead; // still the DRAM share of energyNj
    return {sparse, warpCost(inputs.warpPointsPerFrame)};
}

FramePrice
PerformanceModel::priceFullFrame(SystemVariant variant,
                                 const WorkloadInputs &inputs) const
{
    return nerfCost(variant, inputs.fullFrame, inputs.gatherProfile,
                    inputs.fullStreamPlan, inputs.vertexBytes);
}

FramePrice
PerformanceModel::priceLocal(SystemVariant variant,
                             const WorkloadInputs &inputs) const
{
    if (variant == SystemVariant::Baseline)
        return priceFullFrame(variant, inputs);

    // Reference frames amortize over the window but contend for the
    // same device resources, so their time adds (Sec. VI-C).
    FramePrice ref = priceFullFrame(variant, inputs);
    auto [sparse, warp] = targetFrameCost(variant, inputs);

    FramePrice price;
    double n = std::max(1, inputs.window);
    price.fullFrameMs = ref.timeMs / n;
    price.sparseMs = sparse.timeMs;
    price.warpMs = warp.timeMs;
    price.timeMs = price.fullFrameMs + price.sparseMs + price.warpMs;
    price.energyNj = ref.energyNj / n + sparse.energyNj + warp.energyNj +
                     _energy.socStaticW * price.timeMs * 1e6;
    price.dramEnergyNj = ref.dramEnergyNj / n + sparse.dramEnergyNj;
    return price;
}

FramePrice
PerformanceModel::priceRemote(SystemVariant variant,
                              const WorkloadInputs &inputs) const
{
    // Frame transfer: RGB (3 B/px); references also ship a 2 B/px depth
    // map for warping.
    const double bytesPerPixelFrame = 3.0;
    const double bytesPerPixelRef = 5.0;
    const double wirelessBps = _energy.wirelessMBps * 1e6;

    if (variant == SystemVariant::Baseline) {
        // Entire rendering offloaded; the device only receives pixels.
        GpuStageTimes t = _remoteGpu.timeNerfFrame(inputs.fullFrame,
                                                   inputs.gatherProfile);
        double renderMs = t.totalMs();
        double commBytes = inputs.framePixels * bytesPerPixelFrame;
        double commMs = commBytes / wirelessBps * 1e3;

        FramePrice price;
        // Streamed frames pipeline: rendering and transfer overlap.
        price.timeMs = std::max(renderMs, commMs);
        price.otherMs = commMs;
        price.fullFrameMs = renderMs;
        // Device-side energy: wireless reception only (Sec. VI-C).
        price.energyNj = commBytes * _energy.wirelessNjPerByte;
        return price;
    }

    // SPARW variants: the reference renders remotely and its pixels +
    // depth ship once per window; targets render locally with the
    // variant's engines for the sparse work.
    GpuStageTimes t = _remoteGpu.timeNerfFrame(inputs.fullFrame,
                                               inputs.gatherProfile);
    double n = std::max(1, inputs.window);
    double refRemoteMs = t.totalMs();
    double refCommBytes = inputs.framePixels * bytesPerPixelRef;
    double refCommMs = refCommBytes / wirelessBps * 1e3;

    auto [sparse, warp] = targetFrameCost(variant, inputs);

    FramePrice price;
    double localMs = sparse.timeMs + warp.timeMs;
    // Remote rendering and transfer overlap target-frame production;
    // they bound throughput only if slower than N local frames.
    price.timeMs = std::max(localMs, (refRemoteMs + refCommMs) / n);
    price.fullFrameMs = (refRemoteMs + refCommMs) / n;
    price.sparseMs = sparse.timeMs;
    price.warpMs = warp.timeMs;
    price.otherMs = refCommMs / n;
    price.energyNj = sparse.energyNj + warp.energyNj +
                     refCommBytes * _energy.wirelessNjPerByte / n;
    price.dramEnergyNj = sparse.dramEnergyNj;
    return price;
}

PerformanceModel::GatherPrice
PerformanceModel::priceGatherOnly(const WorkloadInputs &inputs) const
{
    GatherPrice out;
    GpuStageTimes t = _localGpu.timeNerfFrame(inputs.fullFrame,
                                              inputs.gatherProfile);
    out.gpuMs = t.gatherMs;
    out.gpuEnergyNj = _localGpu.energyNj(out.gpuMs) +
                      _localGpu.gatherDramEnergyNj(inputs.fullFrame,
                                                   inputs.gatherProfile,
                                                   _energy);

    GuCost gu = _gu.price(inputs.fullStreamPlan, inputs.vertexBytes,
                          _localGpu.config().dram, _energy);
    out.guMs = gu.timeMs;
    out.guEnergyNj = gu.energyNj;
    return out;
}

} // namespace cicero
