#include "nerf/models.hh"

#include <cctype>
#include <stdexcept>

#include "nerf/hash_grid.hh"
#include "nerf/tensorf.hh"

namespace cicero {

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::InstantNgp:
        return "Instant-NGP";
      case ModelKind::DirectVoxGO:
        return "DirectVoxGO";
      case ModelKind::TensoRF:
        return "TensoRF";
      case ModelKind::EfficientNeRF:
        return "EfficientNeRF";
    }
    return "?";
}

bool
parseModelKind(const std::string &name, ModelKind &kind)
{
    std::string s;
    for (char c : name)
        if (c != '-' && c != '_')
            s += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    if (s == "ngp" || s == "instantngp")
        kind = ModelKind::InstantNgp;
    else if (s == "dvgo" || s == "directvoxgo")
        kind = ModelKind::DirectVoxGO;
    else if (s == "tensorf")
        kind = ModelKind::TensoRF;
    else if (s == "enerf" || s == "efficientnerf")
        kind = ModelKind::EfficientNeRF;
    else
        return false;
    return true;
}

bool
parseModelPreset(const std::string &name, ModelPreset &preset)
{
    if (name == "fast")
        preset = ModelPreset::Fast;
    else if (name == "full")
        preset = ModelPreset::Full;
    else
        return false;
    return true;
}

bool
parseGridLayout(const std::string &name, GridLayout &layout)
{
    if (name == "linear")
        layout = GridLayout::Linear;
    else if (name == "mvoxel")
        layout = GridLayout::MVoxelBlocked;
    else
        return false;
    return true;
}

const std::vector<ModelKind> &
allModelKinds()
{
    static const std::vector<ModelKind> kinds = {
        ModelKind::InstantNgp,
        ModelKind::DirectVoxGO,
        ModelKind::TensoRF,
        ModelKind::EfficientNeRF,
    };
    return kinds;
}

const std::vector<ModelKind> &
mainModelKinds()
{
    static const std::vector<ModelKind> kinds = {
        ModelKind::InstantNgp,
        ModelKind::DirectVoxGO,
        ModelKind::TensoRF,
    };
    return kinds;
}

std::uint64_t
nominalMlpMacs(ModelKind kind)
{
    // Paper-scale MLP widths: Instant-NGP uses 2x64 (density) + 2x64
    // (color); DirectVoxGO a shallow 2x128 RGBNet; TensoRF a 2x128
    // appearance MLP; EfficientNeRF a pruned NeRF MLP.
    switch (kind) {
      case ModelKind::InstantNgp:
        return 32 * 64 + 64 * 64 + 64 * 16 + 16 * 64 + 64 * 64 + 64 * 3;
      case ModelKind::DirectVoxGO:
        return 39 * 128 + 128 * 128 + 128 * 3;
      case ModelKind::TensoRF:
        return 27 * 128 + 128 * 128 + 128 * 3;
      case ModelKind::EfficientNeRF:
        // EfficientNeRF distills shading into a small MLP and caches
        // coarse results; its cost is memory, not compute.
        return 32 * 64 + 64 * 64 + 64 * 3;
    }
    return 0;
}

std::unique_ptr<Encoding>
buildEncoding(ModelKind kind, const ModelBuildOptions &options)
{
    const bool fast = options.preset == ModelPreset::Fast;
    switch (kind) {
      case ModelKind::InstantNgp:
        return std::make_unique<HashGridEncoding>(
            fast ? HashGridConfig{} : HashGridConfig::full());
      case ModelKind::DirectVoxGO:
        return std::make_unique<DenseGridEncoding>(fast ? 96 : 160,
                                                   options.gridLayout);
      case ModelKind::TensoRF: {
        TensoRFConfig cfg;
        cfg.res = fast ? 64 : 128;
        cfg.ranks = fast ? 4 : 6;
        return std::make_unique<TensoRFEncoding>(cfg);
      }
      case ModelKind::EfficientNeRF:
        return std::make_unique<DenseGridEncoding>(fast ? 112 : 192,
                                                   options.gridLayout);
    }
    throw std::invalid_argument("unknown model kind");
}

std::unique_ptr<NerfModel>
buildModel(ModelKind kind, const Scene &scene,
           const ModelBuildOptions &options)
{
    const bool fast = options.preset == ModelPreset::Fast;
    std::unique_ptr<Encoding> enc = buildEncoding(kind, options);
    SamplerConfig sampler;
    sampler.occupancyRes = fast ? 48 : 64;
    switch (kind) {
      case ModelKind::InstantNgp:
        sampler.stepsAcross = fast ? 160 : 256;
        break;
      case ModelKind::DirectVoxGO:
      case ModelKind::TensoRF:
        sampler.stepsAcross = fast ? 144 : 224;
        break;
      case ModelKind::EfficientNeRF:
        sampler.stepsAcross = fast ? 224 : 320;
        break;
    }
    return std::make_unique<NerfModel>(scene, std::move(enc),
                                       nominalMlpMacs(kind), sampler,
                                       options.seed);
}

const std::vector<ModelSpec> &
nominalModelSpecs()
{
    // Paper-scale configurations for the Fig. 2 characterization; sizes
    // follow each paper's published setup for 800x800 Synthetic-NeRF.
    // MobileNeRF and Baking (SNeRG) are rasterization/baked pipelines
    // with no volume-marching implementation here; they carry published
    // numbers only (implemented = false).
    static const std::vector<ModelSpec> specs = [] {
        std::vector<ModelSpec> v;

        ModelSpec ngp;
        ngp.name = "Instant-NGP";
        ngp.modelMB = 64.0;
        ngp.samplesPerRay = 32.0;
        ngp.fetchesPerSample = 64.0;
        ngp.bytesPerFetch = 4.0;
        ngp.mlpMacsPerSample =
            static_cast<double>(nominalMlpMacs(ModelKind::InstantNgp));
        ngp.indexOpsPerSample = 160.0;
        ngp.interpOpsPerSample = 8 * 64.0;
        ngp.implemented = true;
        v.push_back(ngp);

        ModelSpec dvgo;
        dvgo.name = "DirectVoxGO";
        dvgo.modelMB = 600.0;
        dvgo.samplesPerRay = 48.0;
        dvgo.fetchesPerSample = 8.0;
        dvgo.bytesPerFetch = 28.0;
        dvgo.mlpMacsPerSample =
            static_cast<double>(nominalMlpMacs(ModelKind::DirectVoxGO));
        dvgo.indexOpsPerSample = 12.0;
        dvgo.interpOpsPerSample = 8 * 14.0;
        dvgo.implemented = true;
        v.push_back(dvgo);

        ModelSpec tensorf;
        tensorf.name = "TensoRF";
        tensorf.modelMB = 72.0;
        tensorf.samplesPerRay = 48.0;
        tensorf.fetchesPerSample = 18.0;
        tensorf.bytesPerFetch = 96.0;
        tensorf.mlpMacsPerSample =
            static_cast<double>(nominalMlpMacs(ModelKind::TensoRF));
        tensorf.indexOpsPerSample = 36.0;
        tensorf.interpOpsPerSample = 3 * 48 * 7.0;
        tensorf.implemented = true;
        v.push_back(tensorf);

        ModelSpec eff;
        eff.name = "EfficientNeRF";
        eff.modelMB = 2800.0;
        eff.samplesPerRay = 24.0;
        eff.fetchesPerSample = 8.0;
        eff.bytesPerFetch = 128.0;
        eff.mlpMacsPerSample =
            static_cast<double>(nominalMlpMacs(ModelKind::EfficientNeRF));
        eff.indexOpsPerSample = 12.0;
        eff.interpOpsPerSample = 8 * 64.0;
        eff.implemented = true;
        v.push_back(eff);

        ModelSpec mobile;
        mobile.name = "MobileNeRF";
        mobile.modelMB = 130.0;
        mobile.implemented = false;
        v.push_back(mobile);

        ModelSpec baking;
        baking.name = "Baking(SNeRG)";
        baking.modelMB = 1800.0;
        baking.implemented = false;
        v.push_back(baking);

        return v;
    }();
    return specs;
}

} // namespace cicero
