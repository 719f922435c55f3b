/**
 * @file
 * Model factory: build the NeRF algorithm variants the paper evaluates
 * (Instant-NGP, DirectVoxGO, TensoRF — Sec. V) plus the
 * EfficientNeRF-like variant used in the characterization figures.
 *
 * Two presets exist:
 *  - Fast: reduced resolutions for tests and trace experiments;
 *  - Full: the scale used by quality benches.
 * Nominal (paper-scale) model sizes for Fig. 2 come from
 * nominalModelSpec(), which computes sizes from each paper's published
 * configuration without allocating storage.
 */

#ifndef CICERO_NERF_MODELS_HH
#define CICERO_NERF_MODELS_HH

#include <memory>
#include <string>
#include <vector>

#include "nerf/dense_grid.hh"
#include "nerf/renderer.hh"

namespace cicero {

/** NeRF algorithms with full functional implementations. */
enum class ModelKind
{
    InstantNgp,
    DirectVoxGO,
    TensoRF,
    EfficientNeRF,
};

/** Display name matching the paper's figures. */
const char *modelName(ModelKind kind);

/**
 * Parse a model-kind name as the command-line tools spell it: case and
 * '-'/'_' are ignored; "ngp"/"instantngp", "dvgo"/"directvoxgo",
 * "tensorf" and "enerf"/"efficientnerf" are accepted. Returns false,
 * leaving @p kind unchanged, for any other name.
 */
bool parseModelKind(const std::string &name, ModelKind &kind);

/** The four fully-implemented algorithms, in figure order. */
const std::vector<ModelKind> &allModelKinds();

/** The three algorithms of the headline evaluation (Sec. V). */
const std::vector<ModelKind> &mainModelKinds();

/** Resolution/size preset. */
enum class ModelPreset
{
    Fast, //!< small grids: unit tests, trace experiments
    Full, //!< quality-bench scale
};

/**
 * Parse a preset name as the command-line tools and corpus manifests
 * spell it: "fast" or "full". Returns false, leaving @p preset
 * unchanged, for any other name.
 */
bool parseModelPreset(const std::string &name, ModelPreset &preset);

/**
 * Parse a dense-grid layout name: "linear" or "mvoxel". Returns false,
 * leaving @p layout unchanged, for any other name.
 */
bool parseGridLayout(const std::string &name, GridLayout &layout);

/** Options controlling model construction. */
struct ModelBuildOptions
{
    ModelPreset preset = ModelPreset::Fast;
    GridLayout gridLayout = GridLayout::Linear; //!< dense-grid DRAM layout
    std::uint64_t seed = 7;
};

/** Build and bake a model of @p kind for @p scene. */
std::unique_ptr<NerfModel> buildModel(ModelKind kind, const Scene &scene,
                                      const ModelBuildOptions &options = {});

/**
 * The encoding buildModel() gives a model of @p kind, not yet baked:
 * its shape, and so its modelBytes(), without the cost of a bake.
 */
std::unique_ptr<Encoding> buildEncoding(ModelKind kind,
                                        const ModelBuildOptions &options = {});

/**
 * Characterization descriptor for Fig. 2: name, nominal (paper-scale)
 * model size and per-frame work at 800x800, for the six models the
 * paper charts. Models without a functional implementation here
 * (MobileNeRF, Baking/SNeRG) carry the published figures only.
 */
struct ModelSpec
{
    std::string name;
    double modelMB = 0.0;         //!< nominal model size
    double samplesPerRay = 0.0;   //!< average computed samples per ray
    double fetchesPerSample = 0.0;
    double bytesPerFetch = 0.0;
    double mlpMacsPerSample = 0.0;
    double indexOpsPerSample = 0.0;
    double interpOpsPerSample = 0.0;
    bool implemented = false;     //!< has a functional model in this repo
};

/** The six characterization specs of Fig. 2. */
const std::vector<ModelSpec> &nominalModelSpecs();

/** Nominal per-sample MLP MACs of an implemented algorithm. */
std::uint64_t nominalMlpMacs(ModelKind kind);

} // namespace cicero

#endif // CICERO_NERF_MODELS_HH
