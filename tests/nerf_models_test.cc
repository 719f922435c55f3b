/**
 * @file
 * Tests for the model factory and nominal characterization specs.
 */

#include <gtest/gtest.h>

#include "nerf/hash_grid.hh"
#include "nerf/models.hh"
#include "nerf/tensorf.hh"
#include "test_util.hh"

namespace cicero {
namespace {

TEST(ModelFactoryTest, NamesAndLists)
{
    EXPECT_STREQ(modelName(ModelKind::InstantNgp), "Instant-NGP");
    EXPECT_STREQ(modelName(ModelKind::DirectVoxGO), "DirectVoxGO");
    EXPECT_STREQ(modelName(ModelKind::TensoRF), "TensoRF");
    EXPECT_STREQ(modelName(ModelKind::EfficientNeRF), "EfficientNeRF");
    EXPECT_EQ(allModelKinds().size(), 4u);
    EXPECT_EQ(mainModelKinds().size(), 3u);
}

TEST(ModelFactoryTest, ParseModelKindAcceptsEveryAlias)
{
    const struct
    {
        const char *name;
        ModelKind kind;
    } cases[] = {
        {"ngp", ModelKind::InstantNgp},
        {"instantngp", ModelKind::InstantNgp},
        {"dvgo", ModelKind::DirectVoxGO},
        {"directvoxgo", ModelKind::DirectVoxGO},
        {"tensorf", ModelKind::TensoRF},
        {"enerf", ModelKind::EfficientNeRF},
        {"efficientnerf", ModelKind::EfficientNeRF},
        // Case and '-'/'_' are folded away, anywhere in the name.
        {"Instant-NGP", ModelKind::InstantNgp},
        {"instant_ngp", ModelKind::InstantNgp},
        {"DirectVoxGO", ModelKind::DirectVoxGO},
        {"Direct-Vox_GO", ModelKind::DirectVoxGO},
        {"TensoRF", ModelKind::TensoRF},
        {"-tenso_rf-", ModelKind::TensoRF},
        {"EfficientNeRF", ModelKind::EfficientNeRF},
        {"E-NeRF", ModelKind::EfficientNeRF},
    };
    for (const auto &c : cases) {
        ModelKind kind = c.kind == ModelKind::TensoRF
                             ? ModelKind::InstantNgp
                             : ModelKind::TensoRF;
        EXPECT_TRUE(parseModelKind(c.name, kind)) << c.name;
        EXPECT_EQ(kind, c.kind) << c.name;
    }
    // modelName() output parses back to its own kind.
    for (ModelKind k : allModelKinds()) {
        ModelKind kind = ModelKind::InstantNgp;
        EXPECT_TRUE(parseModelKind(modelName(k), kind)) << modelName(k);
        EXPECT_EQ(kind, k);
    }
}

TEST(ModelFactoryTest, ParseModelKindRejectsUnknownNames)
{
    for (const char *name :
         {"", "-", "_", "nerf", "mobilenerf", "ngp2", "dvgo ", "tenso rf",
          "instant"}) {
        ModelKind kind = ModelKind::EfficientNeRF;
        EXPECT_FALSE(parseModelKind(name, kind)) << '"' << name << '"';
        EXPECT_EQ(kind, ModelKind::EfficientNeRF) << "kind left unchanged";
    }
}

TEST(ModelFactoryTest, ParsePresetAndLayoutNames)
{
    // The canonical names, as the tools and corpus manifests write them.
    ModelPreset preset = ModelPreset::Full;
    EXPECT_TRUE(parseModelPreset("fast", preset));
    EXPECT_EQ(preset, ModelPreset::Fast);
    EXPECT_TRUE(parseModelPreset("full", preset));
    EXPECT_EQ(preset, ModelPreset::Full);
    GridLayout layout = GridLayout::MVoxelBlocked;
    EXPECT_TRUE(parseGridLayout("linear", layout));
    EXPECT_EQ(layout, GridLayout::Linear);
    EXPECT_TRUE(parseGridLayout("mvoxel", layout));
    EXPECT_EQ(layout, GridLayout::MVoxelBlocked);

    // Misspellings are rejected, leaving the value unchanged.
    for (const char *name : {"", "ful", "fulll", "Fast", "fast ", "slow"}) {
        ModelPreset p = ModelPreset::Full;
        EXPECT_FALSE(parseModelPreset(name, p)) << '"' << name << '"';
        EXPECT_EQ(p, ModelPreset::Full) << "preset left unchanged";
    }
    for (const char *name :
         {"", "mvoxl", "chanel", "Linear", "m-voxel", "linear "}) {
        GridLayout l = GridLayout::MVoxelBlocked;
        EXPECT_FALSE(parseGridLayout(name, l)) << '"' << name << '"';
        EXPECT_EQ(l, GridLayout::MVoxelBlocked) << "layout left unchanged";
    }
}

TEST(ModelFactoryTest, KindsGetMatchingEncodings)
{
    Scene scene = test::tinyScene();
    auto ngp = buildModel(ModelKind::InstantNgp, scene);
    auto dvgo = buildModel(ModelKind::DirectVoxGO, scene);
    auto tensorf = buildModel(ModelKind::TensoRF, scene);
    EXPECT_NE(dynamic_cast<const HashGridEncoding *>(&ngp->encoding()),
              nullptr);
    EXPECT_NE(
        dynamic_cast<const DenseGridEncoding *>(&dvgo->encoding()),
        nullptr);
    EXPECT_NE(
        dynamic_cast<const TensoRFEncoding *>(&tensorf->encoding()),
        nullptr);
    // buildEncoding() gives each model's encoding its shape.
    EXPECT_EQ(ngp->encoding().modelBytes(),
              buildEncoding(ModelKind::InstantNgp)->modelBytes());
    EXPECT_EQ(dvgo->encoding().modelBytes(),
              buildEncoding(ModelKind::DirectVoxGO)->modelBytes());
    EXPECT_EQ(tensorf->encoding().modelBytes(),
              buildEncoding(ModelKind::TensoRF)->modelBytes());
}

TEST(ModelFactoryTest, FullPresetIsBigger)
{
    // The sizes come from the encodings' shapes: no bake needed.
    ModelBuildOptions fast;
    ModelBuildOptions full;
    full.preset = ModelPreset::Full;
    EXPECT_GT(buildEncoding(ModelKind::DirectVoxGO, full)->modelBytes(),
              buildEncoding(ModelKind::DirectVoxGO, fast)->modelBytes());
}

TEST(ModelFactoryTest, LayoutOptionPropagates)
{
    Scene scene = test::tinyScene();
    ModelBuildOptions opts;
    opts.gridLayout = GridLayout::MVoxelBlocked;
    auto model = buildModel(ModelKind::DirectVoxGO, scene, opts);
    auto *grid =
        dynamic_cast<const DenseGridEncoding *>(&model->encoding());
    ASSERT_NE(grid, nullptr);
    EXPECT_EQ(grid->layout(), GridLayout::MVoxelBlocked);
}

TEST(ModelFactoryTest, NominalMlpMacsOrdering)
{
    // EfficientNeRF distills to a small MLP; DirectVoxGO's shallow
    // RGBNet is the largest per-sample among our four.
    EXPECT_LT(nominalMlpMacs(ModelKind::EfficientNeRF),
              nominalMlpMacs(ModelKind::DirectVoxGO));
    EXPECT_GT(nominalMlpMacs(ModelKind::InstantNgp), 0u);
}

TEST(ModelSpecTest, ImplementedSpecsHaveWorkParameters)
{
    for (const ModelSpec &spec : nominalModelSpecs()) {
        if (!spec.implemented)
            continue;
        EXPECT_GT(spec.samplesPerRay, 0.0) << spec.name;
        EXPECT_GT(spec.fetchesPerSample, 0.0) << spec.name;
        EXPECT_GT(spec.mlpMacsPerSample, 0.0) << spec.name;
    }
}

TEST(ModelSpecTest, SizesSpanThePaperRange)
{
    // Fig. 2's x-axis covers ~10 MB to ~10 GB.
    double lo = 1e18, hi = 0.0;
    for (const ModelSpec &spec : nominalModelSpecs()) {
        lo = std::min(lo, spec.modelMB);
        hi = std::max(hi, spec.modelMB);
    }
    EXPECT_LT(lo, 100.0);
    EXPECT_GT(hi, 1000.0);
}

TEST(ModelFactoryTest, SeedChangesDecoderResidualOnly)
{
    Scene scene = test::tinyScene();
    ModelBuildOptions a, b;
    a.seed = 1;
    b.seed = 2;
    auto ma = buildModel(ModelKind::DirectVoxGO, scene, a);
    auto mb = buildModel(ModelKind::DirectVoxGO, scene, b);
    Camera cam = test::tinyCamera(24);
    RenderResult ra = ma->render(cam);
    RenderResult rb = mb->render(cam);
    // Different residual seeds: images differ slightly but agree
    // strongly (the residual amplitude is small).
    EXPECT_GT(psnr(ra.image, rb.image), 35.0);
    EXPECT_LT(psnr(ra.image, rb.image), 1e9);
}

} // namespace
} // namespace cicero
