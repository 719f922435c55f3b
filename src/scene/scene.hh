/**
 * @file
 * The procedural scene library.
 *
 * Substitutes the paper's datasets, which need trained checkpoints:
 *  - 8 "synthetic" scenes stand in for Synthetic-NeRF (chair, drums,
 *    ficus, hotdog, lego, materials, mic, ship);
 *  - "bonsai" stands in for Unbounded-360 Bonsai;
 *  - "ignatius" stands in for Tanks and Temples Ignatius — it is built
 *    with strongly non-diffuse materials and high depth complexity, the
 *    properties the paper's Sec. VI-F analysis depends on.
 */

#ifndef CICERO_SCENE_SCENE_HH
#define CICERO_SCENE_SCENE_HH

#include <memory>
#include <string>
#include <vector>

#include "scene/field.hh"

namespace cicero {

/**
 * A named scene: an analytic field plus the rendering metadata shared by
 * every experiment (background color, recommended camera distance).
 */
struct Scene
{
    std::string name;
    AnalyticField field;
    Vec3 background{1.0f, 1.0f, 1.0f}; //!< Synthetic-NeRF uses white bg
    float cameraDistance = 3.0f;       //!< orbit radius for trajectories
    float fovYDeg = 40.0f;             //!< vertical field of view
};

/** Names of the eight Synthetic-NeRF stand-in scenes. */
const std::vector<std::string> &syntheticSceneNames();

/** Names of the two real-world stand-in scenes. */
const std::vector<std::string> &realWorldSceneNames();

/**
 * Build a scene by name. Valid names are those returned by
 * syntheticSceneNames() and realWorldSceneNames().
 *
 * @throws std::invalid_argument for unknown names.
 */
Scene makeScene(const std::string &name);

} // namespace cicero

#endif // CICERO_SCENE_SCENE_HH
