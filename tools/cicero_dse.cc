/**
 * @file
 * `cicero_dse` — replay-driven design-space exploration:
 *
 *   cicero_dse sweep --corpus DIR [--spec FILE] [-o OUT.json]
 *              [--threads N] [--serial] [--check] [--check-all]
 *       Expand the sweep spec (or the default axes) into a config
 *       grid, price every (trace, config) pair by replaying the
 *       corpus through the accelerator stacks, and write the full
 *       results + Pareto frontier JSON. --check additionally gates
 *       the run on the subsystem's two identity contracts:
 *       replayed accelerator stats bit-identical to a live re-render
 *       of the first corpus entry, and pool-sharded results
 *       byte-identical to a serial run. --check-all re-renders and
 *       verifies *every* corpus entry instead of only the first.
 *
 *   cicero_dse pareto OUT.json
 *       Print the Pareto-optimal configs of a sweep result.
 *
 *   cicero_dse show OUT.json
 *       Print the per-config summary table of a sweep result.
 */

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/errors.hh"
#include "common/parallel.hh"
#include "dse/corpus.hh"
#include "dse/driver.hh"
#include "dse/minijson.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"

using namespace cicero;
using namespace cicero::dse;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cicero_dse <command> [options]\n"
        "\n"
        "commands:\n"
        "  sweep --corpus DIR [--spec FILE] [-o OUT.json]\n"
        "        [--threads N] [--serial] [--check] [--check-all]\n"
        "      run the config sweep over a trace corpus; --check gates\n"
        "      on replay-vs-live and parallel-vs-serial identity\n"
        "      (--check-all verifies every corpus entry, not just the\n"
        "      first)\n"
        "  pareto OUT.json\n"
        "      print the Pareto-optimal configs of a sweep result\n"
        "  show OUT.json\n"
        "      print the per-config summary of a sweep result\n"
        "\n"
        "exit codes: 0 ok, 1 check failed, 2 usage, 3 I/O error,\n"
        "            4 parse error, 5 other failure\n");
    return 2;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IoError("cannot open", path, errno);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (std::ferror(f)) {
        int err = errno;
        std::fclose(f);
        throw IoError("read error on", path, err);
    }
    std::fclose(f);
    return out;
}

/**
 * Replay-vs-live identity gate for one corpus entry: re-render it
 * from its manifest metadata and compare every accelerator stack's
 * stats JSON, live stream vs persisted trace, byte for byte.
 */
bool
checkReplayMatchesLive(const Corpus &corpus, const CorpusEntry &entry)
{
    ModelKind kind = ModelKind::DirectVoxGO;
    if (!parseModelKind(entry.model, kind))
        throw std::runtime_error("check: unknown model kind \"" +
                                 entry.model + "\" in manifest");

    ModelBuildOptions opts;
    if (!parseModelPreset(entry.preset, opts.preset))
        throw std::runtime_error("check: unknown preset \"" +
                                 entry.preset + "\" in manifest");
    if (!parseGridLayout(entry.layout, opts.gridLayout))
        throw std::runtime_error("check: unknown layout \"" +
                                 entry.layout + "\" in manifest");

    Scene scene = makeScene(entry.scene);
    auto model = buildModel(kind, scene, opts);
    if (entry.fp16)
        model->quantizeFp16();

    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    std::vector<Pose> traj = orbitTrajectory(orbit, entry.frame + 1);
    Camera cam = Camera::fromFov(entry.res, entry.res, scene.fovYDeg,
                                 traj[entry.frame]);

    // Each side is one walk of its stream into all four stacks: live,
    // measureWorkload's traced walk, which also gives the descriptor;
    // replayed, the payload, priced on the header's descriptor.
    const auto stackJsons =
        [](std::uint32_t vertexBytes,
           const std::function<TraceWorkloadDescriptor(TraceSink *)> &walk) {
            AccelStacks stacks;
            stacks.attachGpu({});
            stacks.attachBaselines({}, vertexBytes);
            const TraceWorkloadDescriptor desc = walk(&stacks);
            return std::array<std::string, 4>{
                statsJson(stacks.gpu(desc)), statsJson(stacks.npu(desc)),
                statsJson(stacks.gu(desc)),
                statsJson(stacks.baselines(desc))};
        };
    const auto live =
        stackJsons(vertexBytes(*model), [&](TraceSink *sink) {
            return measureWorkload(*model, cam, sink);
        });
    TraceFileReader reader(corpus.tracePath(entry));
    const TraceWorkloadDescriptor desc = workloadFromTrace(reader);
    const auto replayed =
        stackJsons(desc.vertexBytes, [&](TraceSink *sink) {
            reader.replay(sink);
            return desc;
        });

    const char *const names[] = {"gpu", "npu", "gu", "baselines"};
    bool ok = true;
    for (std::size_t k = 0; k < live.size(); ++k) {
        if (live[k] != replayed[k]) {
            ok = false;
            std::fprintf(stderr,
                         "cicero_dse: check FAILED: entry \"%s\": %s "
                         "stack replay diverges from live\n  live:   "
                         "%s\n  replay: %s\n",
                         entry.id.c_str(), names[k], live[k].c_str(),
                         replayed[k].c_str());
        }
    }
    return ok;
}

int
cmdSweep(const cli::Args &cli)
{
    const char *corpusDir = cli.optValue("--corpus");
    const char *specFile = cli.optValue("--spec");
    const char *outFile = cli.optValueOr("-o", cli.optValue("--out"));
    bool serial = cli.optFlag("--serial");
    bool checkAll = cli.optFlag("--check-all");
    bool check = cli.optFlag("--check") || checkAll;
    if (!cli.onlyKnownOptions())
        return usage();
    if (!corpusDir) {
        std::fprintf(stderr, "sweep: missing --corpus DIR\n");
        return usage();
    }

    SweepAxes axes;
    if (specFile)
        axes = parseSweepSpec(readFile(specFile));

    Corpus corpus = Corpus::load(corpusDir);
    DseDriver driver(axes);
    DseResult result = driver.run(corpus, !serial);

    bool replayMatchesLive = true;
    bool parallelMatchesSerial = true;
    std::size_t checkedEntries = 0;
    if (check) {
        // --check verifies the first entry; --check-all re-renders
        // and verifies every one (a model rebuild per entry — the
        // thorough gate for refreshed or hand-edited corpora).
        const std::size_t nCheck =
            checkAll ? corpus.entries().size() : std::size_t(1);
        for (std::size_t i = 0; i < nCheck; ++i)
            if (!checkReplayMatchesLive(corpus, corpus.entries()[i]))
                replayMatchesLive = false;
        checkedEntries = nCheck;
        DseResult other = driver.run(corpus, serial);
        parallelMatchesSerial = other.json() == result.json();
        if (!parallelMatchesSerial)
            std::fprintf(stderr,
                         "cicero_dse: check FAILED: parallel and "
                         "serial sweeps produced different JSON\n");
    }

    std::string json;
    if (check) {
        json = "{\n  \"replay_matches_live\": ";
        json += replayMatchesLive ? "true" : "false";
        json += ",\n  \"parallel_matches_serial\": ";
        json += parallelMatchesSerial ? "true" : "false";
        json += ",\n  \"checked_entries\": " +
                std::to_string(checkedEntries);
        json += ",\n  \"sweep\": " + result.json() + "}\n";
    } else {
        json = result.json();
    }

    if (outFile) {
        std::FILE *f = std::fopen(outFile, "wb");
        if (!f)
            throw IoError("cannot write", outFile, errno);
        if (std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
            int err = errno;
            std::fclose(f);
            throw IoError("short write on", outFile, err);
        }
        if (std::fclose(f) != 0)
            throw IoError("cannot finalize", outFile, errno);
    } else {
        std::fwrite(json.data(), 1, json.size(), stdout);
    }

    std::size_t frontier = 0;
    for (const DseConfigSummary &s : result.summaries)
        frontier += s.pareto ? 1 : 0;
    std::fprintf(stderr,
                 "cicero_dse: %zu trace(s) x %zu config(s), %zu "
                 "Pareto-optimal, threads=%d%s\n",
                 result.traceCount, result.configCount, frontier,
                 parallelThreadCount(),
                 check ? (replayMatchesLive && parallelMatchesSerial
                              ? ", checks passed"
                              : ", CHECKS FAILED")
                       : "");
    return (replayMatchesLive && parallelMatchesSerial) ? 0 : 1;
}

/** Load a sweep result, unwrapping the --check envelope if present. */
JsonValue
loadSweepJson(const std::string &path)
{
    JsonValue root = parseJson(readFile(path));
    if (const JsonValue *sweep = root.find("sweep"))
        return *sweep;
    return root;
}

int
printSummary(const cli::Args &cli, bool paretoOnly)
{
    const char *file = cli.positional(0);
    if (!cli.onlyKnownOptions())
        return usage();
    if (!file) {
        std::fprintf(stderr, "%s: missing result file\n",
                     paretoOnly ? "pareto" : "show");
        return usage();
    }
    JsonValue root = loadSweepJson(file);
    const JsonValue *summary = root.find("summary");
    if (!summary)
        throw std::runtime_error(
            std::string(file) + ": not a sweep result (no \"summary\")");

    std::printf("%-44s %12s %16s %12s %s\n", "config", "fps",
                "energy_nj", "sram_kb", "pareto");
    for (const JsonValue &s : summary->asArray("summary")) {
        bool pareto =
            s.find("pareto") && s.find("pareto")->asBool("pareto");
        if (paretoOnly && !pareto)
            continue;
        std::printf("%-44s %12.4f %16.1f %12.1f %s\n",
                    s.find("config")
                        ? s.find("config")->asString("config").c_str()
                        : "?",
                    s.find("fps") ? s.find("fps")->asNumber("fps") : 0.0,
                    s.find("energy_nj")
                        ? s.find("energy_nj")->asNumber("energy_nj")
                        : 0.0,
                    s.find("sram_bytes")
                        ? s.find("sram_bytes")->asNumber("sram_bytes") /
                              1024.0
                        : 0.0,
                    pareto ? "*" : "");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    const cli::Args cli(argc, argv, 2, "cicero_dse",
                        {"--serial", "--check", "--check-all"});
    cli.applyThreadsOption();
    try {
        if (cmd == "sweep")
            return cmdSweep(cli);
        if (cmd == "pareto")
            return printSummary(cli, true);
        if (cmd == "show")
            return printSummary(cli, false);
    } catch (const IoError &e) {
        std::fprintf(stderr, "cicero_dse: %s\n", e.what());
        return 3;
    } catch (const ParseError &e) {
        std::fprintf(stderr, "cicero_dse: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cicero_dse: %s\n", e.what());
        return 5;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
}
