/**
 * @file
 * Benchmark entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--toy] [--corrupt CHECK] [--work-dir DIR]
 *             [--git-sha SHA] [--src-digest HEX]
 *
 * Prints human-readable result lines, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits
 * 1 when an output check fails, 2 on a usage error (no result line).
 */

#include <sched.h>
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <utility>
#include <string>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Every workload reports every metric of a table; see README.md for
// what each one means on each workload. Keep in step with
// BENCHMARK.json (the self-test compares the two).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
    {"rate_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
};

const MetricDef kPerLayer[] = {
    {"nerf.ref_render_ms", "ms"},
    {"nerf.fill_us_per_px", "us"},
    {"nerf.gather_ns_per_sample", "ns"},
    {"nerf.decode_ns_per_sample", "ns"},
    {"nerf.samples_per_ray", "count"},
    {"nerf.gather_share", "frac"},
    {"nerf.gather_share_modelled", "frac"},
    {"nerf.decode_share", "frac"},
    {"nerf.decode_share_modelled", "frac"},
    {"nerf.other_share", "frac"},
    {"nerf.other_share_modelled", "frac"},
    {"nerf.trace_walk_ns_per_ray", "ns"},
    {"cicero.warp_ms", "ms"},
    {"cicero.overlap_frac", "frac"},
    {"cicero.rerender_frac", "frac"},
    {"cicero.ref_share", "frac"},
    {"cicero.psnr_db", "dB"},
    {"sched.tasks", "count"},
    {"sched.steals", "count"},
    {"sched.idle_frac", "frac"},
    {"sched.dep_stall_ms", "ms"},
    {"sched.kernel_batch_avg", "count"},
    {"serve.ttff_p50_ms", "ms"},
    {"serve.ttff_tail_ms", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_tail", "ms"},
    {"serve.render_ms_p50", "ms"},
    {"serve.frame_gap_tail_ms", "ms"},
    {"serve.gen_lag_p50_ms", "ms"},
    {"serve.gen_lag_max_ms", "ms"},
    {"serve.fusion_avg_batch_samples", "count"},
    {"serve.fusion_fused_frac", "frac"},
    {"serve.fusion_cross_session_frac", "frac"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.retries", "count"},
    {"serve.cache_misses", "count"},
    {"memory.trace_write_ns_per_access", "ns"},
    {"memory.trace_bytes_per_access", "B"},
    {"memory.trace_read_ns_per_access", "ns"},
    {"dse.capture_rays_per_s", "1/s"},
    {"dse.gpu_stack_ms", "ms"},
    {"dse.npu_stack_ms", "ms"},
    {"dse.gu_stack_ms", "ms"},
    {"dse.baseline_stack_ms", "ms"},
    {"dse.point_ms", "ms"},
    {"dse.decode_share", "frac"},
    {"dse.stack_share", "frac"},
    {"dse.parallel_eff", "frac"},
    {"trace.overhead_frac", "frac"},
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "sparw_orbit|serve_open|serve_burst|dse_sweep --seed N "
                 "--seconds S --trace 0|1 [--toy] [--corrupt CHECK] "
                 "[--work-dir DIR] [--git-sha SHA] [--src-digest HEX]\n",
                 msg);
    return 2;
}

/** CPUs this process may run on (what `nproc` prints). */
int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

bool
parseArgs(int argc, char **argv, Options &o, std::string &err)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *&out) {
            if (i + 1 >= argc) {
                err = "missing value for " + a;
                return false;
            }
            out = argv[++i];
            return true;
        };
        const char *v = nullptr;
        if (a == "--toy") {
            o.toy = true;
        } else if (a == "--workload" || a == "--seed" ||
                   a == "--seconds" || a == "--trace" ||
                   a == "--corrupt" || a == "--work-dir" ||
                   a == "--git-sha" || a == "--src-digest") {
            if (!value(v))
                return false;
            char *end = nullptr;
            if (a == "--workload") {
                o.workload = v;
            } else if (a == "--seed") {
                o.seed = std::strtoull(v, &end, 10);
                haveSeed = end && *end == '\0' && end != v;
            } else if (a == "--seconds") {
                o.seconds = std::strtod(v, &end);
                haveSeconds = end && *end == '\0' && o.seconds > 0.0;
            } else if (a == "--trace") {
                haveTrace = std::strcmp(v, "0") == 0 ||
                            std::strcmp(v, "1") == 0;
                o.trace = std::strcmp(v, "1") == 0;
            } else if (a == "--corrupt") {
                o.corrupt = v;
            } else if (a == "--work-dir") {
                o.workDir = v;
            } else if (a == "--git-sha") {
                o.gitSha = v;
            } else {
                o.srcDigest = v;
            }
        } else {
            err = "unknown argument " + a;
            return false;
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace) {
        err = "--workload, --seed, --seconds and --trace are required";
        return false;
    }
    return true;
}

/**
 * Jiffies of all CPUs as {total, steal}, from the first line of
 * /proc/stat; zeros where it cannot be read.
 */
std::pair<unsigned long long, unsigned long long>
cpuJiffies()
{
    unsigned long long v[8] = {};
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return {0, 0};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    if (n != 8)
        return {0, 0};
    unsigned long long total = 0;
    for (unsigned long long x : v)
        total += x;
    return {total, v[7]};
}

/** mkdir -p for a relative or absolute path. */
bool
makeDirs(const std::string &path)
{
    std::string cur;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!cur.empty() && ::mkdir(cur.c_str(), 0755) != 0 &&
                errno != EEXIST)
                return false;
        }
        if (i < path.size())
            cur += path[i];
    }
    return true;
}

std::string
contextJson(const Options &o)
{
    return format("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                  "\"toy\": %s, \"nproc\": %d, \"pool_threads\": %d, "
                  "\"simd\": \"%s\", \"build_type\": \"%s\", "
                  "\"git_sha\": \"%s\", \"src_digest\": \"%s\"}",
                  o.workload.c_str(),
                  static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                  o.toy ? "true" : "false", affinityCpus(),
                  cicero::parallelThreadCount(),
                  cicero::simd::backendName(cicero::simd::activeBackend()),
                  PERFBENCH_BUILD_TYPE, o.gitSha.c_str(),
                  o.srcDigest.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string err;
    if (!parseArgs(argc, argv, opts, err))
        return usage(err.c_str());

    void (*run)(const Options &, Result &) = nullptr;
    if (opts.workload == "sparw_orbit")
        run = runSparwOrbit;
    else if (opts.workload == "serve_open")
        run = runServeOpen;
    else if (opts.workload == "serve_burst")
        run = runServeBurst;
    else if (opts.workload == "dse_sweep")
        run = runDseSweep;
    else
        return usage(("unknown workload " + opts.workload).c_str());

    if (!makeDirs(opts.workDir)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     opts.workDir.c_str());
        return 2;
    }

    // The pool runs at nproc threads, whatever CICERO_THREADS says.
    opts.threads = affinityCpus();
    cicero::setParallelThreadCount(opts.threads);
    tracer().setEnabled(false);

    const std::string context = contextJson(opts);
    std::printf("host %s\n", context.c_str());

    Result result;
    const auto jiffies0 = cpuJiffies();
    try {
        run(opts, result);
    } catch (const std::exception &e) {
        // An error escaping a workload is an operation that failed;
        // the run still reports, and the result is not correct.
        ++result.failed;
        result.check(false, std::string("workload threw: ") + e.what());
    }

    // Time the hypervisor gave this machine's CPUs to other guests: a
    // run with a large share measured a slower machine.
    const auto jiffies1 = cpuJiffies();
    if (jiffies1.first > jiffies0.first)
        result.note(format("host cpu steal %.1f%% during the run",
                           100.0 *
                               static_cast<double>(jiffies1.second -
                                                   jiffies0.second) /
                               static_cast<double>(jiffies1.first -
                                                   jiffies0.first)));

    if (opts.trace) {
        const std::string path =
            format("%s/spans-%s-seed%llu.json", opts.workDir.c_str(),
                   opts.workload.c_str(),
                   static_cast<unsigned long long>(opts.seed));
        if (!tracer().write(path, context))
            result.check(false, "cannot write span file " + path);
        else
            std::printf("spans %zu written to %s\n", tracer().size(),
                        path.c_str());
    }

    // Assemble the metric object of this mode; every name of the table
    // must be present, per-layer metrics of layers the workload does
    // not run read 0 (the workload never calls into that layer).
    std::set<std::string> known;
    for (const MetricDef &m : kEndToEnd)
        known.insert(m.name);
    for (const MetricDef &m : kPerLayer)
        known.insert(m.name);
    for (const auto &kv : result.metrics)
        if (!known.count(kv.first))
            result.check(false, "unknown metric " + kv.first);

    std::string metrics;
    auto emit = [&](const MetricDef &m, double v) {
        if (!std::isfinite(v)) {
            result.check(false, std::string("non-finite metric ") + m.name);
            v = 0.0;
        }
        metrics += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          metrics.empty() ? "" : ", ", m.name, v, m.unit);
    };
    if (!opts.trace) {
        for (const MetricDef &m : kEndToEnd) {
            auto it = result.metrics.find(m.name);
            if (it == result.metrics.end())
                result.check(false, std::string("missing metric ") + m.name);
            emit(m, it == result.metrics.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricDef &m : kPerLayer) {
            auto it = result.metrics.find(m.name);
            emit(m, it == result.metrics.end() ? 0.0 : it->second);
        }
    }

    for (const std::string &line : result.notes)
        std::printf("%s\n", line.c_str());
    for (const std::string &f : result.checkFailures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    if (result.attempted == 0)
        result.attempted = 1; // the run itself was attempted
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.correct() ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
}
