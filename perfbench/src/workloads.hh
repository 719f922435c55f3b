/**
 * @file
 * The four benchmark workloads. Each one sets itself up, generates its
 * inputs from the seed, measures for the requested time with tracing
 * off, checks its outputs, and — with Options::trace — runs a traced
 * pass that fills the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common/parallel.hh"
#include "nerf/renderer.hh"
#include "report.hh"

namespace perfbench {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

void runSparwOrbit(const Options &opts, Result &result);
void runServeOpen(const Options &opts, Result &result);
void runServeBurst(const Options &opts, Result &result);
void runDseSweep(const Options &opts, Result &result);

/**
 * Time Encoding::gatherFeatureBatch and Decoder::decodeBatchSoA on the
 * shaded sample positions of @p cam, single-threaded in renderer-sized
 * blocks, and fill nerf.gather_ns_per_sample, nerf.decode_ns_per_sample
 * and nerf.samples_per_ray.
 */
struct KernelCost
{
    double gatherNsPerSample = 0.0;
    double decodeNsPerSample = 0.0;
};
KernelCost probeNerfKernels(const cicero::NerfModel &model,
                      const cicero::Camera &cam, Result &result);

/**
 * Scheduler counters over one pass, as the sched.* per-layer metrics:
 * tasks run, steals, idle share of the pool, dependency stall time and
 * mean batched-kernel size.
 */
struct SchedWindow
{
    void start();
    void stop(Result &result) const;

  private:
    Clock::time_point _t0;
    cicero::SchedulerCounters _base;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
