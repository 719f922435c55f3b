/**
 * @file
 * Shared pieces of the benchmark: run options, the in-memory span
 * recorder, the result/metric record every workload fills, and small
 * statistics helpers (median, tail percentile, peak RSS).
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/image.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seconds between two time points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Toy sizes: every workload finishes in a few seconds. */
    bool toy = false;
    /**
     * Name of one output check to sabotage (flip a pixel, alter a
     * sweep point) so the self-test can prove the check fires.
     */
    std::string corrupt;
    /** Directory for span files and scratch data (trace corpora). */
    std::string workDir = ".bench_build/work";
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
    int threads = 0; //!< pool threads (set from nproc)
};

/** One recorded span: a call into a layer, made by the benchmark. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0; //!< since the recorder's epoch
    std::int64_t endNs = 0;
    int parent = -1;          //!< index of the causing span, -1 = root
    std::int64_t id = -1;     //!< frame, session or sweep-point id
};

/**
 * In-memory span recorder. Disabled spans cost one branch; recorded
 * spans are appended under a mutex and written out once, at the end.
 */
class Tracer
{
  public:
    void
    setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const char *name, int parent = -1, std::int64_t id = -1);
    void end(int index);

    /** Record a span whose interval is already known. */
    int record(const char *name, Clock::time_point start,
               Clock::time_point end, int parent = -1,
               std::int64_t id = -1);

    std::size_t size() const;

    /** Write every span and @p contextJson to @p path as JSON. */
    bool write(const std::string &path,
               const std::string &contextJson) const;

  private:
    std::int64_t ns(Clock::time_point t) const;

    std::atomic<bool> _enabled{false};
    Clock::time_point _epoch = Clock::now();
    mutable std::mutex _mu;
    std::vector<Span> _spans;
};

Tracer &tracer();

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, int parent = -1, std::int64_t id = -1)
        : _index(tracer().begin(name, parent, id))
    {
    }
    ~ScopedSpan() { tracer().end(_index); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int _index;
};

/** A tail percentile and the sample it was taken from. */
struct Tail
{
    double value = 0.0;
    std::string label; //!< "p88.0", or "max" when the sample is small
    std::size_t samples = 0;
};

double median(std::vector<double> v);

/**
 * The highest percentile with at least ten samples beyond it: the
 * order statistic with exactly ten above. Below 21 samples that
 * percentile would fall under the median, so the maximum is reported.
 */
Tail tailOf(const std::vector<double> &v);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * CPU time this process has used so far, over all its threads, in
 * seconds. Time the hypervisor stole from the guest is not in it, so a
 * CPU cost per operation holds still on a shared host where wall time
 * does not.
 */
double processCpuS();

/** FNV-1a over @p size bytes, chained from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

/** Bit-exact image comparison (dimensions and every channel). */
bool sameImage(const cicero::Image &a, const cicero::Image &b);

/** Flip the low bit of one channel of pixel 0 (check sabotage). */
void flipOnePixel(cicero::Image &img);

/**
 * Everything one run reports. Workloads fill in the counts, the
 * metrics they measure and the outcome of every output check.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics; //!< by metric name
    std::vector<std::string> checkFailures;
    std::vector<std::string> notes; //!< human-readable result lines

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    /** Record one output check; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);

    /** Append a human-readable line printed before the result. */
    void note(const std::string &line) { notes.push_back(line); }

    bool correct() const { return checkFailures.empty(); }
};

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
