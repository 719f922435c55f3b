#include "report.hh"

#include "workloads.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace perfbench {

int
Tracer::begin(const char *name, int parent, std::int64_t id)
{
    if (!_enabled.load(std::memory_order_relaxed))
        return -1;
    const std::int64_t t = ns(Clock::now());
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(Span{name, t, t, parent, id});
    return static_cast<int>(_spans.size()) - 1;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const std::int64_t t = ns(Clock::now());
    std::lock_guard<std::mutex> lock(_mu);
    _spans[static_cast<std::size_t>(index)].endNs = t;
}

int
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, int parent, std::int64_t id)
{
    if (!_enabled.load(std::memory_order_relaxed))
        return -1;
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(Span{name, ns(start), ns(end), parent, id});
    return static_cast<int>(_spans.size()) - 1;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _spans.size();
}

std::int64_t
Tracer::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - _epoch)
        .count();
}

bool
Tracer::write(const std::string &path,
              const std::string &contextJson) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(_mu);
    std::fprintf(f, "{\"context\": %s,\n\"spans\": [\n",
                 contextJson.c_str());
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"id\": %lld}%s\n",
                     s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     static_cast<long long>(s.id),
                     i + 1 < _spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

namespace {

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

} // namespace

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

Tail
tailOf(const std::vector<double> &v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() < 21) {
        t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
        t.label = "max";
        return t;
    }
    // The order statistic with exactly ten samples above it.
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t k = sorted.size() - 11;
    t.value = sorted[k];
    t.label = format("p%.1f", 100.0 * static_cast<double>(k) /
                                   static_cast<double>(sorted.size() - 1));
    return t;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuS()
{
    timespec ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

bool
sameImage(const cicero::Image &a, const cicero::Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    for (std::size_t i = 0; i < a.pixelCount(); ++i) {
        const float pa[3] = {a.at(i).x, a.at(i).y, a.at(i).z};
        const float pb[3] = {b.at(i).x, b.at(i).y, b.at(i).z};
        if (std::memcmp(pa, pb, sizeof(pa)) != 0)
            return false;
    }
    return true;
}

void
flipOnePixel(cicero::Image &img)
{
    if (img.empty())
        return;
    float &c = img.at(std::size_t{0}).x;
    std::uint32_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    bits ^= 1u;
    std::memcpy(&c, &bits, sizeof(bits));
}

void
Result::check(bool ok, const std::string &what)
{
    if (!ok)
        checkFailures.push_back(what);
}

std::string
format(const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

void
SchedWindow::start()
{
    _base = cicero::parallelSchedulerCounters();
    _t0 = Clock::now();
}

void
SchedWindow::stop(Result &r) const
{
    const cicero::SchedulerCounters d =
        cicero::parallelSchedulerCountersSince(_base);
    const double threadS =
        secondsSince(_t0) * cicero::parallelThreadCount();
    r.set("sched.tasks", static_cast<double>(d.tasksExecuted));
    r.set("sched.steals", static_cast<double>(d.steals));
    r.set("sched.idle_frac", threadS > 0 ? d.idleNanos * 1e-9 / threadS : 0);
    r.set("sched.dep_stall_ms", d.depStallNanos * 1e-6);
    r.set("sched.kernel_batch_avg",
          d.kernelBatchPasses ? static_cast<double>(d.kernelBatchItems) /
                                    static_cast<double>(d.kernelBatchPasses)
                              : 0.0);
}

} // namespace perfbench
