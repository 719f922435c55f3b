/**
 * @file
 * serve_open and serve_burst: load on the multi-session RenderService
 * (DirectVoxGO, Fast preset, default RenderServiceConfig). Every
 * session is a short 8-frame 48x48 head-motion clip — an orbit from a seeded
 * azimuth plus applyJitter — drawn from a seeded pool of clips.
 *
 *  - serve_open: an open loop. One generator thread admits sessions at
 *    seeded Poisson arrival times (stratified gaps, see openLoop) at
 *    one fixed offered rate, about a quarter to a third of the
 *    service's burst capacity on a 4-core AVX2 host, so fusion batches
 *    stay sparse and admission control never triggers.
 *  - serve_burst: more sessions than maxSessions are offered at once
 *    through tryAdmit, so some are shed to half resolution and some
 *    are rejected, and the backlog gives the fusion queue the most
 *    blocks to pack. It is the one workload that sheds, so the
 *    self-test runs it to prove the shed-session check.
 *
 * Request: one session. Its latency is the time to first frame, from
 * the moment the session was due. Output check: every full-resolution
 * session is bit-identical to its solo render(); every shed session is
 * bit-identical to the solo render at max(8, w/2) and counts as
 * degraded, not as a mismatch.
 *
 * End to end, the service sets cpu_ms_per_op (process CPU time per
 * delivered frame). The open loop's rate_per_s is the delivered rate,
 * which the offered load fixes unless a backlog grows.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "scene/trajectory.hh"
#include "serve/render_service.hh"
#include "workloads.hh"

namespace perfbench {

using namespace cicero;

namespace {

constexpr int kRes = 48;

/**
 * Offered load of serve_open in sessions per second: 5 sessions of 8
 * frames is 40 frames/s, between a quarter and a third of the 115-155
 * full-resolution frames/s serve_burst drains on a 4-core AVX2 host.
 * At half that capacity about half the sessions arrive while another
 * one runs, so the median time to first frame sits on the edge between
 * queued and unqueued sessions and jumps from run to run.
 */
constexpr double kOpenSessionsPerS = 5.0;

/** Sessions offered beyond maxSessions in one burst. */
constexpr int kBurstOverflow = 16;

struct Clips
{
    std::vector<std::vector<Pose>> poses;
    std::vector<std::vector<Image>> full; //!< solo render at kRes
    /** Solo render when shed, made on first use (empty until then). */
    std::vector<std::vector<Image>> half;
};

/** The service, with its model pinned in the cache. */
struct ServeBed
{
    std::unique_ptr<RenderService> service;
    SharedModelCache::Lease pin; //!< declared last: released first
};

ModelKey
serveModel()
{
    ModelKey key;
    key.scene = "lego";
    key.kind = ModelKind::DirectVoxGO;
    key.preset = ModelPreset::Fast;
    return key;
}

/** One offered session. */
struct Offer
{
    std::int64_t index = 0;
    int clip = 0;
    int id = -1;              //!< -1 rejected, -2 admission threw
    Clock::time_point due;
    Clock::time_point admitted; //!< when tryAdmit returned
    double lagS = 0.0;          //!< how late the generator offered it
};

/** What a pass of sessions produced. */
struct Tally
{
    std::vector<double> ttffS, gapS, queueS, renderS, lagS;
    std::uint64_t frames = 0;       //!< frames requested
    std::uint64_t fullFrames = 0;   //!< delivered at full resolution
    std::uint64_t shedSessions = 0, rejectedSessions = 0;
    std::uint64_t shedFrames = 0, rejectedFrames = 0, failedFrames = 0;
    std::uint64_t mismatches = 0;
    Clock::time_point lastDone;
    bool anyDone = false;
    /** Delivered frames per second: one per open loop, one per burst. */
    std::vector<double> rates;
    /** Process CPU ms per delivered frame: one per loop or burst. */
    std::vector<double> cpuMsPerFrame;

    void
    merge(const Tally &o)
    {
        auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(ttffS, o.ttffS);
        cat(gapS, o.gapS);
        cat(queueS, o.queueS);
        cat(renderS, o.renderS);
        cat(lagS, o.lagS);
        cat(rates, o.rates);
        cat(cpuMsPerFrame, o.cpuMsPerFrame);
        frames += o.frames;
        fullFrames += o.fullFrames;
        shedSessions += o.shedSessions;
        rejectedSessions += o.rejectedSessions;
        shedFrames += o.shedFrames;
        rejectedFrames += o.rejectedFrames;
        failedFrames += o.failedFrames;
        mismatches += o.mismatches;
        if (o.anyDone && (!anyDone || o.lastDone > lastDone))
            lastDone = o.lastDone;
        anyDone = anyDone || o.anyDone;
    }

    std::uint64_t
    okFrames() const
    {
        return frames - shedFrames - rejectedFrames - failedFrames;
    }
};

class ServeRun
{
  public:
    ServeRun(const Options &o, Result &r) : _o(o), _r(r) {}

    void setUp();
    void makeClips(bool withHalf);
    Tally openLoop(double seconds, std::uint64_t streamSeed);
    Tally burstLoop(double seconds, std::uint64_t streamSeed);
    void check(const Tally &t);
    void reportEndToEnd(const Tally &t);
    void reportLayers(const Tally &t);
    double setupS() const { return median(_setupS); }

    RenderService &service() { return *_bed.service; }
    const NerfModel &model() const { return _bed.pin.model(); }
    const Clips &clips() const { return _clips; }
    int framesPerClip() const { return _o.toy ? 4 : 8; }

  private:
    void collect(const Offer &offer, Tally &t);
    const std::vector<Image> &halfOracle(int clip);

    const Options &_o;
    Result &_r;
    ServeBed _bed;
    Clips _clips;
    std::vector<double> _setupS;
    bool _corruptPending = false;
    bool _corruptShedOnly = false; //!< sabotage a shed session only
};

void
ServeRun::setUp()
{
    for (int k = 0; k < kSetupRepeats; ++k) {
        _bed.pin.release();
        _bed.service.reset();
        ScopedSpan span("setup", -1, k);
        const Clock::time_point t0 = Clock::now();
        _bed.service = std::make_unique<RenderService>(RenderServiceConfig{});
        _bed.pin = _bed.service->cache().acquire(serveModel());
        _setupS.push_back(secondsSince(t0));
    }
    _corruptShedOnly = _o.corrupt == "serve_shed_frame";
    _corruptPending = _o.corrupt == "serve_frame" || _corruptShedOnly;
}

void
ServeRun::makeClips(bool withHalf)
{
    const NerfModel &model = _bed.pin.model();
    const Scene &scene = model.scene();
    const int numClips = _o.toy ? 4 : 32;
    Rng rng(_o.seed);
    for (int c = 0; c < numClips; ++c) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = rng.uniform(0.0f, 360.0f);
        std::vector<Pose> traj = orbitTrajectory(orbit, framesPerClip());
        JitterParams jitter;
        jitter.posSigma = 0.01f;
        jitter.rotSigmaDeg = 0.3f;
        jitter.seed = rng.next();
        applyJitter(traj, jitter);
        std::vector<Image> full;
        for (const Pose &p : traj)
            full.push_back(
                model.render(Camera::fromFov(kRes, kRes, scene.fovYDeg, p))
                    .image);
        _clips.poses.push_back(std::move(traj));
        _clips.full.push_back(std::move(full));
    }
    _clips.half.resize(_clips.poses.size());
    if (withHalf)
        for (int c = 0; c < numClips; ++c)
            halfOracle(c);
}

const std::vector<Image> &
ServeRun::halfOracle(int clip)
{
    std::vector<Image> &low = _clips.half[static_cast<std::size_t>(clip)];
    if (low.empty()) {
        const NerfModel &model = _bed.pin.model();
        const int half = std::max(8, kRes / 2);
        for (const Pose &p : _clips.poses[static_cast<std::size_t>(clip)])
            low.push_back(model.render(Camera::fromFov(
                                           half, half,
                                           model.scene().fovYDeg, p))
                              .image);
    }
    return low;
}

/** Session config of clip @p c. */
ServeSessionConfig
sessionConfig(const Clips &clips, int c)
{
    ServeSessionConfig sc;
    sc.model = serveModel();
    sc.width = kRes;
    sc.height = kRes;
    sc.trajectory = clips.poses[static_cast<std::size_t>(c)];
    return sc;
}

/** Offer one session now (the generator thread's only call). */
void
offer(RenderService &svc, const Clips &clips, Offer &o)
{
    ScopedSpan span("serve.admit", -1, o.index);
    try {
        o.id = svc.tryAdmit(sessionConfig(clips, o.clip));
    } catch (const std::exception &) {
        o.id = -2;
    }
    o.admitted = Clock::now();
}

void
ServeRun::collect(const Offer &offer, Tally &t)
{
    const std::uint64_t n = static_cast<std::uint64_t>(framesPerClip());
    t.frames += n;
    if (offer.id == -1) {
        ++t.rejectedSessions;
        t.rejectedFrames += n;
        return;
    }
    if (offer.id < 0) {
        t.failedFrames += n;
        return;
    }
    ServeSessionResult res;
    try {
        ScopedSpan span("serve.wait", -1, offer.index);
        res = service().wait(offer.id);
    } catch (const std::exception &) {
        t.failedFrames += n;
        return;
    }
    if (res.frames.size() != n) {
        t.failedFrames += n;
        return;
    }

    // Completion times relative to admission: frame f becomes eligible
    // at admission (f < window) or when frame f - window completed, and
    // latencyS runs from eligibility to completion. A frame is shown
    // once it and every earlier frame are done.
    const int window = service().config().defaultInflightWindow;
    std::vector<double> done(n), shown(n);
    for (std::size_t f = 0; f < n; ++f) {
        const double eligible =
            f < static_cast<std::size_t>(window) ? 0.0 : done[f - window];
        done[f] = eligible + res.frames[f].latencyS;
        shown[f] = f == 0 ? done[f] : std::max(shown[f - 1], done[f]);
        if (f > 0)
            t.gapS.push_back(shown[f] - shown[f - 1]);
        t.queueS.push_back(res.frames[f].latencyS - res.frames[f].renderS);
        t.renderS.push_back(res.frames[f].renderS);
    }
    t.lagS.push_back(offer.lagS);
    const double waited = secondsBetween(offer.due, offer.admitted);
    t.ttffS.push_back(waited + shown[0]);
    const Clock::time_point last =
        offer.admitted + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(shown[n - 1]));
    if (!t.anyDone || last > t.lastDone)
        t.lastDone = last;
    t.anyDone = true;
    tracer().record("serve.session", offer.due, last, -1, offer.index);

    if (_corruptPending && (res.downsampled || !_corruptShedOnly)) {
        flipOnePixel(res.frames[0].image);
        _corruptPending = false;
    }
    const auto &solo = res.downsampled ? halfOracle(offer.clip)
                                       : _clips.full[offer.clip];
    for (std::size_t f = 0; f < n; ++f)
        if (!sameImage(res.frames[f].image, solo[f]))
            ++t.mismatches;
    if (res.downsampled) {
        ++t.shedSessions;
        t.shedFrames += n;
    } else {
        t.fullFrames += n;
    }
}

Tally
ServeRun::openLoop(double seconds, std::uint64_t streamSeed)
{
    // Poisson arrivals with stratified gaps: the K inter-arrival gaps
    // are the K quantiles of the exponential distribution, in seeded
    // order. Every seed offers the same gaps, so the seed moves where
    // arrivals bunch up, not how often.
    Rng rng(streamSeed);
    const double rate = _o.toy ? 20.0 : kOpenSessionsPerS;
    const int k = std::max(2, static_cast<int>(std::lround(rate * seconds)));
    std::vector<double> at(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
        at[i] = -std::log(1.0 - (i + 0.5) / k) / rate;
    for (int i = k - 1; i > 0; --i)
        std::swap(at[i], at[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
    for (int i = 1; i < k; ++i)
        at[i] += at[i - 1];
    std::vector<int> clipOf(at.size());
    for (int &c : clipOf)
        c = static_cast<int>(rng.uniformInt(_clips.poses.size()));

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Offer> ready;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    const double cpu0 = processCpuS();

    // The single generator thread: sleep until each session is due,
    // offer it, hand it to the collector.
    std::thread generator([&] {
        for (std::size_t i = 0; i < at.size(); ++i) {
            Offer o;
            o.index = static_cast<std::int64_t>(i);
            o.clip = clipOf[i];
            o.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(at[i]));
            std::this_thread::sleep_until(o.due);
            o.lagS = secondsSince(o.due);
            offer(*_bed.service, _clips, o);
            std::lock_guard<std::mutex> lock(mu);
            ready.push_back(o);
            cv.notify_one();
        }
    });

    // Collect (and retire) sessions in offer order on this thread.
    Tally t;
    try {
        for (std::size_t i = 0; i < at.size(); ++i) {
            Offer o;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return !ready.empty(); });
                o = ready.front();
                ready.pop_front();
            }
            collect(o, t);
        }
    } catch (...) {
        generator.join();
        throw;
    }
    generator.join();
    const std::uint64_t delivered = t.fullFrames + t.shedFrames;
    if (t.anyDone && delivered > 0) {
        t.rates.push_back(static_cast<double>(delivered) /
                          secondsBetween(start, t.lastDone));
        t.cpuMsPerFrame.push_back((processCpuS() - cpu0) * 1e3 /
                                  static_cast<double>(delivered));
    }
    return t;
}

Tally
ServeRun::burstLoop(double seconds, std::uint64_t streamSeed)
{
    Rng rng(streamSeed);
    const int perBurst = service().config().maxSessions + kBurstOverflow;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    Tally t;
    std::int64_t next = 0;
    do {
        // Offer the whole burst at once from this (generator) thread,
        // then drain it.
        std::vector<Offer> offers(static_cast<std::size_t>(perBurst));
        const Clock::time_point start = Clock::now();
        const double cpu0 = processCpuS();
        for (Offer &o : offers) {
            o.index = next++;
            o.clip = static_cast<int>(rng.uniformInt(_clips.poses.size()));
            o.due = start;
            o.lagS = secondsSince(start);
            offer(*_bed.service, _clips, o);
        }
        Tally burst;
        for (const Offer &o : offers)
            collect(o, burst);
        if (burst.anyDone && burst.fullFrames > 0) {
            burst.rates.push_back(static_cast<double>(burst.fullFrames) /
                                  secondsBetween(start, burst.lastDone));
            burst.cpuMsPerFrame.push_back(
                (processCpuS() - cpu0) * 1e3 /
                static_cast<double>(burst.fullFrames + burst.shedFrames));
        }
        t.merge(burst);
    } while (Clock::now() < deadline || t.rates.size() < 2);
    return t;
}

void
ServeRun::check(const Tally &t)
{
    _r.attempted += t.frames;
    _r.failed += t.failedFrames;
    _r.check(t.mismatches == 0,
             format("%s: %llu served frames differ from their solo "
                    "render",
                    _o.workload.c_str(),
                    static_cast<unsigned long long>(t.mismatches)));
    _r.check(!t.ttffS.empty() && !t.lagS.empty(),
             _o.workload + ": no session was served");
}

void
ServeRun::reportEndToEnd(const Tally &t)
{
    if (t.ttffS.empty() || t.lagS.empty())
        return;
    const Tail ttff = tailOf(t.ttffS);
    const Tail gap = tailOf(t.gapS);
    const double failedFrac =
        1.0 - static_cast<double>(t.okFrames()) / t.frames;
    _r.set("setup_s", setupS());
    _r.set("peak_rss_mb", peakRssMb());
    _r.set("ok_frac", 1.0 - failedFrac);
    _r.set("rate_per_s", median(t.rates));
    _r.set("cpu_ms_per_op", median(t.cpuMsPerFrame));
    _r.note(format("%s: ttff_p50_ms %.3f ms, ttff_tail_ms %.3f ms (%s, "
                   "n=%zu sessions); frame_gap_tail_ms %.3f ms (%s, "
                   "n=%zu gaps); %s %.1f 1/s; %.3f CPU ms per "
                   "delivered frame",
                   _o.workload.c_str(), median(t.ttffS) * 1e3,
                   ttff.value * 1e3, ttff.label.c_str(), ttff.samples,
                   gap.value * 1e3, gap.label.c_str(), gap.samples,
                   _o.workload == "serve_burst" ? "burst_fps"
                                                : "delivered_fps",
                   median(t.rates), median(t.cpuMsPerFrame)));
    _r.note(format("%s: failed_frac %.4f = (rejected %llu + shed %llu + "
                   "failed %llu frames) / %llu attempted frames; %llu "
                   "sessions rejected, %llu shed; generator lag p50 %.3f "
                   "ms, max %.3f ms",
                   _o.workload.c_str(), failedFrac,
                   static_cast<unsigned long long>(t.rejectedFrames),
                   static_cast<unsigned long long>(t.shedFrames),
                   static_cast<unsigned long long>(t.failedFrames),
                   static_cast<unsigned long long>(t.frames),
                   static_cast<unsigned long long>(t.rejectedSessions),
                   static_cast<unsigned long long>(t.shedSessions),
                   median(t.lagS) * 1e3,
                   *std::max_element(t.lagS.begin(), t.lagS.end()) * 1e3));
}

void
ServeRun::reportLayers(const Tally &t)
{
    if (t.ttffS.empty() || t.lagS.empty())
        return;
    _r.set("serve.ttff_p50_ms", median(t.ttffS) * 1e3);
    _r.set("serve.ttff_tail_ms", tailOf(t.ttffS).value * 1e3);
    _r.set("serve.queue_ms_p50", median(t.queueS) * 1e3);
    _r.set("serve.queue_ms_tail", tailOf(t.queueS).value * 1e3);
    _r.set("serve.render_ms_p50", median(t.renderS) * 1e3);
    _r.set("serve.frame_gap_tail_ms", tailOf(t.gapS).value * 1e3);
    _r.set("serve.gen_lag_p50_ms", median(t.lagS) * 1e3);
    _r.set("serve.gen_lag_max_ms",
           *std::max_element(t.lagS.begin(), t.lagS.end()) * 1e3);
}

/** Fusion counters accumulated between two snapshots. */
void
reportFusion(const FusionStats &a, const FusionStats &b, Result &r)
{
    const double passes = static_cast<double>(b.passes - a.passes);
    if (passes <= 0)
        return;
    r.set("serve.fusion_avg_batch_samples",
          static_cast<double>(b.samples - a.samples) / passes);
    r.set("serve.fusion_fused_frac",
          static_cast<double>(b.fusedPasses - a.fusedPasses) / passes);
    r.set("serve.fusion_cross_session_frac",
          static_cast<double>(b.crossSessionPasses - a.crossSessionPasses) /
              passes);
}

void
runServe(const Options &o, Result &r, bool burst)
{
    ServeRun run(o, r);
    run.setUp();
    // Only bursts shed; an open loop renders a shed oracle on demand.
    run.makeClips(burst);
    auto pass = [&](double seconds, std::uint64_t streamSeed) {
        return burst ? run.burstLoop(seconds, streamSeed)
                     : run.openLoop(seconds, streamSeed);
    };
    const std::uint64_t streamSeed = o.seed * 0x9e3779b97f4a7c15ull + 1;
    r.note(format("%s: DirectVoxGO Fast, %dx%d sessions of %d frames from "
                  "%zu seeded clips; %s",
                  o.workload.c_str(), kRes, kRes, run.framesPerClip(),
                  run.clips().poses.size(),
                  burst ? format("bursts of maxSessions + %d offered at "
                                 "once",
                                 kBurstOverflow)
                              .c_str()
                        : format("open loop at %.1f sessions/s",
                                 o.toy ? 20.0 : kOpenSessionsPerS)
                              .c_str()));

    if (!o.trace) {
        const Tally t = pass(o.seconds, streamSeed);
        run.check(t);
        run.reportEndToEnd(t);
        return;
    }

    // Traced pass: the same load, half untraced (for the overhead)
    // and half with spans, scheduler and service counters.
    const Tally plain = pass(o.seconds / 2, streamSeed);
    RenderService &svc = run.service();
    const ServiceCounters c0 = svc.counters();
    const FusionStats f0 = svc.cache().fusionStatsTotal();
    tracer().setEnabled(true);
    SchedWindow window;
    window.start();
    const Tally traced = pass(o.seconds / 2, streamSeed);
    window.stop(r);
    const ServiceCounters c1 = svc.counters();
    reportFusion(f0, svc.cache().fusionStatsTotal(), r);
    run.check(plain);
    run.check(traced);
    run.reportLayers(traced);
    r.set("serve.rejected", static_cast<double>(c1.rejected - c0.rejected));
    r.set("serve.shed",
          static_cast<double>(c1.shedAdmissions - c0.shedAdmissions));
    r.set("serve.retries",
          static_cast<double>(c1.frameRetries - c0.frameRetries));
    r.set("serve.cache_misses",
          static_cast<double>(svc.cache().stats().misses));
    r.set("trace.overhead_frac",
          median(traced.ttffS) / median(plain.ttffS) - 1.0);

    const NerfModel &model = run.model();
    const Camera cam = Camera::fromFov(kRes, kRes, model.scene().fovYDeg,
                                       run.clips().poses[0][0]);
    probeNerfKernels(model, cam, r);
    const RenderResult one = model.render(cam);
    r.set("nerf.samples_per_ray",
          static_cast<double>(one.work.samples) /
              static_cast<double>(std::max<std::uint64_t>(1, one.work.rays)));
}

} // namespace

void
runServeOpen(const Options &o, Result &r)
{
    runServe(o, r, false);
}

void
runServeBurst(const Options &o, Result &r)
{
    runServe(o, r, true);
}

} // namespace perfbench
