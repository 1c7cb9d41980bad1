/**
 * @file
 * The host-side benchmark program. Runs one workload for at least the
 * requested number of seconds, in whole rounds of the same operations,
 * checks every output, and prints one JSON result line last:
 *
 *   hostbench --workload W --seed N --seconds S --trace 0|1
 *             --root DIR --bin DIR --work DIR
 *
 * --root is the source checkout (bench/expected lives there), --bin the
 * directory holding run_all and the figure binaries, --work a scratch
 * directory for checkpoints and figure caches (emptied on exit).
 *
 * Every layer is timed from outside, around calls into public functions
 * (Workload::build, the Cpu constructor, Cpu::run, Cpu::fastForward,
 * CheckpointStore::save/load, the run_all figure binaries). The untraced
 * run (--trace 0) prints the end-to-end metrics; the traced run
 * (--trace 1) repeats each round with profile=1 and prints the per-layer
 * metrics. hostbench/README.md describes the workloads and metrics.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "core/cpu.hh"
#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/run_ledger.hh"
#include "workloads/workload.hh"

extern char **environ;

namespace
{

using namespace vpsim;
using hostbench::EmuReference;
using hostbench::Failures;
using hostbench::HaltedRun;
using hostbench::StatMap;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ----- Workload make-up --------------------------------------------------

/** Memory-bound mimics that halt in seconds under MTVP-8. (vortex, at
 *  8-10 s for its MTVP-8 run alone, would leave one round per run and
 *  so no median.) */
const std::vector<std::string> mtvpMimics = {"parser", "art.4"};
/** Cache-resident mimics: no spawns, no store segments, few misses. */
const std::vector<std::string> stMimics = {"crafty", "perlbmk", "gzip.g",
                                           "galgel", "gcc.1"};
/** The short figure suite, in run_all's own order. */
const std::vector<std::string> suiteFigures = {
    "table1_config",          "fig1_oracle_potential",
    "fig2_spawn_latency",     "sec4_prefetch_ablation",
    "sec53_store_buffer",     "fig3_realistic_wf",
    "sec54_dfcm_ablation",    "fig4_fetch_policy",
    "fig5_multivalue_potential", "sec56_multi_value",
    "fig6_checkpoint_compare",
};

// The sampled long run: fig7's schedule on mcf.long.
constexpr uint64_t longInsts = 10'000'000;
constexpr uint64_t longFfInsts = 2'000'000;
constexpr int longIntervals = 20;

/** Set-ups timed in each round; the last one's Cpus run. Samples spread
 *  over the whole run average over the host's slow and fast phases,
 *  which last tens of seconds; a burst of samples at the start would
 *  see one phase. */
constexpr int setupsPerRound = 5;
/** Emulator step cap for references; a mimic that needs more is a
 *  non-halting program and fails its check. */
constexpr uint64_t emuCap = 100'000'000;

// ----- Small helpers -----------------------------------------------------

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
stat(const StatMap &s, const std::string &name)
{
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** One metric of the result line, in print order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    void fail(const std::string &what, const Failures &f)
    {
        for (const std::string &m : f) {
            std::printf("CHECK FAILED [%s]: %s\n", what.c_str(), m.c_str());
            correct = false;
        }
    }
};

void
printMetricsJson(const std::vector<Metric> &ms)
{
    std::printf("{");
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}");
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** @p v permuted by @p seed (splitmix64 + Fisher-Yates, so every
 *  platform draws the same order). */
template <typename T>
std::vector<T>
shuffled(std::vector<T> v, uint64_t seed)
{
    uint64_t x = seed;
    auto next = [&x] {
        uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[next() % i]);
    return v;
}

/**
 * Moves the constructing thread round-robin over the CPUs it may run
 * on, from a helper thread, every rotatePeriod. The CPUs of a shared
 * host slow down independently of each other (a busy sibling
 * hyperthread), for seconds to minutes at a time; a serial simulation
 * that visits every CPU measures their average rather than one CPU's
 * episode. On a 4-vCPU Xeon VM shared with other tenants, rotating cut
 * the run-to-run range of a 4 s sampled_longrun round from +-22% to
 * +-6%.
 */
class CpuRotator
{
  public:
    CpuRotator() : _tid(gettid())
    {
        CPU_ZERO(&_allowed);
        sched_getaffinity(0, sizeof(_allowed), &_allowed);
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &_allowed))
                _cpus.push_back(c);
        }
        if (_cpus.size() > 1)
            _thread = std::thread([this] { rotate(); });
    }

    ~CpuRotator()
    {
        {
            std::lock_guard<std::mutex> g(_m);
            _stop = true;
        }
        _cv.notify_one();
        if (_thread.joinable())
            _thread.join();
        sched_setaffinity(_tid, sizeof(_allowed), &_allowed);
    }

    CpuRotator(const CpuRotator &) = delete;
    CpuRotator &operator=(const CpuRotator &) = delete;

  private:
    static constexpr std::chrono::milliseconds rotatePeriod{250};

    void rotate()
    {
        std::unique_lock<std::mutex> lk(_m);
        for (size_t k = 0;
             !_cv.wait_for(lk, rotatePeriod, [this] { return _stop; });
             ++k) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(_cpus[k % _cpus.size()], &one);
            sched_setaffinity(_tid, sizeof(one), &one);
        }
    }

    const pid_t _tid;
    cpu_set_t _allowed;
    std::vector<int> _cpus;
    std::mutex _m;
    std::condition_variable _cv;
    bool _stop = false; ///< Guarded by _m.
    std::thread _thread;
};

// ----- Points of the in-process workloads --------------------------------

struct Point
{
    std::string label;
    const Workload *w = nullptr;
    SimConfig cfg;
};

SimConfig
haltConfig(uint64_t seed, VpMode mode, int contexts)
{
    SimConfig cfg;
    cfg.vpMode = mode;
    cfg.numContexts = contexts;
    cfg.maxInsts = 0; // Run to HALT.
    cfg.seed = seed;
    return cfg;
}

const Workload &
mimic(const std::string &name)
{
    const Workload *w = findWorkload(name);
    if (w == nullptr)
        fatal("hostbench: unknown workload '%s'", name.c_str());
    return *w;
}

/**
 * MTVP points build their data with seed 1, the seed of every figure
 * and of the scoreboard; @p seed permutes the order they run in. MTVP
 * host cost depends on the data far more than the simulated work does
 * (art.4 MTVP-8 to HALT takes 1.7 s with seed 1 and 140 s with seed 2,
 * for the same 166009 instructions; see README.md), so data from
 * @p seed would make the workload's time swing by two orders of
 * magnitude between seeds.
 */
std::vector<Point>
mtvpPoints(uint64_t seed)
{
    std::vector<Point> pts;
    for (const std::string &m : mtvpMimics) {
        pts.push_back({m + "/nvp", &mimic(m),
                       haltConfig(1, VpMode::None, 1)});
        pts.push_back({m + "/mtvp8", &mimic(m),
                       haltConfig(1, VpMode::Mtvp, 8)});
    }
    return shuffled(pts, seed);
}

std::vector<Point>
stPoints(uint64_t seed)
{
    std::vector<Point> pts;
    for (const std::string &m : stMimics) {
        pts.push_back({m + "/nvp", &mimic(m),
                       haltConfig(seed, VpMode::None, 1)});
        pts.push_back({m + "/stvp", &mimic(m),
                       haltConfig(seed, VpMode::Stvp, 1)});
    }
    return pts;
}

std::vector<Point>
sampledPoints(uint64_t seed)
{
    auto cfgFor = [&](VpMode mode, int ctxs) {
        SimConfig c;
        c.vpMode = mode;
        c.numContexts = ctxs;
        c.seed = seed;
        c.maxInsts = longInsts;
        c.ffInsts = longFfInsts;
        c.sampleIntervals = longIntervals;
        c.sampleIntervalInsts = 5000;
        c.sampleWarmupInsts = 2000;
        return c;
    };
    const Workload &w = mimic("mcf.long");
    // The first point fast-forwards live and saves the checkpoint; the
    // rest restore it. The last re-runs the first restoring
    // configuration with a live fast-forward, for the identity check.
    return {{"nvp", &w, cfgFor(VpMode::None, 1)},
            {"stvp", &w, cfgFor(VpMode::Stvp, 1)},
            {"mtvp4", &w, cfgFor(VpMode::Mtvp, 4)},
            {"mtvp8", &w, cfgFor(VpMode::Mtvp, 8)},
            {"stvp-live", &w, cfgFor(VpMode::Stvp, 1)}};
}

/** A point's built image and its constructed Cpu. */
struct Live
{
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<Cpu> cpu;
};

struct SetupTime
{
    double build = 0.0;
    double construct = 0.0;
};

std::vector<Live>
setUp(const std::vector<Point> &pts, bool profile, SetupTime &t)
{
    std::vector<Live> lives;
    lives.reserve(pts.size());
    for (const Point &p : pts) {
        SimConfig cfg = p.cfg;
        cfg.profile = profile;
        Live l;
        l.mem = std::make_unique<MainMemory>();
        auto t0 = Clock::now();
        Addr entry = p.w->build(*l.mem, cfg.seed);
        t.build += since(t0);
        t0 = Clock::now();
        l.cpu = std::make_unique<Cpu>(cfg, *l.mem, entry);
        t.construct += since(t0);
        lives.push_back(std::move(l));
    }
    return lives;
}

/** Host time of the profiler sections the per-layer metrics name. */
struct ProfileSum
{
    std::array<ProfEntry, numProfSections> e{};

    void add(const HostProfiler &p)
    {
        for (unsigned i = 0; i < numProfSections; ++i) {
            e[i].nanos += p.entry(static_cast<ProfSection>(i)).nanos;
            e[i].calls += p.entry(static_cast<ProfSection>(i)).calls;
        }
    }
    void add(ProfSection s, double nanos, double calls)
    {
        e[static_cast<unsigned>(s)].nanos += static_cast<uint64_t>(nanos);
        e[static_cast<unsigned>(s)].calls += static_cast<uint64_t>(calls);
    }
};

/** Simulated counts summed over the points of one pass. */
struct SimCounts
{
    double cycles = 0, skipped = 0, insts = 0, dispatched = 0;
    double spawns = 0, promotes = 0, l1dMisses = 0, l3Misses = 0;
    double mshrMerges = 0, vpFollowed = 0, vpCorrect = 0;
    double branches = 0, mispredicts = 0;

    void add(const StatMap &s)
    {
        cycles += stat(s, "cycles");
        skipped += stat(s, "sim.skippedCycles");
        insts += stat(s, "commits.useful");
        dispatched += stat(s, "dispatch.total");
        spawns += stat(s, "mtvp.spawns");
        promotes += stat(s, "analytics.spawns.promoted");
        l1dMisses += stat(s, "l1d.misses");
        l3Misses += stat(s, "l3.misses");
        mshrMerges += stat(s, "mem.mshrMerges");
        vpFollowed += stat(s, "vp.followed");
        vpCorrect += stat(s, "vp.correct");
        branches += stat(s, "bpred.lookups");
        mispredicts += stat(s, "bpred.mispredicts");
    }
};

/** Span and trace samples gathered over a run's rounds. */
struct Layers
{
    std::vector<double> setup, build, construct, wall, run;
    std::vector<double> ffSeconds, ffInsts, ckptSave, ckptLoad, ckptMb;
    std::vector<double> tracedWall, growth, half1, half2, rerun;
    std::map<std::string, std::vector<double>> figureSeconds;
    double jobsRun = 0, cacheHits = 0, rerunHits = 0, jobSeconds = 0;
    int jobs = 0;
    ProfileSum prof;
    SimCounts counts;
    double insts = 0; ///< Instructions behind kips, all rounds.
    double peakRss = 0;
};

void
recordSetup(Layers &L, const SetupTime &t)
{
    L.setup.push_back(t.build + t.construct);
    L.build.push_back(t.build);
    L.construct.push_back(t.construct);
}

// ----- Detailed runs to HALT (mtvp_to_halt, st_to_halt) ------------------

struct HaltedPass
{
    double wall = 0.0;
    std::vector<double> seconds;
    std::vector<StatMap> stats;
};

HaltedPass
runToHalt(const std::vector<Point> &pts, std::vector<Live> &lives,
          const std::map<std::string, EmuReference> &refs, Report &rep)
{
    HaltedPass pass;
    for (Live &l : lives) {
        auto t0 = Clock::now();
        l.cpu->run();
        pass.seconds.push_back(since(t0));
        pass.wall += pass.seconds.back();
    }
    for (size_t i = 0; i < pts.size(); ++i) {
        HaltedRun r;
        r.halted = lives[i].cpu->haltedUsefully();
        r.numContexts = pts[i].cfg.numContexts;
        r.stats = hostbench::statsOf(*lives[i].cpu);
        r.mem = lives[i].mem.get();
        rep.fail(pts[i].label,
                 hostbench::checkHaltedRun(r, refs.at(pts[i].w->name())));
        pass.stats.push_back(std::move(r.stats));
        ++rep.attempted;
    }
    return pass;
}

/** The point whose cost growth is measured: most contexts, then the
 *  longest emulator length. */
size_t
growthPoint(const std::vector<Point> &pts,
            const std::map<std::string, EmuReference> &refs)
{
    size_t best = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
        auto key = [&](size_t k) {
            return std::make_pair(pts[k].cfg.numContexts,
                                  refs.at(pts[k].w->name()).insts);
        };
        if (key(i) > key(best))
            best = i;
    }
    return best;
}

/** Simulated results of the first round, printed for reference: IPC
 *  and, for value-predicting points, the speedup over the same mimic's
 *  no-VP point (the model's numbers, not metrics of this benchmark). */
void
printHaltedPoints(const std::vector<Point> &pts, const HaltedPass &pass)
{
    std::printf("%-16s %9s %9s %10s %7s %9s %8s\n", "point", "host_s",
                "useful", "cycles", "ipc", "speedup%", "spawns");
    auto ipcOf = [&](size_t i) {
        return ratio(stat(pass.stats[i], "commits.useful"),
                     stat(pass.stats[i], "cycles"));
    };
    std::map<std::string, double> baseIpc;
    for (size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].cfg.vpMode == VpMode::None)
            baseIpc[pts[i].w->name()] = ipcOf(i);
    }
    for (size_t i = 0; i < pts.size(); ++i) {
        const StatMap &s = pass.stats[i];
        double ipc = ipcOf(i);
        auto base = baseIpc.find(pts[i].w->name());
        double speedup = base == baseIpc.end() || base->second == 0.0
                             ? 0.0
                             : 100.0 * (ipc / base->second - 1.0);
        std::printf("%-16s %9.3f %9.0f %10.0f %7.4f %9.2f %8.0f\n",
                    pts[i].label.c_str(), pass.seconds[i],
                    stat(s, "commits.useful"), stat(s, "cycles"), ipc,
                    speedup, stat(s, "mtvp.spawns"));
    }
}

void
runHaltedWorkload(const std::vector<Point> &pts, double seconds, bool trace,
                  Layers &L, Report &rep)
{
    std::map<std::string, EmuReference> refs;
    for (const Point &p : pts) {
        p.cfg.validate();
        if (refs.count(p.w->name()) == 0)
            refs[p.w->name()] =
                hostbench::emulate(*p.w, p.cfg.seed, emuCap);
    }
    const size_t gp = growthPoint(pts, refs);
    auto start = Clock::now();
    do {
        std::vector<Live> lives;
        for (int i = 0; i < setupsPerRound; ++i) {
            lives.clear();
            SetupTime t;
            lives = setUp(pts, false, t);
            recordSetup(L, t);
        }
        HaltedPass pass = runToHalt(pts, lives, refs, rep);
        lives.clear();
        if (L.wall.empty())
            printHaltedPoints(pts, pass);
        L.wall.push_back(pass.wall);
        L.run.push_back(pass.wall);
        for (const StatMap &s : pass.stats)
            L.insts += stat(s, "commits.useful");
        if (!trace)
            continue;

        // Same points with the profiler on.
        SetupTime tt;
        std::vector<Live> traced = setUp(pts, true, tt);
        HaltedPass tpass = runToHalt(pts, traced, refs, rep);
        L.tracedWall.push_back(tpass.wall);
        L.counts = SimCounts{};
        for (size_t i = 0; i < pts.size(); ++i) {
            L.prof.add(traced[i].cpu->profiler());
            rep.fail(pts[i].label + " traced vs untraced",
                     hostbench::checkSameStats(pass.stats[i],
                                               tpass.stats[i]));
            L.counts.add(pass.stats[i]);
        }
        traced.clear();

        // The growth point again, stopped at half its length.
        const uint64_t n = refs.at(pts[gp].w->name()).insts;
        Point half = pts[gp];
        half.cfg.maxInsts = n / 2;
        SetupTime ht;
        std::vector<Live> hl = setUp({half}, false, ht);
        auto t0 = Clock::now();
        hl[0].cpu->run();
        double h1 = since(t0);
        uint64_t useful = hl[0].cpu->usefulInsts();
        ++rep.attempted;
        if (hl[0].cpu->haltedUsefully() || useful < n / 2 || useful >= n) {
            rep.fail(half.label + " half",
                     {"half-length run stopped at " +
                      std::to_string(useful) + " of " +
                      std::to_string(n) + " instructions"});
        }
        double h2 = pass.seconds[gp] - h1;
        L.half1.push_back(h1);
        L.half2.push_back(h2);
        L.growth.push_back(ratio(h2 / static_cast<double>(n - useful),
                                 h1 / static_cast<double>(useful)));
    } while (since(start) < seconds);
    L.peakRss = peakRssMb(RUSAGE_SELF);
}

// ----- Sampled long run (sampled_longrun) --------------------------------

void
runSampledWorkload(const std::vector<Point> &pts, const std::string &work,
                   double seconds, bool trace, Layers &L, Report &rep)
{
    for (const Point &p : pts)
        p.cfg.validate();
    const Workload &w = *pts[0].w;
    const uint64_t seed = pts[0].cfg.seed;
    EmuReference ffRef = hostbench::emulate(w, seed, longFfInsts);

    // One pass: points 0..n-2 share a checkpoint in a fresh directory;
    // the last point fast-forwards live.
    int round = 0;
    double runSeconds = 0.0;
    auto pass = [&](bool profile, double &wall,
                    std::vector<StatMap> &stats) {
        std::vector<Live> lives;
        for (int i = 0; i < (profile ? 1 : setupsPerRound); ++i) {
            lives.clear();
            SetupTime t;
            lives = setUp(pts, profile, t);
            if (!profile)
                recordSetup(L, t);
        }
        std::string dir = work + "/ckpt-" + std::to_string(round++);
        fs::remove_all(dir);
        CheckpointStore store(dir);
        wall = 0.0;
        for (size_t i = 0; i < pts.size(); ++i) {
            Cpu &cpu = *lives[i].cpu;
            const bool live = i == 0 || i + 1 == pts.size();
            auto t0 = Clock::now();
            if (live) {
                uint64_t done = cpu.fastForward(longFfInsts);
                double s = since(t0);
                wall += s;
                if (!profile) {
                    L.ffSeconds.push_back(s);
                    L.ffInsts.push_back(static_cast<double>(done));
                }
                rep.fail(pts[i].label + " fast-forward",
                         hostbench::checkFastForwardImage(
                             *lives[i].mem, done, ffRef));
            }
            if (i == 0) {
                t0 = Clock::now();
                store.save(pts[i].cfg, w.name(), cpu);
                double s = since(t0);
                wall += s;
                if (!profile) {
                    L.ckptSave.push_back(s);
                    L.ckptMb.push_back(
                        static_cast<double>(fs::file_size(
                            store.entryPath(pts[i].cfg, w.name()))) /
                        1e6);
                }
            } else if (!live) {
                t0 = Clock::now();
                bool hit = store.load(pts[i].cfg, w.name(), cpu);
                double s = since(t0);
                wall += s;
                if (!profile)
                    L.ckptLoad.push_back(s);
                if (!hit)
                    rep.fail(pts[i].label, {"checkpoint load missed"});
            }
            t0 = Clock::now();
            cpu.run();
            double s = since(t0);
            wall += s;
            if (!profile)
                runSeconds += s;
            stats.push_back(hostbench::statsOf(cpu));
            rep.fail(pts[i].label,
                     hostbench::checkIntervals(stats.back(),
                                               pts[i].cfg.sampleIntervals));
            ++rep.attempted;
            if (profile)
                L.prof.add(cpu.profiler());
        }
        rep.fail("stvp restored vs live fast-forward",
                 hostbench::checkSameStats(stats[1], stats.back()));
        fs::remove_all(dir);
    };

    auto start = Clock::now();
    do {
        double wall = 0.0;
        std::vector<StatMap> stats;
        runSeconds = 0.0;
        pass(false, wall, stats);
        L.run.push_back(runSeconds);
        if (L.wall.empty()) {
            std::printf("%-10s %12s %10s %10s\n", "config", "sampleCpi",
                        "ci95", "intervals");
            for (size_t i = 0; i < pts.size(); ++i) {
                std::printf("%-10s %12.4f %10.4f %10.0f\n",
                            pts[i].label.c_str(),
                            stat(stats[i], "sample.mean.cpi"),
                            stat(stats[i], "sample.ci95.cpi"),
                            stat(stats[i], "sim.sampledIntervals"));
            }
        }
        L.wall.push_back(wall);
        for (const StatMap &s : stats)
            L.insts += stat(s, "sim.ffInsts") + stat(s, "commits.useful");
        if (!trace)
            continue;
        double twall = 0.0;
        std::vector<StatMap> tstats;
        pass(true, twall, tstats);
        L.tracedWall.push_back(twall);
        L.counts = SimCounts{};
        for (size_t i = 0; i < stats.size(); ++i) {
            rep.fail(pts[i].label + " traced vs untraced",
                     hostbench::checkSameStats(stats[i], tstats[i]));
            L.counts.add(stats[i]);
        }
    } while (since(start) < seconds);
    L.peakRss = peakRssMb(RUSAGE_SELF);
}

// ----- The figure suite (figure_suite) -----------------------------------

struct ChildRun
{
    int status = -1;
    double seconds = 0.0;
    double maxRssMb = 0.0;
};

/** Run @p argv in @p cwd with @p env added, stdout/stderr to files. */
ChildRun
runChild(const std::vector<std::string> &argv,
         const std::vector<std::string> &env, const std::string &cwd,
         const std::string &outPath, const std::string &errPath)
{
    std::vector<std::string> envStore;
    for (char **e = environ; *e != nullptr; ++e)
        envStore.emplace_back(*e);
    envStore.insert(envStore.end(), env.begin(), env.end());
    std::vector<char *> envp, args;
    for (std::string &s : envStore)
        envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> argStore = argv;
    for (std::string &s : argStore)
        args.push_back(s.data());
    args.push_back(nullptr);

    std::fflush(stdout);
    std::fflush(stderr);
    ChildRun r;
    auto t0 = Clock::now();
    pid_t pid = fork();
    if (pid < 0)
        fatal("hostbench: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        int out = open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0 || chdir(cwd.c_str()) != 0 ||
            dup2(out, 1) < 0 || dup2(err, 2) < 0)
            _exit(126);
        execve(args[0], args.data(), envp.data());
        _exit(127);
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid)
        fatal("hostbench: wait4 failed: %s", std::strerror(errno));
    r.seconds = since(t0);
    r.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    // Largest resident set among the child and the descendants it
    // waited for (Linux reports it in KiB).
    r.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

std::string
joinComma(const std::vector<std::string> &v)
{
    std::string s;
    for (const std::string &x : v)
        s += (s.empty() ? "" : ",") + x;
    return s;
}

/** The set-up every figure job repeats, timed setupsPerRound times:
 *  build an image and construct a Table-1 Cpu over it, once for each
 *  workload the figures draw on. */
void
figureSetup(Layers &L)
{
    std::vector<Point> pts;
    for (const Workload *w : allWorkloads()) {
        if (w->name().find(".long") == std::string::npos)
            pts.push_back({w->name(), w, haltConfig(1, VpMode::None, 1)});
    }
    for (int i = 0; i < setupsPerRound; ++i) {
        SetupTime t;
        setUp(pts, false, t);
        recordSetup(L, t);
    }
}

struct SuiteRun
{
    ChildRun child;
    json::Value results;
    uint64_t figuresFailed = 0; ///< Figures that did not exit 0.
};

SuiteRun
runSuite(const std::string &bin, const std::string &dir,
         const std::string &tag, const std::vector<std::string> &order,
         int jobs, std::vector<std::string> extraArgs,
         std::vector<std::string> env, Report &rep)
{
    std::vector<std::string> argv = {bin + "/run_all", "--jobs",
                                     std::to_string(jobs), "--only",
                                     joinComma(order)};
    argv.insert(argv.end(), extraArgs.begin(), extraArgs.end());
    env.push_back("MTVP_CACHE_DIR=" + dir + "/cache");
    env.push_back("MTVP_RESULTS=" + dir + "/" + tag + ".json");
    env.push_back("MTVP_SUMMARY=" + dir + "/" + tag + ".summary.json");
    env.push_back("MTVP_HISTORY=" + dir + "/history.jsonl");
    SuiteRun s;
    s.child = runChild(argv, env, dir, dir + "/" + tag + ".out",
                       dir + "/" + tag + ".err");
    std::string err;
    if (!json::parseFile(dir + "/" + tag + ".json", s.results, &err)) {
        rep.fail(tag, {"no results file: " + err});
        s.figuresFailed = order.size();
    } else if (const json::Value *figs = s.results.get("figures")) {
        for (const auto &[name, fig] : figs->obj)
            s.figuresFailed += fig.numberOr("exitStatus", -1.0) != 0.0;
    }
    if (s.child.status != 0) {
        rep.fail(tag, {"run_all exited with status " +
                       std::to_string(s.child.status) + " (see " + dir +
                       "/" + tag + ".out)"});
    }
    rep.fail(tag, hostbench::checkSuiteResults(s.results, order));
    return s;
}

/** Fold one ledger into job counts and job seconds. */
void
readLedger(const std::string &path, double &finished, double &hits,
           double &jobSeconds, SimCounts &counts, Report &rep)
{
    std::vector<LedgerEvent> events;
    if (!loadLedger(path, events)) {
        rep.fail("ledger", {"cannot read " + path});
        return;
    }
    for (const LedgerEvent &e : events) {
        if (e.kind == LedgerEventKind::Finish) {
            ++finished;
            jobSeconds += e.wallSeconds;
            counts.insts += static_cast<double>(e.insts);
            counts.cycles += static_cast<double>(e.cycles);
        } else if (e.kind == LedgerEventKind::CacheHit) {
            ++hits;
        }
    }
}

void
runFigureWorkload(const std::string &root, const std::string &bin,
                  const std::string &work, uint64_t seed, double seconds,
                  bool trace, Layers &L, Report &rep)
{
    // The figures run in an order drawn from the seed; their data use
    // seed 1, the scoreboard's seed.
    const std::vector<std::string> order = shuffled(suiteFigures, seed);
    const std::string expected = root + "/bench/expected";
    const int jobs = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    L.jobs = jobs;
    std::printf("figure order: %s (--jobs %d)\n", joinComma(order).c_str(),
                jobs);
    int round = 0;
    auto start = Clock::now();
    do {
        figureSetup(L);
        std::string dir = work + "/suite-" + std::to_string(round++);
        fs::remove_all(dir);
        fs::create_directories(dir + "/expected");

        // Cold: every figure simulated, scored against bench/expected.
        SuiteRun cold = runSuite(
            bin, dir, "cold", order, jobs,
            {"--scoreboard", "--ledger=" + dir + "/cold.jsonl"},
            {"MTVP_EXPECTED=" + expected}, rep);
        // Warm: the same run answered from the result cache.
        SuiteRun warm = runSuite(
            bin, dir, "warm", order, jobs,
            {"--ledger=" + dir + "/warm.jsonl"}, {}, rep);
        // Regenerate the expectations from the cache and score the
        // fresh files; they must cover every committed figure.
        SuiteRun regen = runSuite(
            bin, dir, "regen", order, jobs,
            {"--write-expected", "--scoreboard"},
            {"MTVP_EXPECTED=" + dir + "/expected"}, rep);
        rep.fail("write-expected", hostbench::checkRegeneratedExpectations(
                                       expected, dir + "/expected",
                                       order));

        if (L.wall.empty()) {
            std::printf("%-28s %9s\n", "figure", "cold_s");
            if (const json::Value *figs = cold.results.get("figures"))
                for (const auto &[name, fig] : figs->obj)
                    std::printf("%-28s %9.3f\n", name.c_str(),
                                fig.numberOr("wallSeconds", 0.0));
        }
        // Operations are the figures of the cold and warm runs (and of
        // the traced run below); the regeneration is a check.
        for (const SuiteRun *r : {&cold, &warm}) {
            rep.attempted += order.size();
            rep.failed += r->figuresFailed;
        }
        L.wall.push_back(cold.child.seconds);
        L.rerun.push_back(warm.child.seconds);
        L.peakRss = std::max(L.peakRss, cold.child.maxRssMb);
        if (const json::Value *figs = cold.results.get("figures")) {
            for (const auto &[name, fig] : figs->obj)
                L.figureSeconds[name].push_back(
                    fig.numberOr("wallSeconds", 0.0));
        }
        // Jobs and simulated work come from the ledgers, which the
        // figure binaries append to.
        double finished = 0, hits = 0, jobSeconds = 0;
        SimCounts counts;
        readLedger(dir + "/cold.jsonl", finished, hits, jobSeconds, counts,
                   rep);
        double wFinished = 0, wHits = 0, wJobSeconds = 0;
        SimCounts wCounts;
        readLedger(dir + "/warm.jsonl", wFinished, wHits, wJobSeconds,
                   wCounts, rep);
        L.jobsRun = finished;
        L.cacheHits = hits;
        L.rerunHits = wHits;
        L.jobSeconds = jobSeconds;
        L.insts += counts.insts;
        L.counts = counts;

        if (trace) {
            std::string tdir = dir + "/traced";
            fs::create_directories(tdir);
            SuiteRun traced = runSuite(bin, tdir, "cold", order, jobs, {},
                                       {"MTVP_PROFILE=1"}, rep);
            rep.attempted += order.size();
            rep.failed += traced.figuresFailed;
            L.tracedWall.push_back(traced.child.seconds);
            const json::Value *figs = traced.results.get("figures");
            for (const auto &[name, fig] :
                 figs != nullptr ? figs->obj
                                 : std::map<std::string, json::Value>{}) {
                const json::Value *rpt = fig.get("report");
                const json::Value *hp =
                    rpt != nullptr ? rpt->get("hostProfile") : nullptr;
                if (hp == nullptr)
                    continue;
                for (unsigned i = 0; i < numProfSections; ++i) {
                    auto s = static_cast<ProfSection>(i);
                    if (const json::Value *e = hp->get(profSectionName(s)))
                        L.prof.add(s, e->numberOr("ms", 0.0) * 1e6,
                                   e->numberOr("calls", 0.0));
                }
            }
            // The ledger has no skipped-cycle count; every tick that is
            // not skipped runs the fetch stage once.
            L.counts.skipped =
                L.counts.cycles -
                static_cast<double>(
                    L.prof.e[static_cast<unsigned>(ProfSection::Fetch)]
                        .calls) /
                    static_cast<double>(L.tracedWall.size());
        }
        fs::remove_all(dir);
    } while (since(start) < seconds);
}

// ----- Metrics -----------------------------------------------------------

std::vector<Metric>
perLayerMetrics(const Layers &L)
{
    std::vector<Metric> m;
    // Profiler totals and call counts are per traced round.
    const double rounds =
        std::max<double>(1.0, static_cast<double>(L.tracedWall.size()));
    auto add = [&m](const std::string &n, double v, const char *u) {
        m.push_back({n, v, u});
    };
    add("workloads.build_s", median(L.build), "s");
    add("core.construct_s", median(L.construct), "s");
    add("core.run_s", median(L.run), "s");
    double ffS = 0, ffN = 0;
    for (size_t i = 0; i < L.ffSeconds.size(); ++i) {
        ffS += L.ffSeconds[i];
        ffN += L.ffInsts[i];
    }
    add("emu.ff_mips", ratio(ffN, ffS) / 1e6, "Minst/s");
    add("sim.ckpt_save_s", median(L.ckptSave), "s");
    add("sim.ckpt_load_s", median(L.ckptLoad), "s");
    add("sim.ckpt_mb", median(L.ckptMb), "MB");
    for (const std::string &f : suiteFigures) {
        auto it = L.figureSeconds.find(f);
        add("bench.figure_s." + f,
            it == L.figureSeconds.end() ? 0.0 : median(it->second), "s");
    }
    add("bench.cached_rerun_s", median(L.rerun), "s");
    add("sim.jobs_run", L.jobsRun, "count");
    add("sim.cache_hits", L.cacheHits, "count");
    add("sim.rerun_cache_hits", L.rerunHits, "count");
    add("sim.job_s", L.jobSeconds, "s");
    add("sim.pool_busy_share",
        ratio(L.jobSeconds, median(L.wall) * L.jobs), "share");

    struct Sec
    {
        const char *name;
        ProfSection s;
    };
    const Sec perCall[] = {
        {"core.fetch", ProfSection::Fetch},
        {"core.dispatch", ProfSection::Dispatch},
        {"core.issue", ProfSection::Issue},
        {"core.commit", ProfSection::Commit},
        {"core.resolve", ProfSection::Resolve},
        {"core.drain", ProfSection::Drain},
        {"core.wakeup", ProfSection::Wakeup},
        {"core.timeskip", ProfSection::TimeSkip},
        {"mem.data", ProfSection::CacheData},
        {"mem.inst", ProfSection::CacheInst},
        {"vpred.predict", ProfSection::VpredPredict},
        {"vpred.train", ProfSection::VpredTrain},
    };
    for (const Sec &s : perCall) {
        const ProfEntry &e = L.prof.e[static_cast<unsigned>(s.s)];
        add(std::string(s.name) + "_ns",
            ratio(static_cast<double>(e.nanos),
                  static_cast<double>(e.calls)), "ns");
        add(std::string(s.name) + "_calls",
            static_cast<double>(e.calls) / rounds, "count");
    }
    const Sec totals[] = {
        {"emu.warmup_s", ProfSection::Warmup},
        {"sim.checkpoint_s", ProfSection::Checkpoint},
        {"sim.sampling_s", ProfSection::Sampling},
    };
    for (const Sec &s : totals) {
        add(s.name,
            static_cast<double>(L.prof.e[static_cast<unsigned>(s.s)].nanos) /
                1e9 / rounds,
            "s");
    }
    add("core.cost_growth", median(L.growth), "ratio");
    add("core.half1_s", median(L.half1), "s");
    add("core.half2_s", median(L.half2), "s");
    add("trace.overhead_s", median(L.tracedWall) - median(L.wall), "s");
    add("trace.untraced_s", median(L.wall), "s");

    const SimCounts &c = L.counts;
    add("core.cycles", c.cycles, "count");
    add("core.ticks", c.cycles - c.skipped, "count");
    add("core.skip_share", ratio(c.skipped, c.cycles), "share");
    add("core.insts", c.insts, "count");
    add("core.dispatch_per_commit", ratio(c.dispatched, c.insts), "ratio");
    add("core.spawns", c.spawns, "count");
    add("core.promote_share", ratio(c.promotes, c.spawns), "share");
    add("mem.l1d_mpki", ratio(c.l1dMisses, c.insts) * 1000.0, "1/kinst");
    add("mem.l3_mpki", ratio(c.l3Misses, c.insts) * 1000.0, "1/kinst");
    add("mem.mshr_merges", c.mshrMerges, "count");
    add("vpred.followed", c.vpFollowed, "count");
    add("vpred.accuracy", ratio(c.vpCorrect, c.vpFollowed), "share");
    add("bpred.lookups", c.branches, "count");
    add("bpred.mispredict_rate", ratio(c.mispredicts, c.branches),
        "share");
    return m;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload mtvp_to_halt|st_to_halt|"
                 "sampled_longrun|figure_suite --seed N --seconds S "
                 "--trace 0|1 --root DIR --bin DIR --work DIR\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage(argv[0]);
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char *k :
         {"workload", "seed", "seconds", "trace", "root", "bin", "work"}) {
        if (args.count(k) == 0)
            return usage(argv[0]);
    }
    const std::string workload = args["workload"];
    const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
    const bool trace = args["trace"] == "1";
    // Figure binaries run in their own directories: paths go absolute.
    const std::string root = fs::absolute(args["root"]).string();
    const std::string bin = fs::absolute(args["bin"]).string();
    const std::string work = fs::absolute(args["work"]).string();
    setVerbose(false);
    fs::create_directories(work);

    Report rep;
    Layers L;
    // The in-process workloads run serially on this thread; the figure
    // suite's jobs run in child processes on every CPU already.
    std::optional<CpuRotator> rotator;
    if (workload != "figure_suite")
        rotator.emplace();
    if (workload == "mtvp_to_halt") {
        runHaltedWorkload(mtvpPoints(seed), seconds, trace, L, rep);
    } else if (workload == "st_to_halt") {
        runHaltedWorkload(stPoints(seed), seconds, trace, L, rep);
    } else if (workload == "sampled_longrun") {
        runSampledWorkload(sampledPoints(seed), work, seconds, trace, L,
                           rep);
    } else if (workload == "figure_suite") {
        runFigureWorkload(root, bin, work, seed, seconds, trace, L, rep);
    } else {
        return usage(argv[0]);
    }

    rep.endToEnd = {
        {"setup_s", median(L.setup), "s"},
        {"wall_s", median(L.wall), "s"},
        {"kips", ratio(L.insts, std::accumulate(L.wall.begin(),
                                                 L.wall.end(), 0.0)) /
                     1000.0,
         "kinst/s"},
        {"peak_rss_mb", L.peakRss, "MB"},
    };
    rep.perLayer = perLayerMetrics(L);
    rotator.reset();

    std::printf("workload %s seed %" PRIu64 ": %zu rounds, %" PRIu64
                " operations, %" PRIu64 " failed, outputs %s\n",
                workload.c_str(), seed, L.wall.size(), rep.attempted,
                rep.failed, rep.correct ? "correct" : "INCORRECT");
    std::printf("round timed phases (s):");
    for (double w : L.wall)
        std::printf(" %.3f", w);
    std::printf("\n");
    printTable("end-to-end:", rep.endToEnd);
    if (trace)
        printTable("per-layer:", rep.perLayer);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": ",
                rep.correct ? "true" : "false", rep.attempted, rep.failed);
    printMetricsJson(trace ? rep.perLayer : rep.endToEnd);
    std::printf("}\n");
    fs::remove_all(work);
    return 0;
}
