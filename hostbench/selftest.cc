/** Self-tests of the benchmark's output checks: each check passes on a
 *  real result and fails on a deliberately perturbed copy of it. */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "checks.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

using namespace hostbench;
using namespace vpsim;
namespace fs = std::filesystem;

namespace
{

/** A small detailed run to HALT plus its emulator reference. */
struct HaltedSample
{
    EmuReference ref;
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<Cpu> cpu;
    HaltedRun run;
};

std::unique_ptr<HaltedSample>
runToHalt(const std::string &workload, VpMode mode, int contexts)
{
    setVerbose(false);
    auto s = std::make_unique<HaltedSample>();
    const Workload &w = *findWorkload(workload);
    SimConfig cfg;
    cfg.vpMode = mode;
    cfg.numContexts = contexts;
    cfg.maxInsts = 0;
    s->ref = emulate(w, cfg.seed, 100'000'000);
    s->mem = std::make_unique<MainMemory>();
    Addr entry = w.build(*s->mem, cfg.seed);
    s->cpu = std::make_unique<Cpu>(cfg, *s->mem, entry);
    s->cpu->run();
    s->run.halted = s->cpu->haltedUsefully();
    s->run.numContexts = contexts;
    s->run.stats = statsOf(*s->cpu);
    s->run.mem = s->mem.get();
    return s;
}

class HaltedChecks : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        mtvp = runToHalt("wupwise", VpMode::Mtvp, 8).release();
    }
    static void TearDownTestSuite()
    {
        delete mtvp;
        mtvp = nullptr;
    }
    static HaltedSample *mtvp;
};

HaltedSample *HaltedChecks::mtvp = nullptr;

TEST_F(HaltedChecks, RealRunPasses)
{
    ASSERT_GT(mtvp->run.stats.at("mtvp.spawns"), 0.0);
    EXPECT_TRUE(checkHaltedRun(mtvp->run, mtvp->ref).empty());
}

TEST_F(HaltedChecks, NotHaltedFails)
{
    HaltedRun r = mtvp->run;
    r.halted = false;
    EXPECT_EQ(checkMatchesEmulator(r, mtvp->ref).size(), 1u);
}

TEST_F(HaltedChecks, UsefulCountOffByOneFails)
{
    HaltedRun r = mtvp->run;
    r.stats["commits.useful"] += 1;
    EXPECT_EQ(checkMatchesEmulator(r, mtvp->ref).size(), 1u);
}

TEST_F(HaltedChecks, OneFlippedMemoryByteFails)
{
    const Addr a = 0x400000;
    uint8_t old = mtvp->mem->read8(a);
    mtvp->mem->write8(a, old ^ 1);
    Failures f = checkMatchesEmulator(mtvp->run, mtvp->ref);
    mtvp->mem->write8(a, old);
    EXPECT_EQ(f.size(), 1u);
    EXPECT_TRUE(checkMatchesEmulator(mtvp->run, mtvp->ref).empty());
}

TEST_F(HaltedChecks, CpiSlotOffByOneFails)
{
    HaltedRun r = mtvp->run;
    EXPECT_TRUE(checkCpiSlots(r).empty());
    r.stats["cpi.all.base"] += 1;
    EXPECT_EQ(checkCpiSlots(r).size(), 1u);
    r = mtvp->run;
    r.numContexts = 4;
    EXPECT_EQ(checkCpiSlots(r).size(), 1u);
}

TEST_F(HaltedChecks, SpawnOutcomeOffByOneFails)
{
    HaltedRun r = mtvp->run;
    EXPECT_TRUE(checkSpawnPartition(r).empty());
    r.stats["analytics.spawns.promoted"] -= 1;
    EXPECT_EQ(checkSpawnPartition(r).size(), 1u);
}

TEST(SampledChecks, FastForwardImageAndCount)
{
    setVerbose(false);
    const Workload &w = *findWorkload("mcf");
    SimConfig cfg;
    MainMemory mem;
    Addr entry = w.build(mem, cfg.seed);
    Cpu cpu(cfg, mem, entry);
    const uint64_t n = cpu.fastForward(50'000);
    EmuReference ref = emulate(w, cfg.seed, 50'000);
    EXPECT_TRUE(checkFastForwardImage(mem, n, ref).empty());
    EXPECT_EQ(checkFastForwardImage(mem, n + 1, ref).size(), 1u);
    mem.write64(0x7ff000, mem.read64(0x7ff000) + 1);
    EXPECT_EQ(checkFastForwardImage(mem, n, ref).size(), 1u);
}

TEST(SampledChecks, RestoredMatchesLiveAndIntervals)
{
    setVerbose(false);
    const Workload &w = *findWorkload("mcf");
    SimConfig cfg;
    cfg.vpMode = VpMode::Stvp;
    cfg.maxInsts = 120'000;
    cfg.ffInsts = 50'000;
    cfg.sampleIntervals = 2;
    cfg.sampleIntervalInsts = 2000;
    cfg.sampleWarmupInsts = 1000;
    std::string dir = ::testing::TempDir() + "/hostbench_ckpt";
    fs::remove_all(dir);
    CheckpointStore store(dir);

    auto sampled = [&](bool restore) {
        MainMemory mem;
        Addr entry = w.build(mem, cfg.seed);
        Cpu cpu(cfg, mem, entry);
        if (!restore || !store.load(cfg, w.name(), cpu)) {
            cpu.fastForward(cfg.ffInsts);
            store.save(cfg, w.name(), cpu);
        }
        cpu.run();
        return statsOf(cpu);
    };
    StatMap live = sampled(false);
    StatMap restored = sampled(true);
    fs::remove_all(dir);

    EXPECT_TRUE(checkSameStats(restored, live).empty());
    EXPECT_TRUE(checkIntervals(restored, 2).empty());
    EXPECT_EQ(checkIntervals(restored, 3).size(), 1u);
    StatMap perturbed = restored;
    perturbed["cycles"] += 1;
    EXPECT_EQ(checkSameStats(perturbed, live).size(), 1u);
    perturbed.erase("cycles");
    EXPECT_EQ(checkSameStats(perturbed, live).size(), 1u);
}

json::Value
parsed(const std::string &text)
{
    json::Value v;
    EXPECT_TRUE(json::parse(text, v));
    return v;
}

std::string
row(double ipc, double baseIpc, double speedupPct)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"mcf\", \"config\": \"mtvp8\", "
                  "\"ipc\": %.17g, \"baseIpc\": %.17g, "
                  "\"speedupPct\": %.17g}",
                  ipc, baseIpc, speedupPct);
    return buf;
}

TEST(FigureChecks, SpeedupMustFollowFromItsOwnIpcs)
{
    const double ipc = 0.3462004500605851, base = 0.32575058363646237;
    const double good = 100.0 * (ipc / base - 1.0);
    json::Value ok = parsed("{\"rows\": [" + row(ipc, base, good) + "]}");
    EXPECT_TRUE(checkFigureRows("fig", ok).empty());
    json::Value bad = parsed("{\"rows\": [" +
                             row(ipc, base, std::nextafter(good, 1e9)) +
                             "]}");
    EXPECT_EQ(checkFigureRows("fig", bad).size(), 1u);
}

TEST(FigureChecks, SuiteResultsNeedEveryFigureToExitZero)
{
    std::string fig = "{\"exitStatus\": 0, \"report\": {\"rows\": [" +
                      row(0.5, 0.25, 100.0) + "]}}";
    json::Value ok = parsed("{\"figures\": {\"a\": " + fig +
                            ", \"b\": {\"exitStatus\": 0, \"report\": "
                            "null}}}");
    EXPECT_TRUE(checkSuiteResults(ok, {"a", "b"}).empty());
    EXPECT_EQ(checkSuiteResults(ok, {"a", "b", "c"}).size(), 1u);
    json::Value failed = parsed("{\"figures\": {\"a\": " + fig +
                                ", \"b\": {\"exitStatus\": 256, "
                                "\"report\": null}}}");
    EXPECT_EQ(checkSuiteResults(failed, {"a", "b"}).size(), 1u);
}

TEST(FigureChecks, RegeneratedExpectationsMustCoverCommittedOnes)
{
    std::string root = ::testing::TempDir() + "/hostbench_expected";
    fs::remove_all(root);
    fs::create_directories(root + "/committed");
    fs::create_directories(root + "/regen");
    auto write = [](const std::string &path, int points) {
        std::ofstream os(path);
        os << "{\"points\": [";
        for (int i = 0; i < points; ++i)
            os << (i ? ", " : "") << "{\"expected\": " << i << "}";
        os << "]}";
    };
    write(root + "/committed/fig.json", 2);
    EXPECT_EQ(checkRegeneratedExpectations(root + "/committed",
                                           root + "/regen", {"fig"})
                  .size(),
              1u); // Not regenerated.
    write(root + "/regen/fig.json", 1);
    EXPECT_EQ(checkRegeneratedExpectations(root + "/committed",
                                           root + "/regen", {"fig"})
                  .size(),
              1u); // A point short.
    write(root + "/regen/fig.json", 2);
    EXPECT_TRUE(checkRegeneratedExpectations(root + "/committed",
                                             root + "/regen", {"fig"})
                    .empty());
    EXPECT_EQ(checkRegeneratedExpectations(root + "/committed",
                                           root + "/regen", {"other"})
                  .size(),
              1u); // Nothing to compare is a failure too.
    fs::remove_all(root);
}

} // namespace
