/**
 * @file
 * Output checks of the host-side benchmark. Every detailed run is
 * checked against a separate run of the functional emulator, or against
 * a property the method must have (CPI-stack slots sum to cycles x
 * contexts; spawn outcomes partition the spawns; a restored checkpoint
 * is bit-identical to a live fast-forward). Each check returns the
 * failures it found, so the self-tests can show that a perturbed result
 * fails exactly the check that covers it.
 */

#ifndef HOSTBENCH_CHECKS_HH
#define HOSTBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu.hh"
#include "emu/memory.hh"
#include "sim/json.hh"
#include "workloads/workload.hh"

namespace hostbench
{

using StatMap = std::map<std::string, double>;
/** Failure messages of one check; empty means the check passed. */
using Failures = std::vector<std::string>;

/** Every named statistic of @p cpu. */
StatMap statsOf(const vpsim::Cpu &cpu);

/** The functional emulator's run of a freshly built image. */
struct EmuReference
{
    uint64_t insts = 0; ///< Instructions executed (HALT included).
    std::unique_ptr<vpsim::MainMemory> mem;
};

/** Build @p w with @p seed into fresh memory and emulate it for at most
 *  @p maxInsts instructions, writing stores straight to memory. */
EmuReference emulate(const vpsim::Workload &w, uint64_t seed,
                     uint64_t maxInsts);

/** What the checks read from one detailed run to HALT. */
struct HaltedRun
{
    bool halted = false;
    int numContexts = 1;
    StatMap stats;
    const vpsim::MainMemory *mem = nullptr; ///< Final memory image.
};

/** halted holds; commits.useful equals the emulator's dynamic length;
 *  the final memory image equals the emulator's. */
Failures checkMatchesEmulator(const HaltedRun &run,
                              const EmuReference &ref);

/** The cpi.all.* slots sum to exactly cycles x numContexts. */
Failures checkCpiSlots(const HaltedRun &run);

/** The analytics.spawns.* outcomes partition mtvp.spawns exactly. */
Failures checkSpawnPartition(const HaltedRun &run);

/** All three detailed-run checks above. */
Failures checkHaltedRun(const HaltedRun &run, const EmuReference &ref);

/** A fast-forwarded memory image equals the emulator's at the same
 *  instruction count. */
Failures checkFastForwardImage(const vpsim::MainMemory &ff,
                               uint64_t ffInsts, const EmuReference &ref);

/** A sampled run recorded the requested number of intervals. */
Failures checkIntervals(const StatMap &stats, int requested);

/** Two runs of the same point report the same simulated stats: a
 *  configuration restored from the checkpoint and the same one
 *  fast-forwarded live; a traced run and an untraced one. */
Failures checkSameStats(const StatMap &a, const StatMap &b);

/** Every row's speedupPct equals 100 * (ipc / baseIpc - 1) computed
 *  from its own ipc and baseIpc. */
Failures checkFigureRows(const std::string &figure,
                         const vpsim::json::Value &report);

/**
 * One run_all results file (BENCH_results.json): every figure in
 * @p figures is present, exited 0, and its rows pass checkFigureRows.
 */
Failures checkSuiteResults(const vpsim::json::Value &results,
                           const std::vector<std::string> &figures);

/** `run_all --write-expected` regenerated, into @p regeneratedDir, an
 *  expectation file for every one of @p figures committed in
 *  @p committedDir, with the same number of points. */
Failures checkRegeneratedExpectations(
    const std::string &committedDir, const std::string &regeneratedDir,
    const std::vector<std::string> &figures);

} // namespace hostbench

#endif // HOSTBENCH_CHECKS_HH
