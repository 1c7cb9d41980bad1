#include "checks.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "emu/context_state.hh"
#include "emu/emulator.hh"

namespace hostbench
{

using vpsim::json::Value;

namespace
{

std::string
format(const char *fmt, double a, double b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

double
statOr(const StatMap &s, const std::string &name, double def)
{
    auto it = s.find(name);
    return it == s.end() ? def : it->second;
}

/** Sum of every stat whose name starts with @p prefix. */
double
sumPrefix(const StatMap &s, const std::string &prefix)
{
    double sum = 0.0;
    for (auto it = s.lower_bound(prefix);
         it != s.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        sum += it->second;
    }
    return sum;
}

void
append(Failures &to, const Failures &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

StatMap
statsOf(const vpsim::Cpu &cpu)
{
    StatMap m;
    for (const vpsim::StatBase *s : cpu.stats().stats())
        m[s->name()] = s->value();
    return m;
}

EmuReference
emulate(const vpsim::Workload &w, uint64_t seed, uint64_t maxInsts)
{
    EmuReference ref;
    ref.mem = std::make_unique<vpsim::MainMemory>();
    vpsim::ArchState st;
    st.pc = w.build(*ref.mem, seed);
    vpsim::Emulator emu(*ref.mem);
    ref.insts = emu.run(st, maxInsts);
    return ref;
}

Failures
checkMatchesEmulator(const HaltedRun &run, const EmuReference &ref)
{
    Failures f;
    if (!run.halted)
        f.push_back("run did not reach HALT");
    double useful = statOr(run.stats, "commits.useful", -1.0);
    if (useful != static_cast<double>(ref.insts)) {
        f.push_back(format("commits.useful %.0f != emulator length %.0f",
                           useful, static_cast<double>(ref.insts)));
    }
    if (run.mem == nullptr || !run.mem->contentEquals(*ref.mem))
        f.push_back("final memory image differs from the emulator's");
    return f;
}

Failures
checkCpiSlots(const HaltedRun &run)
{
    double slots = sumPrefix(run.stats, "cpi.all.");
    double want = statOr(run.stats, "cycles", -1.0) * run.numContexts;
    if (slots != want)
        return {format("CPI-stack slots sum to %.0f, not cycles x "
                       "contexts = %.0f", slots, want)};
    return {};
}

Failures
checkSpawnPartition(const HaltedRun &run)
{
    double outcomes = sumPrefix(run.stats, "analytics.spawns.");
    double spawns = statOr(run.stats, "mtvp.spawns", -1.0);
    if (outcomes != spawns)
        return {format("spawn outcomes sum to %.0f, not mtvp.spawns = "
                       "%.0f", outcomes, spawns)};
    return {};
}

Failures
checkHaltedRun(const HaltedRun &run, const EmuReference &ref)
{
    Failures f = checkMatchesEmulator(run, ref);
    append(f, checkCpiSlots(run));
    append(f, checkSpawnPartition(run));
    return f;
}

Failures
checkFastForwardImage(const vpsim::MainMemory &ff, uint64_t ffInsts,
                      const EmuReference &ref)
{
    Failures f;
    if (ref.insts != ffInsts) {
        f.push_back(format("fast-forwarded %.0f instructions, emulator "
                           "ran %.0f", static_cast<double>(ffInsts),
                           static_cast<double>(ref.insts)));
    }
    if (!ff.contentEquals(*ref.mem))
        f.push_back("fast-forwarded memory image differs from the "
                    "emulator's");
    return f;
}

Failures
checkIntervals(const StatMap &stats, int requested)
{
    double got = statOr(stats, "sim.sampledIntervals", -1.0);
    if (got != requested)
        return {format("recorded %.0f sample intervals, requested %.0f",
                       got, requested)};
    return {};
}

Failures
checkSameStats(const StatMap &a, const StatMap &b)
{
    if (a.size() != b.size())
        return {format("stat sets differ in size (%.0f vs %.0f)",
                       static_cast<double>(a.size()),
                       static_cast<double>(b.size()))};
    Failures f;
    for (const auto &[name, value] : a) {
        double other = statOr(b, name, std::nan(""));
        // NaN-valued stats (an empty mean) compare equal to each other.
        if (value != other && !(std::isnan(value) && std::isnan(other)))
            f.push_back(name + ": " + format("%.17g vs %.17g", value,
                                             other));
    }
    return f;
}

Failures
checkFigureRows(const std::string &figure, const Value &report)
{
    Failures f;
    const Value *rows = report.get("rows");
    if (rows == nullptr || !rows->isArray())
        return {figure + ": report has no rows"};
    for (const Value &row : rows->arr) {
        double ipc = row.numberOr("ipc", std::nan(""));
        double base = row.numberOr("baseIpc", std::nan(""));
        double got = row.numberOr("speedupPct", std::nan(""));
        double want = 100.0 * (ipc / base - 1.0);
        if (!(got == want)) {
            f.push_back(figure + " " + row.stringOr("workload", "?") +
                        "/" + row.stringOr("config", "?") + ": " +
                        format("speedupPct %.17g != %.17g from ipc and "
                               "baseIpc", got, want));
        }
    }
    return f;
}

Failures
checkSuiteResults(const Value &results,
                  const std::vector<std::string> &figures)
{
    const Value *figs = results.get("figures");
    if (figs == nullptr || !figs->isObject())
        return {"results file has no figures"};
    Failures f;
    for (const std::string &name : figures) {
        const Value *fig = figs->get(name);
        if (fig == nullptr) {
            f.push_back(name + ": missing from the results");
            continue;
        }
        if (fig->numberOr("exitStatus", -1.0) != 0.0)
            f.push_back(name + ": nonzero exit status");
        const Value *report = fig->get("report");
        if (report != nullptr && report->isObject())
            append(f, checkFigureRows(name, *report));
    }
    return f;
}

Failures
checkRegeneratedExpectations(const std::string &committedDir,
                             const std::string &regeneratedDir,
                             const std::vector<std::string> &figures)
{
    namespace fs = std::filesystem;
    Failures f;
    int compared = 0;
    for (const std::string &fig : figures) {
        std::string name = fig + ".json";
        Value committed;
        if (!fs::exists(committedDir + "/" + name) ||
            !vpsim::json::parseFile(committedDir + "/" + name, committed))
            continue; // Figures without rows have no expectations.
        ++compared;
        Value regenerated;
        std::string err;
        if (!vpsim::json::parseFile(regeneratedDir + "/" + name,
                                    regenerated, &err)) {
            f.push_back(name + ": not regenerated (" + err + ")");
            continue;
        }
        const Value *a = committed.get("points");
        const Value *b = regenerated.get("points");
        size_t na = a != nullptr ? a->arr.size() : 0;
        size_t nb = b != nullptr ? b->arr.size() : 0;
        if (na != nb) {
            f.push_back(name + ": " +
                        format("regenerated %.0f points, committed %.0f",
                               static_cast<double>(nb),
                               static_cast<double>(na)));
        }
    }
    if (compared == 0)
        f.push_back("no committed expectation files under " +
                    committedDir);
    return f;
}

} // namespace hostbench
