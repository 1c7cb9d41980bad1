#!/usr/bin/env python3
"""Host-side benchmark of vpsim: build from source, run, report.

One run:

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the simulator, the figure harness and the benchmark program
under .bench_build/ (or $CARGO_TARGET_DIR) with CMake, runs it on
workload W, and passes its output through. The last line of standard
output is the JSON result. Every run is stamped with a host fingerprint
(CPU model, core count, compiler, build type, commit) and saved under
<build>/reports/.

Repeat mode runs each workload K times with seeds N..N+K-1 and prints
each end-to-end metric's median and quartiles, the spread they imply
and the bound in BENCHMARK.json:

    python3 hostbench/run.py --repeat K [--workload W] [--seed N]

Compare mode compares two repeat reports, metric by metric against the
bounds, and refuses reports from different hosts:

    python3 hostbench/run.py --compare BEFORE.json AFTER.json

Self-test mode builds and runs the output checks' own tests:

    python3 hostbench/run.py --self-test
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mtvp_to_halt", "st_to_halt", "sampled_longrun", "figure_suite"]
BUILD_TYPE = "Release"
# Host fields that must match for two reports to be comparable.
HOST_KEYS = ["cpu", "cores", "compiler", "build_type"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "hostbench")


def fail(msg, code=1):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets=None):
    """Configure once, then build incrementally; output goes to a log."""
    for need in ("src/CMakeLists.txt", "bench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("vpsim sources missing: %s not found under %s" % (need, ROOT), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-G", gen,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    for t in targets or []:
        cmd += ["--target", t]
    steps.append(cmd)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return bdir


def source_digest():
    """Content digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for sub in ("src", "bench", "hostbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, sub))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(bdir):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        fields[key] = line.split('"')[1]
        compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {"cpu": cpu, "cores": os.cpu_count(), "compiler": compiler,
            "build_type": BUILD_TYPE, "commit": commit,
            "source_digest": source_digest()}


def run_once(bdir, workload, seed, seconds, trace, echo=True):
    """Run the benchmark program once; return its result line, parsed
    and raw, and the lines before it (the per-point tables)."""
    work = os.path.join(bdir, "work", str(os.getpid()))
    cmd = [os.path.join(bdir, "hostbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--bin", os.path.join(bdir, "bench"),
           "--work", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        return None, None, lines
    try:
        return json.loads(lines[-1]), lines[-1], lines[:-1]
    except ValueError:
        return None, None, lines


def save_report(bdir, name, report):
    os.makedirs(os.path.join(bdir, "reports"), exist_ok=True)
    path = os.path.join(bdir, "reports", name)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def repeat(bdir, fp, workloads, first_seed, k, seconds):
    bounds = load_bounds()
    for w in workloads:
        runs = []
        for seed in range(first_seed, first_seed + k):
            r, _, _ = run_once(bdir, w, seed, seconds, 0, echo=False)
            if r is None:
                fail("%s seed %d produced no result" % (w, seed))
            print("%s seed %d: attempted %d failed %d correct %s" %
                  (w, seed, r["attempted"], r["failed"], r["correct"]))
            runs.append({"seed": seed, "result": r})
        summary = {}
        print("%-16s %12s %12s %12s %8s %8s %9s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "suggest"))
        for name in runs[0]["result"]["metrics"]:
            vals = [x["result"]["metrics"][name]["value"] for x in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            # A bound three times the measured spread keeps two sets of
            # runs of one commit inside it; 0.25 is the cap.
            suggest = min(0.25, round(3 * spread + 0.005, 2))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            print("%-16s %12.6g %12.6g %12.6g %8.4f %8s %9.2f" %
                  (name, med, q1, q3, spread, bound, suggest))
        path = save_report(bdir, "repeat-%s.json" % w,
                           {"fingerprint": fp, "workload": w,
                            "seconds": seconds, "runs": runs,
                            "summary": summary})
        print("report: %s" % path)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ha = {k: a["fingerprint"].get(k) for k in HOST_KEYS}
    hb = {k: b["fingerprint"].get(k) for k in HOST_KEYS}
    if ha != hb:
        print("different host: refusing to compare\n  %s\n  %s" % (ha, hb))
        return 3
    if a["workload"] != b["workload"]:
        print("different workloads: %s vs %s" % (a["workload"], b["workload"]))
        return 3
    bounds = load_bounds()
    worse = False
    print("%s: %s -> %s" % (a["workload"], a["fingerprint"]["commit"],
                            b["fingerprint"]["commit"]))
    for name, ma in a["summary"].items():
        mb = b["summary"].get(name)
        if mb is None:
            continue
        spec = bounds.get(name, {})
        change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
        loss = change if spec.get("better") == "lower" else -change
        verdict = "ok"
        if loss > spec.get("bound", 0.0):
            verdict = "WORSE beyond bound"
            worse = True
        elif loss > max(ma["spread"], mb["spread"]):
            verdict = "worse within bound"
        elif -loss > max(ma["spread"], mb["spread"]):
            verdict = "better"
        print("  %-16s %12.6g -> %12.6g  %+7.2f%%  %s" %
              (name, ma["median"], mb["median"], 100 * change, verdict))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, metavar="K")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    if args.self_test:
        bdir = build(["hostbench_selftest"])
        tmp = os.path.join(bdir, "selftest-tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TEST_TMPDIR=tmp)
        rc = subprocess.run([os.path.join(bdir, "hostbench_selftest")], env=env).returncode
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(rc)

    bdir = build()
    fp = fingerprint(bdir)
    print("host: " + json.dumps(fp, sort_keys=True))
    if args.repeat:
        workloads = [args.workload] if args.workload else WORKLOADS
        repeat(bdir, fp, workloads, args.seed, args.repeat, args.seconds)
        return
    if not args.workload:
        ap.error("--workload is required")
    result, raw, log = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail("the benchmark program produced no result")
    save_report(bdir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace),
                {"fingerprint": fp, "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace, "result": result,
                 "log": log})
    print(raw)


if __name__ == "__main__":
    main()
