#!/usr/bin/env python3
"""Build and run the tuning-service benchmark.

    python3 tunebench/run.py --workload W --seed N --seconds S --trace 0|1
        One run. The last stdout line is the result JSON: end-to-end
        metrics with --trace 0, per-layer metrics with --trace 1.
    python3 tunebench/run.py --smoke
        The benchmark's own test: the checker self-test, then one round of
        every workload, untraced and traced, with every check on.
    python3 tunebench/run.py --steady N
        N runs of every workload, each of run_seconds, with seeds 1..N,
        alternating the workload order, then each end-to-end metric's
        median, quartiles and spread next to its bound in BENCHMARK.json.

Run from anywhere; everything is built and written under .bench_build/ at
the root of the checkout (an optimized tree of its own: the benchmark
never uses or edits the repository's build/ directory).
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "tunebench"
OUT = ROOT / ".bench_build"
BUILD = OUT / "tunebench"
BINARY = BUILD / "tunebench"
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the optimized benchmark tree."""
    if not (ROOT / "src" / "svc" / "service.hpp").is_file():
        log(f"tunebench: no compiler sources under {ROOT / 'src'}")
        sys.exit(2)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "tunebench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("tunebench: build failed:", " ".join(cmd))
                sys.exit(2)


def run_once(workload, seed, seconds, trace, smoke=False):
    """Run the binary once; return (returncode, stdout lines)."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tunebench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    return result, info


def spread(vals):
    """(median, q1, q3, (q3 - q1) / median) of `vals`."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def smoke():
    build()
    done = subprocess.run([str(BINARY), "--selftest"])
    ok = done.returncode == 0
    bench = spec()
    for w in bench["workloads"]:
        for trace in (False, True):
            want = bench["per_layer" if trace else "end_to_end"]
            code, lines = run_once(w["name"], 1, 1, trace, smoke=True)
            if code != 0 or not lines:
                log(f"FAIL {w['name']} trace={int(trace)}: exit {code}")
                ok = False
                continue
            result, _ = result_of(lines)
            missing = [m["name"] for m in want
                       if m["name"] not in result["metrics"]]
            good = (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0 and not missing)
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {w['name']} "
                  f"trace={int(trace)} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}"
                  + (f" missing={missing}" if missing else ""), flush=True)
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def steady(n):
    build()
    bench = spec()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for i in range(n):
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            code, lines = run_once(w, i + 1, seconds, False)
            if code != 0:
                log(f"tunebench: {w} seed {i + 1} failed (exit {code})")
                return 1
            result, info = result_of(lines)
            runs[w].append((result, info))
            log(f"{w} seed={i + 1} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}")
    print(f"runs per workload: {n}, run_seconds: {seconds}, "
          f"nproc: {runs[names[0]][0][1].get('nproc')}, "
          f"compiler: {runs[names[0]][0][1].get('compiler')}, "
          f"build: {runs[names[0]][0][1].get('build_type')}")
    worst = 0.0
    for w in names:
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for r, _ in runs[w]}
        print(f"  failed share per run: {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r, _ in runs[w])}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in runs[w]]
            med, q1, q3, s = spread(vals)
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"  {m['name']:24} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s:8.2%} {m['bound']:6.2f}")
        for name in runs[w][0][1]["unbounded"]:
            vals = [i["unbounded"][name]["value"] for _, i in runs[w]]
            med, q1, q3, s = spread(vals)
            print(f"  {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s:8.2%}   none  (info only)")
        for t in ("cold_tune_tail_ms", "warm_tail_us"):
            vals = [i[t]["value"] for _, i in runs[w] if i[t]["pct"] > 0]
            if len(vals) >= 4:
                med, q1, q3, s = spread(vals)
                pct = runs[w][0][1][t]["pct"]
                samples = runs[w][0][1][t]["samples"]
                print(f"  {t:24} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{s:8.2%}   none  (p{pct:g} of "
                      f"~{samples} samples, info only)")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="for a single run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--steady", type=int, metavar="N")
    args = ap.parse_args()

    if (args.smoke or args.steady) and args.seconds:
        ap.error("--seconds is for a single run")
    if args.smoke:
        return smoke()
    if args.steady:
        return steady(args.steady)
    if not args.workload:
        ap.error("--workload is required")
    build()
    code, lines = run_once(args.workload, args.seed,
                           args.seconds or spec()["run_seconds"],
                           bool(args.trace))
    if code != 0 or not lines:
        log(f"tunebench: run failed (exit {code})")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
