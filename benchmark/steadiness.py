#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs every workload (or those named with --workloads) once per seed, in
one or more sets of distinct seeds, and reports for each end-to-end
metric the median, the quartiles and the spread (the interquartile
range as a share of the median, with the quartiles exactly as
statistics.quantiles(values, n=4) gives them) of the normalised values
beside their raw counterparts, plus the calibrator's own spread. It
checks each spread against a third of its bound in BENCHMARK.json, that
a rerun of the first seed repeats the quality metrics exactly, and that
no later set's median is worse than the first set's by more than the
bound. Run from the repository root:

    python3 benchmark/steadiness.py --seeds 1-10 --sets 2 --out benchmark/STEADINESS.md

Each run's full output is kept under .bench_build/steadiness/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC = ["qrs_se_pct", "prd_pct", "radio_uj_per_window"]
LOGDIR = os.path.join(".bench_build", "steadiness")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("nan")


def run_once(spec, workload, seed, tag):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    log = os.path.join(LOGDIR, f"{workload}-seed{seed}{tag}.log")
    with open(log, "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}; see {log}")
    lines = proc.stdout.strip().splitlines()
    raw = next((json.loads(l[5:]) for l in lines if l.startswith("raw: ")), {})
    return json.loads(lines[-1]), raw


def set_table(runs, bounds):
    """Markdown rows for one set of runs, and whether every spread holds."""
    ok = True
    rows = ["| metric | unit | Q1 | median | Q3 | spread | bound/3 | raw median | raw spread |",
            "|---|---|---|---|---|---|---|---|---|"]
    medians = {}
    for metric, mv in runs[0][0]["metrics"].items():
        q1, q2, q3, sp = quartiles([r["metrics"][metric]["value"] for r, _ in runs])
        medians[metric] = q2
        raw_med = raw_sp = ""
        if metric in runs[0][1]:
            rq = quartiles([raw[metric] for _, raw in runs])
            raw_med, raw_sp = f"{rq[1]:.6g}", f"{rq[3]:.4f}"
        bound = bounds[metric]
        mark = ""
        if sp > bound / 3:
            mark, ok = " **over**", False
        rows.append(f"| {metric} | {mv['unit']} | {q1:.6g} | {q2:.6g} | {q3:.6g} | {sp:.4f}{mark} | "
                    f"{bound / 3:.4f} | {raw_med} | {raw_sp} |")
    cq = quartiles([raw["calib_rate"] for _, raw in runs])
    within = statistics.median(raw["calib_spread"] for _, raw in runs)
    rows += ["", f"calibrator: median rate {cq[1]:.0f} passes/s per kernel across runs "
                 f"(spread {cq[3]:.4f}); median within-run slice spread {within:.4f}"]
    return rows, medians, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first set's seeds, lo-hi")
    ap.add_argument("--sets", type=int, default=1, help="sets of distinct seeds")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    lo, _, hi = args.seeds.partition("-")
    base = list(range(int(lo), int(hi or lo) + 1))
    os.makedirs(LOGDIR, exist_ok=True)

    out = [f"# Steadiness: {args.sets} set(s) of {len(base)} runs per workload, "
           f"{spec['run_seconds']} s each", ""]
    verdict = True
    for name in names:
        out += [f"## {name}", ""]
        set_medians = []
        for k in range(args.sets):
            seeds = [s + k * len(base) for s in base]
            runs = [run_once(spec, name, s, "") for s in seeds]
            attempted = sum(r["attempted"] for r, _ in runs)
            failed = sum(r["failed"] for r, _ in runs)
            correct = all(r["correct"] for r, _ in runs)
            rows, medians, ok = set_table(runs, bounds)
            verdict &= ok and correct
            set_medians.append(medians)
            out += [f"### set {k + 1}: seeds {seeds[0]}-{seeds[-1]}", "",
                    f"operations: {attempted} attempted, {failed} failed; every run correct: {correct}", ""]
            if k == 0:
                # The first seed again: quality and energy metrics must
                # repeat exactly for a fixed seed.
                again, _ = run_once(spec, name, seeds[0], "-again")
                exact = {m: again["metrics"][m]["value"] == runs[0][0]["metrics"][m]["value"]
                         for m in DETERMINISTIC}
                verdict &= all(exact.values())
                out += [f"seed {seeds[0]} run again: " +
                        ", ".join(f"{m} {'identical' if same else 'DIFFERS'}" for m, same in exact.items()), ""]
            out += rows + [""]
        if args.sets > 1:
            out += ["### later sets against set 1", "",
                    "| metric | set 1 median | set | median | worse by | bound |", "|---|---|---|---|---|---|"]
            first = set_medians[0]
            for k, medians in enumerate(set_medians[1:], start=2):
                for metric, m in medians.items():
                    worse = (m - first[metric]) / first[metric]
                    if better[metric] == "higher":
                        worse = -worse
                    mark = ""
                    if worse > bounds[metric]:
                        mark, verdict = " **over**", False
                    out.append(f"| {metric} | {first[metric]:.6g} | {k} | {m:.6g} | {worse:+.4f}{mark} | "
                               f"{bounds[metric]} |")
            out.append("")
    out.append(f"every spread below a third of its bound, every rerun identical, every later median "
               f"within its bound, every run correct: {verdict}")
    text = "\n".join(out) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
