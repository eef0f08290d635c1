#!/usr/bin/env python3
"""Run the timed pass once per seed on every workload and print, for each
end-to-end metric, the median of the runs and their spread the way the driver
takes it: the distance between the first and third quartile as a share of the
median. The same throughput in wall time and net of steal is printed beside
commits_per_host_s, so that what host time corrects for can be seen.

    python3 benchmark/baseline/spread.py [--seed0 600] [--runs 10] [--tsv runs.tsv]

Run from the repository root. Every run is appended to the TSV as it ends.
"""
import argparse, json, re, statistics, subprocess, sys

ap = argparse.ArgumentParser()
ap.add_argument("--seed0", type=int, default=600)
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--tsv", default="")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
exe = ".bench_build/benchmark"
subprocess.run(["go", "build", "-o", exe, "./benchmark"], check=True)

names = [e["name"] for e in spec["end_to_end"]]
extra = ["commits_per_wall_s", "commits_per_net_s", "ref_kernel_ms"]
values = {}  # (workload, metric) -> one value per run
tsv = open(args.tsv, "a") if args.tsv else None
if tsv:
    print("workload", "seed", *names, *extra, sep="\t", file=tsv, flush=True)
# Seeds outside, workloads inside: a workload's runs are spread over the whole
# session, so slow changes of the machine are in the spread, not hidden by it.
for seed in range(args.seed0, args.seed0 + args.runs):
    for w in spec["workloads"]:
        out = subprocess.run(
            [exe, "--workload", w["name"], "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.splitlines()[-1])
        assert res["correct"], out
        m = re.search(r"commits per second: (\S+) wall, (\S+) net of steal, .* reference kernel (\S+) ms", out)
        row = [res["metrics"][n]["value"] for n in names] + [float(x) for x in m.groups()]
        for n, v in zip(names + extra, row):
            values.setdefault((w["name"], n), []).append(v)
        if tsv:
            print(w["name"], seed, *("%.6g" % v for v in row), sep="\t", file=tsv, flush=True)
        print(".", end="", file=sys.stderr, flush=True)
print(file=sys.stderr)

bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
print("%-12s %-24s %12s %8s %7s" % ("workload", "metric", "median", "spread", "bound"))
for w in spec["workloads"]:
    for n in names + extra:
        v = values[(w["name"], n)]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        note = ""
        if n in bounds:
            note = "%6.0f%%" % (100 * bounds[n])
            if n != "setup_s" and (q[2] - q[0]) / med > bounds[n]:
                note += "  WIDER THAN THE BOUND"
        print("%-12s %-24s %12.6g %7.1f%% %s" % (w["name"], n, med, 100 * (q[2] - q[0]) / med, note))
