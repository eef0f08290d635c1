#!/usr/bin/env python3
"""Fit refSensitivity (hosttime.go): the least-squares slope of the workloads'
log time net of steal on the reference kernel's log time, over runs of all
four workloads, each workload of each sweep centred on its own mean.

    python3 benchmark/baseline/fit.py benchmark/baseline/kernel_fit.tsv
"""
import csv, math, statistics, sys

groups = {}
for row in csv.DictReader(open(sys.argv[1]), delimiter="\t"):
    x = math.log(float(row["ref_kernel_ms"]))
    y = -math.log(float(row["commits_per_net_s"]))
    groups.setdefault((row.get("sweep", ""), row["workload"]), []).append((x, y))
sxy = sxx = n = 0
for key, pts in sorted(groups.items()):
    mx = statistics.mean(p[0] for p in pts)
    my = statistics.mean(p[1] for p in pts)
    gxy = sum((x - mx) * (y - my) for x, y in pts)
    gxx = sum((x - mx) ** 2 for x, y in pts)
    print("sweep %s %-11s %2d runs  slope %.2f" % (key[0], key[1], len(pts), gxy / gxx))
    sxy, sxx, n = sxy + gxy, sxx + gxx, n + len(pts)
print("pooled slope %.3f over %d runs" % (sxy / sxx, n))
