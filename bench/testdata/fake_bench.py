#!/usr/bin/env python3
"""Stand-in for bench_perf_kernels in test_bench_gate.py; takes no timings.

Writes google-benchmark JSON to --benchmark_out, rows in this order:
BM_First and BM_Last always read 100 ns; BM_Noisy, between them, reads
200 ns in the first eight runs that write into the same output directory
and 110 ns from then on, like a row on a busy host that meets a quiet
moment late.  --benchmark_filter selects rows by regex search on their
names, as google-benchmark does.
"""

import json
import os
import re
import sys

options = dict(arg[2:].split("=", 1) for arg in sys.argv[1:] if "=" in arg)
out_path = options["benchmark_out"]
earlier_runs = sum(name.endswith(".json")
                   for name in os.listdir(os.path.dirname(out_path)))
times = {"BM_First": 100.0,
         "BM_Noisy": 200.0 if earlier_runs < 8 else 110.0,
         "BM_Last": 100.0}
pattern = options.get("benchmark_filter", ".")
benchmarks = [
    {"name": name, "run_name": name, "run_type": "iteration", "repetitions": 1,
     "repetition_index": 0, "threads": 1, "iterations": 1000,
     "real_time": time, "cpu_time": time, "time_unit": "ns"}
    for name, time in times.items() if re.search(pattern, name)
]
with open(out_path, "w", encoding="utf-8") as handle:
    json.dump({"context": {"host_name": "fake"}, "benchmarks": benchmarks}, handle)
