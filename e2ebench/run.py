#!/usr/bin/env python3
"""End-to-end benchmark of mcmm (see e2ebench/README.md).

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Builds `mcmm` and the e2ebench binary from this checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload and prints the
binary's report lines; the last line is the result object with every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1) of
BENCHMARK.json, each with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def unit_of(name):
    """Unit of a metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ns_per_launch"):
        return "ns"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns", "ns"),
                         ("_s", "s"), ("_gbps", "GB/s"),
                         ("_per_req", "ratio"), ("_ratio", "ratio"),
                         ("_skew", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures once, then (re)builds mcmm and the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no mcmm sources next to e2ebench/ (src/ missing)")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", bdir, "-j4", "--target", "mcmm",
                    "e2ebench"], check=True, stdout=out, stderr=out)
    return bdir


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        bdir = build(sys.stderr)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"e2ebench: build failed: {e}")
    bench = os.path.join(bdir, "e2ebench")
    if args.selftest:
        sys.exit(subprocess.run([bench, "--selftest"]).returncode)

    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mcmm", os.path.join(bdir, "mcmm_tools", "mcmm"),
           "--root", ROOT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: benchmark binary timed out")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        sys.exit(f"e2ebench: benchmark binary exited {proc.returncode} without a result")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {w["name"] for w in spec["workloads"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit_of(name)}
    if args.workload in listed:
        names = [m["name"] for m in wanted]
        missing = [n for n in names if n not in metrics]
        extra = [n for n in metrics if n not in names]
        wrong = [m["name"] for m in wanted
                 if m["name"] in metrics and m["unit"] != unit_of(m["name"])]
        if missing or extra or wrong:
            sys.exit(f"e2ebench: metrics disagree with BENCHMARK.json: "
                     f"missing {missing}, extra {extra}, unit {wrong}")
        metrics = {n: metrics[n] for n in names}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
