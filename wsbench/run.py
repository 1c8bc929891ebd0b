#!/usr/bin/env python3
"""The wormsim benchmark: build, run one workload, check it, report it.

Run from the root of a checkout:

    python3 wsbench/run.py --workload fleet-acyclic --seed 3 --seconds 35 --trace 0
    python3 wsbench/run.py --workload all          # every workload, both modes

The first call builds the wsbench program from the checkout's sources into
$CARGO_TARGET_DIR/wsbench (default .bench_build/wsbench). A run prints a
human-readable report (host and build stamp, every metric with its unit, the
pin checks) and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. A per-layer metric of a layer the
workload does not run reads 0. Outputs are checked against pins.json; any
mismatch makes the run incorrect and the exit code 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fleet-acyclic", "search-proofs", "saturation-fattree"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "wsbench"


def build(out):
    """Configures (once) and builds the wsbench program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"wsbench: no wormsim sources under {ROOT / 'src'}")
        sys.exit(2)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "wsbench"


def source_stamp():
    """The commit when the checkout is a git repository, and always a digest
    of the library sources the program was built from."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.split()
        # Only a repository rooted at this checkout names its commit.
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, digest.hexdigest()[:16]


def check_group(key):
    """Pinned checks are grouped into the operation they belong to: a load
    (load-0.040.cycles) or a proof leg (fig1x2-off.verdict)."""
    return key.rsplit(".", 1)[0] if "." in key else key


def run_workload(binary, spec, pins, args, workload, trace):
    size = "small" if args.small else "full"
    out_dir = build_dir() / "runs" / f"{workload}-{size}-s{args.seed}-t{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    if proc.returncode != 0:
        log(f"wsbench: {workload} exited with {proc.returncode}")
        sys.exit(1)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    expected = pins.get(size, {}).get(workload, {})
    mismatches = sorted(k for k in set(expected) | set(raw["checks"])
                        if expected.get(k) != raw["checks"].get(k))
    failed = raw["failed"] + len({check_group(k) for k in mismatches})
    attempted = max(1, raw["attempted"])
    raw["metrics"]["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None:
            # A layer this workload does not run did no work.
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not trace and missing:
        mismatches.append("end-to-end metrics missing: " + ", ".join(missing))

    commit, src_digest = source_stamp()
    info = raw["info"]
    stamp = {
        "workload": workload, "size": size, "seed": args.seed,
        "seconds": args.seconds, "trace": trace, "commit": commit,
        "src_digest": src_digest, "nproc": info.get("nproc"),
        "two_thread_parallelism": info.get("two_thread_parallelism"),
        "build_type": info.get("build_type"), "compiler": info.get("compiler"),
        "sanitizer": info.get("sanitizer"),
    }
    report = {"stamp": stamp, "info": info, "checks": raw["checks"],
              "pinned": expected, "mismatches": mismatches,
              "not_run": missing, "all_metrics": raw["metrics"]}
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"== {workload} ({size}, {'traced' if trace else 'untraced'}, seed {args.seed})")
    print("stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    if stamp["build_type"] in ("Debug", "") or stamp["sanitizer"] == "yes":
        print("WARNING: timings from a Debug or sanitizer build are not comparable")
    for name, m in sorted(raw["metrics"].items()):
        mark = "" if name in metrics else "  (diagnostic)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{mark}")
    for name in missing if trace else []:
        print(f"  {name} = 0 (layer not run by this workload)")
    for key, value in sorted(info.items()):
        print(f"  info {key}: {value}")
    print(f"checks: {len(expected) - len([k for k in mismatches if k in expected])}"
          f"/{len(expected)} pinned values match")
    for key in mismatches:
        print(f"  MISMATCH {key}: pinned {expected.get(key)!r}, got {raw['checks'].get(key)!r}")
    return {"correct": not mismatches and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, checked against their own pins")
    args = parser.parse_args()
    if spec is None:
        log("wsbench: BENCHMARK.json not found at the checkout root")
        sys.exit(2)

    binary = build(build_dir())
    pins = json.loads((HERE / "pins.json").read_text())
    if args.workload != "all":
        result = run_workload(binary, spec, pins, args, args.workload, args.trace)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(binary, spec, pins, args, workload, trace)
            combined["correct"] &= r["correct"]
            combined["attempted"] += r["attempted"] if trace == 0 else 0
            combined["failed"] += r["failed"] if trace == 0 else 0
            for name, m in r["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
