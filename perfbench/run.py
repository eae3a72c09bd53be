#!/usr/bin/env python3
"""Build and run the qsr benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qsr checkout. Builds perfbench/ (a cargo package
of its own) into $CARGO_TARGET_DIR, default .bench_build, runs one
measured run of the workload, and prints a table of every metric with its
unit and sample count, a detail line (host descriptor, checks, exclusive
time per layer), and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. --workload all runs every workload of
BENCHMARK.json in turn.
Exits non-zero when the build fails, a QSR_* variable is set, the run
fails, or any output or check is wrong.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def command_output(argv, cwd=None):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_descriptor():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT)
        or "unknown (not a git checkout)",
    }


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def check_config(workload, got, design):
    """The binary's sizes must be the ones design.json documents."""
    want = design["workloads"][workload]
    problems = []
    for key in ("tables", "pool_pages"):
        if got[key] != want[key]:
            problems.append(f"{key}: binary {got[key]}, design.json {want[key]}")
    for key in ("main_share", "cycle_parts", "open_rate_per_s", "setups", "exclusive_tolerance"):
        if got[key] != design["common"][key]:
            problems.append(f"{key}: binary {got[key]}, design.json {design['common'][key]}")
    return problems


def run_one(binary, data_dir, workload, args, bench, design, host):
    argv = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", data_dir,
    ]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: the run exited with {proc.returncode} and printed no result")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    problems = list(res["errors"])
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing from the run")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']}: unit {got['unit']}, BENCHMARK.json {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    problems += check_config(workload, res["config"], design)

    print(f"== {workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"error_rate {res['error_rate']}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.4f} {m['unit']:6s} ({m['samples']} samples)")
    for name, ms in res["exclusive_ms"].items():
        print(f"  exclusive {name:26s} {ms:>16.3f} ms")
    detail = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "error_rate": res["error_rate"],
        "checks": res["checks"],
        "config": res["config"],
        "problems": problems,
    }
    print(json.dumps(detail))
    correct = res["correct"] and not problems and proc.returncode == 0
    final = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] if correct else max(res["failed"], 1),
        "metrics": metrics,
    }
    return final


def main():
    design = load_json(os.path.join(HERE, "design.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    qsr = sorted(k for k in os.environ if k.startswith("QSR_"))
    if qsr:
        fail(f"refusing to run: environment variable {qsr[0]} is set, and QSR_* variables "
             "change the program under test; unset it", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)
    data_dir = os.path.join(target, "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)
    host = host_descriptor()
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        final = run_one(binary, data_dir, workload, args, bench, design, host)
        ok = ok and final["correct"]
        print(json.dumps(final))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
