#!/usr/bin/env python3
"""End-to-end benchmark of the compile-job path.

Run from the root of the repository:

    python3 e2ebench/run.py --workload tosa-lower --seed 1 --seconds 30 --trace 0

builds e2ebench/main.exe with dune, runs one workload for the given number
of seconds and prints, as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it carries
the run's provenance: commit, core count, OCaml version, seed, workload
parameters, the counted metrics and any oracle failures. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Two further modes serve the benchmark's own upkeep:

    --steadiness N   run the workload N times on seeds SEED..SEED+N-1 and
                     print each metric's median, quartiles and spread
                     (interquartile range over median) against its bound
    --determinism    run the traced workload twice with one seed and fail
                     unless every counted metric agrees
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "main.exe")
WORKLOADS = ["tosa-lower", "flat-block", "server-mix"]
RUN_TIMEOUT_S = 170

# server-mix runs on one core. Its requests hand off between threads and
# domains four times each; across the two cores of a shared virtual machine
# every hand-off waits for the host to wake the other core, which swung the
# workload's request rate by 2.3x between runs of the same code. The
# single-caller workloads hand nothing off and keep the scheduler's choice.
ONE_CORE = {"server-mix"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark executable; False when the tree cannot build it."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        log("e2ebench: no dune-project at the repository root")
        return False
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./e2ebench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"e2ebench: build failed: {e}")
        return False
    return proc.returncode == 0 and os.path.exists(EXE)


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def one_core():
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def run_once(workload, seed, seconds, trace, provenance):
    """One run of main.exe; (provenance line, result object) or None."""
    args = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--commit", provenance[0],
        "--source-digest", provenance[1],
    ]
    try:
        proc = subprocess.run(
            args,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=one_core if workload in ONE_CORE else None,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"e2ebench: {workload} seed {seed}: {e}")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"e2ebench: {workload} seed {seed} exited {proc.returncode}")
        return None
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError:
        log("e2ebench: unreadable output")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("e2ebench: malformed result")
        return None
    return info, result


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def steadiness(opts, provenance):
    values, counts = {}, {}
    for seed in range(opts.seed, opts.seed + opts.steadiness):
        out = run_once(opts.workload, seed, opts.seconds, opts.trace, provenance)
        if out is None:
            return 1
        info, result = out
        log(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        counts[seed] = info["counts"]
    b = bounds()
    print(f"{opts.workload}, {opts.steadiness} seeds from {opts.seed}, "
          f"{opts.seconds} s, trace {opts.trace}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = b.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 0


def determinism(opts, provenance):
    runs = [run_once(opts.workload, opts.seed, opts.seconds, 1, provenance)
            for _ in range(2)]
    if None in runs:
        return 1
    a, b = (info["counts"] for info, _ in runs)
    for name in sorted(set(a) | set(b)):
        mark = "" if a.get(name) == b.get(name) else "   MISMATCH"
        print(f"{name:28} {a.get(name)!s:>12} {b.get(name)!s:>12}{mark}")
    if a != b:
        print("counted metrics differ between two runs with one seed")
        return 1
    print("counted metrics identical")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--determinism", action="store_true")
    opts = p.parse_args()
    if not build():
        return 1
    provenance = (commit(), source_digest())
    if opts.steadiness:
        return steadiness(opts, provenance)
    if opts.determinism:
        return determinism(opts, provenance)
    out = run_once(opts.workload, opts.seed, opts.seconds, opts.trace, provenance)
    if out is None:
        return 1
    info, result = out
    print(json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
