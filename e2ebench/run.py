#!/usr/bin/env python3
"""gammaflow end-to-end benchmark.

    python3 e2ebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the gammaflow libraries and
the `gf_e2e` program (RelWithDebInfo, -O2) into `$CARGO_TARGET_DIR/e2ebench`
(default `.bench_build/e2ebench`), then runs one workload in its own
process. `gf_e2e` prints a build stamp and every metric by name and unit,
then, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Run artifacts (WALs,
the serve socket, per-run result and trace files) go to `.bench_out/`.

Exit status: 0 when every output checked out; 1 when an output was wrong;
2 when the checkout cannot be built or the arguments are bad; 3 when the
result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ["sieve-1500", "paper-loop", "serve-join", "cluster-sum"]
RUN_TIMEOUT_S = 170
PARTS = 4


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"


def build():
    """Configures once and builds gf_e2e; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no gammaflow source tree at {ROOT} (CMakeLists.txt, src/)")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target", "gf_e2e",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = out / "gf_e2e"
    return binary if binary.is_file() else None


def source_id():
    """The git commit, or a digest of the sources in a plain checkout."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha1()
    tops = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "examples", HERE]
    for top in tops:
        paths = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in paths:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def quantile(xs, q):
    """Linear interpolation between closest ranks, as gf_e2e computes it."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_process(binary, workload, args, commit, seconds, part, timeout):
    """Runs one gf_e2e process; returns (exit code, its '#' lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--part", str(part), "--out-dir", str(ROOT / ".bench_out"),
           "--commit", commit]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout} s")
        return 1, [], None
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: exited {done.returncode} without a result line")
        return done.returncode or 1, lines, None
    return done.returncode, lines[:-1], result


def pool(parts):
    """One result from the processes of an untraced run: a quantile metric
    over all their samples, peak_rss_mb the highest peak, checks summed."""
    samples = {}
    for lines, _ in parts:
        for line in lines:
            if line.startswith("# samples "):
                name, q, *values = line.split()[2:]
                got = samples.setdefault(name, (float(q), []))
                got[1].extend(float(v) for v in values)
    results = [result for _, result in parts]
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        if name in samples:
            q, values = samples[name]
            value = quantile(values, q)
        else:
            value = max(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_one(binary, workload, args, commit):
    """Runs one workload; returns (exit code, result line or None).

    A traced run is one process. An untraced run is PARTS processes in a
    row, each measuring for a PARTS-th of --seconds on its own instances
    and its own address-space layout, and their samples are pooled: the
    layout can move all of a process's times together, so one process per
    run would measure one draw of it."""
    parts = 1 if args.trace else PARTS
    worst = 0
    done = []
    for part in range(parts):
        code, lines, result = run_process(
            binary, workload, args, commit, args.seconds / parts, part,
            RUN_TIMEOUT_S // parts)
        worst = max(worst, code)
        if result is None:
            return worst or 1, None
        for line in lines:
            print(line, file=sys.stderr if parts > 1 else sys.stdout)
        done.append((lines, result))
    result = done[0][1] if parts == 1 else pool(done)
    if parts > 1:
        print(done[0][0][0])  # the first process's build stamp
        for name, metric in result["metrics"].items():
            print(f"# metric {name} {metric['value']!r} {metric['unit']}")
    want = expected_metrics(args.trace)
    keys = ["correct", "attempted", "failed", "metrics"]
    if sorted(result) != sorted(keys) or (
            want is not None and list(result["metrics"]) != want):
        log(f"{workload}: result does not match BENCHMARK.json")
        return 3, None
    return worst, json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    commit = source_id()
    if args.workload != "all":
        code, line = run_one(binary, args.workload, args, commit)
        if line is not None:
            print(line, flush=True)
        return code

    # Every workload, each in its own process; the summary prefixes each
    # metric with its workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, line = run_one(binary, workload, args, commit)
        worst = max(worst, code)
        if line is None:
            summary["correct"] = False
            continue
        print(line, flush=True)
        result = json.loads(line)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
