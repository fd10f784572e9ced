#!/usr/bin/env python3
"""Build the benchmark binary and run one workload of the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_overload --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The binary is compiled from source (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench on every invocation; an up-to-date build is a no-op.
The last line of standard output is the result object; everything else on
stdout starts with '#', and build output goes to stderr. See README.md.
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
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
PINS = HERE / "pins.txt"
WORKLOADS = ["matmul_offchip", "stencil_halo", "serve_overload", "cluster_4x4"]
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def run_binary(args, capture=False, pins=PINS):
    cmd = [str(BINARY), "--pins", str(pins), "--commit", commit_id()] + args
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture else None,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {CHILD_TIMEOUT_S} s: " + " ".join(cmd), 4)


def result_of(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def sim_fields(stdout, phase):
    """Per-repetition simulated metrics and digest from the '# <phase> rep' lines
    (every host time there is named *_s)."""
    reps = []
    for ln in stdout.splitlines():
        if ln.startswith(f"# {phase} rep "):
            reps.append([f for f in ln.split()[4:]
                         if not f.split("=")[0].endswith("_s")])
    return reps


def selftest():
    """Tiny inputs: every workload once untraced and once traced, then a
    deliberately wrong pinned value that must fail and name its metric."""
    problems = []
    for w in WORKLOADS:
        for trace, section, phase in (("0", "end_to_end", "timed"),
                                      ("1", "per_layer", "spans")):
            r = run_binary(["--workload", w, "--seed", "1", "--seconds", "1",
                            "--trace", trace, "--tiny", "--reps", "2"], capture=True)
            res = result_of(r.stdout)
            tag = f"{w} --trace {trace}"
            if r.returncode != 0 or res is None:
                problems.append(f"{tag}: no result (exit {r.returncode}): {r.stderr.strip()}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: checks failed: {r.stderr.strip()}")
            for name, unit in benchmark_names(section).items():
                m = res["metrics"].get(name)
                if m is None or m.get("unit") != unit:
                    problems.append(f"{tag}: metric {name} missing or not in {unit}")
            if section == "end_to_end" and res["metrics"].get("ok_frac", {}).get("value") != 1:
                problems.append(f"{tag}: ok_frac != 1")
            reps = sim_fields(r.stdout, phase)
            if len(reps) != 2 or reps[0] != reps[1]:
                problems.append(f"{tag}: two repetitions disagree: {reps}")
            if "# no pinned values" in r.stdout:
                problems.append(f"{tag}: no pinned values for the self-test seed")
    wrong = BUILD / "pins-wrong-sim_cycles.txt"
    pins = PINS.read_text()
    key = "matmul_offchip tiny 1 "
    lines = [" ".join(f"sim_cycles={int(f.split('=')[1]) + 1}" if f.startswith("sim_cycles=")
                      else f for f in ln.split()) if ln.startswith(key) else ln
             for ln in pins.splitlines()]
    wrong.write_text("\n".join(lines) + "\n")
    if wrong.read_text() == pins:
        problems.append(f"no pinned sim_cycles under '{key.strip()}' to corrupt")
    r = run_binary(["--workload", "matmul_offchip", "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--tiny", "--reps", "1"], capture=True, pins=wrong)
    res = result_of(r.stdout)
    if (res is None or res["correct"] or res["metrics"]["ok_frac"]["value"] >= 1
            or "sim_cycles" not in r.stderr):
        problems.append("a wrong pinned sim_cycles was not caught, counted and named")
    for p in problems:
        print(f"selftest: FAIL: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        return selftest()
    if a.workload is None:
        fail("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    if a.trace == "1":
        args += ["--spans-out", str(BUILD / f"spans-{a.workload}-{a.seed}.json")]
    r = run_binary(args)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        return r.returncode
    if result_of(r.stdout) is None:
        fail("perfbench printed no result object", 5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
