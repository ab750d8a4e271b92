#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload attack_horizon --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --capture-pins

The first call configures and builds the library and the benchmark from
source with CMake (in $CARGO_TARGET_DIR, default .bench_build, under the
checkout); later calls only rebuild what changed. The last line of standard
output is the result object; everything before it is human-readable.

--self-test runs every workload at a tiny size, checks that each metric
BENCHMARK.json names is printed with its unit, that the trace file is valid
Chrome trace JSON, and that a deliberately wrong pin is reported as a
failure. --capture-pins re-records perfbench/pins.json at the pin seed (only
after a deliberate change of the simulated results).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack_horizon", "screening_sweep", "service_load")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure once, then (re)build the benchmark target; returns the
    binary's path. Build output goes to stderr only on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no library sources (CMakeLists.txt, src/) to build")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_binary(binary, workload, seed, seconds, trace, size="full",
               pins=HERE / "pins.json"):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--trace-out", str(trace_dir / f"{workload}-{size}-seed{seed}.json")]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(binary, w, 1, 1, trace, size="tiny")
            res = result_of(out)
            expect(code == 0 and res is not None and res["correct"],
                   f"{w} tiny trace={trace}: exit 0 and correct")
            if res is None:
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{w} trace={trace}: {m['name']} in {m['unit']}")
            if trace == 1:
                path = build_dir() / "traces" / f"{w}-tiny-seed1.json"
                try:
                    events = json.loads(path.read_text())["traceEvents"]
                    ok = bool(events) and all(
                        e["ph"] == "X" and e["dur"] >= 0 for e in events)
                except (OSError, ValueError, KeyError):
                    ok = False
                expect(ok, f"{w}: {path.name} is Chrome trace JSON")

        # A deliberately wrong pin must be reported as a failure.
        pins = json.loads((HERE / "pins.json").read_text())
        entry = pins["pins"][f"{w}/tiny"]
        entry["cells"][0] = "0x%016x" % (int(entry["cells"][0], 16) ^ 1)
        bad = build_dir() / "wrong_pins.json"
        bad.write_text(json.dumps(pins))
        code, out = run_binary(binary, w, 1, 1, 0, size="tiny", pins=bad)
        res = result_of(out)
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               f"{w}: a wrong pin is reported as a failed cell")
    print("self-test:", "PASS" if not problems else f"{len(problems)} FAILED")
    return 0 if not problems else 1


def capture_pins(binary):
    pins = json.loads((HERE / "pins.json").read_text())
    seed = pins["seed"]
    for w in WORKLOADS:
        for size in ("full", "tiny"):
            code, out = run_binary(binary, w, seed, 1, 0, size=size,
                                   pins=None)
            lines = out.splitlines()
            head = next(json.loads(l[len("pins: "):]) for l in lines
                        if l.startswith("pins: "))
            cells = next(json.loads(l[len("pin_cells: "):]) for l in lines
                         if l.startswith("pin_cells: "))
            entry = {"campaign": head["campaign"], "cells": cells}
            if w == "screening_sweep":
                entry["report"] = head["report"]
            pins["pins"][f"{w}/{size}"] = entry
            print(f"{w}/{size}: {head['campaign']} (exit {code})")
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--capture-pins", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.capture_pins or args.workload):
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.capture_pins:
        return capture_pins(binary)
    code, out = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
