#!/usr/bin/env python3
"""Shard bit-identity gate: the sharding contract, checked end to end.

Invoked from ctest (see fortress_tests_shard in CMakeLists.txt):

    shard_check.py --driver build/campaign_driver --specs specs/

For every committed specs/*.json campaign spec this runs the full
multi-process driver twice — `run --shards 1` and `run --shards 2` — and
requires the two merged result reports to be BYTE-identical. The
`--shards 1` report must also hash (FNV-1a 64) to the value committed next
to the spec as specs/<name>.report.fnv1a64 ("fnv1a64:<16 hex digits>"), so
drift in the spec, sidecar or report format — or in any pinned campaign
aggregate — fails end to end, not only a 1-vs-2-shard difference. That is the
scale-out contract of scenario/shard.hpp: trial seeds derive from global
cell indices and adaptive stopping is per-cell, so partitioning the grid
across processes must change nothing (specs here keep work_stealing off,
whose donation pool is deliberately per-process). The check also exercises
fork/wait, the sidecar codec and the merge's coverage checks for real.

An empty or missing specs directory is an error, and so is a spec without
its report pin: both are committed fixtures, losing one silently would
disarm the gate.

The driver's argument parsing is pinned too: a `shard` invocation whose
--shard/--shards value is out of range or not a whole number (one that a
wrapping or truncating parser would turn into a valid-looking shard) must
exit non-zero and leave no sidecar behind. `shard` rather than `run`, so a
driver that accepts the value runs one small shard instead of forking.

Each subcommand must reject an option it does not take (and `run`/`shard`
a positional argument) with a non-zero exit and nothing written, and the
README's commands must work as documented: `run --out-dir D` without
--out prints the merged report, and `shard --out` per shard followed by
`merge --out F <sidecars>` reproduces the `run --shards 1` report byte for
byte.

Sidecars and reports are written to `<path>.tmp` and renamed over the
target, so no `*.tmp` file may be left after `run` or `shard`, and a write
that fails (here: `<path>.tmp` pre-created as a directory) must exit
non-zero and leave the previous target byte-identical.
"""

import argparse
import pathlib
import subprocess
import sys
import tempfile


def run_sharded(driver: str, spec: pathlib.Path, shards: int,
                workdir: pathlib.Path) -> bytes:
    out_dir = workdir / f"shards-{shards}"
    out_dir.mkdir()
    merged = workdir / f"merged-{shards}.json"
    subprocess.run(
        [driver, "run", "--spec", str(spec), "--shards", str(shards),
         "--out-dir", str(out_dir), "--out", str(merged)],
        check=True)
    sidecars = sorted(out_dir.glob("shard-*.json"))
    if len(sidecars) != shards:
        raise RuntimeError(
            f"{spec.name}: expected {shards} sidecars, found {len(sidecars)}")
    check_no_tmp(spec, workdir)
    return merged.read_bytes()


def check_no_tmp(spec: pathlib.Path, workdir: pathlib.Path) -> None:
    left = sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*.tmp"))
    if left:
        raise RuntimeError(f"{spec.name}: temporary files left: {left}")


def check_atomic_shard_write(driver: str, spec: pathlib.Path) -> int:
    """`shard` leaves no *.tmp; a failed write keeps the old target."""
    with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
        workdir = pathlib.Path(tmp)
        out = workdir / "s.json"
        cmd = [driver, "shard", "--spec", str(spec), "--shard", "0",
               "--shards", "2", "--out", str(out)]
        try:
            subprocess.run(cmd, check=True)
            check_no_tmp(spec, workdir)
        except (subprocess.CalledProcessError, RuntimeError) as e:
            print(f"FAIL shard write: {e}", file=sys.stderr)
            return 1
        before = out.read_bytes()
        (workdir / "s.json.tmp").mkdir()
        proc = subprocess.run(cmd, capture_output=True)
        if proc.returncode == 0 or out.read_bytes() != before:
            print(f"FAIL shard with an unwritable temp file: exit "
                  f"{proc.returncode}, target "
                  f"{'kept' if out.read_bytes() == before else 'changed'}",
                  file=sys.stderr)
            return 1
    print("OK   shard writes via a renamed temp file")
    return 0


# (--shard, --shards) pairs the driver must reject without writing anything.
BAD_SHARD_ARGS = [
    ("0", "4294967298"),  # wraps to 2 through a 32-bit cast
    ("2x", "4"),          # trailing junk; a prefix parse reads 2
    ("0", "-1"),          # negative; an unsigned parse wraps to 2^32 - 1
]


def check_rejects_bad_args(driver: str, spec: pathlib.Path) -> int:
    # Absolute paths: each case runs inside its own empty directory.
    driver = str(pathlib.Path(driver).resolve())
    spec = spec.resolve()
    failures = 0
    for shard, shards in BAD_SHARD_ARGS:
        with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
            proc = subprocess.run(
                [driver, "shard", "--spec", str(spec), "--shard", shard,
                 "--shards", shards, "--out", str(pathlib.Path(tmp) / "s.json")],
                cwd=tmp, capture_output=True)
            left = sorted(p.name for p in pathlib.Path(tmp).iterdir())
        label = f"shard --shard {shard} --shards {shards}"
        if proc.returncode == 0 or left:
            print(f"FAIL {label}: exit {proc.returncode}, left {left}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {label} rejected")
    return failures


# Invocations the driver must reject: options a subcommand does not take
# and stray positional arguments. {spec} and {dir} are filled in per case.
BAD_INVOCATIONS = [
    ["shard", "--spec", "{spec}", "--shard", "0", "--shards", "2",
     "--out-dir", "{dir}"],
    ["run", "--spec", "{spec}", "--shards", "1", "--out-dir", "{dir}",
     "--shard", "0"],
    ["run", "--spec", "{spec}", "--shards", "1", "--out-dir", "{dir}",
     "extra.json"],
    ["merge", "--spec", "{spec}", "--shards", "2", "--out-dir", "{dir}",
     "--out", "{dir}/merged.json"],
    ["merge", "--shards", "2", "{dir}/shard-0.json"],
]


def check_rejects_misplaced_options(driver: str, spec: pathlib.Path) -> int:
    driver = str(pathlib.Path(driver).resolve())
    spec = spec.resolve()
    failures = 0
    for case in BAD_INVOCATIONS:
        with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
            args = [a.format(spec=spec, dir=tmp) for a in case]
            proc = subprocess.run([driver] + args, cwd=tmp,
                                  capture_output=True)
            left = sorted(p.name for p in pathlib.Path(tmp).iterdir())
        label = " ".join(case)
        if proc.returncode == 0 or left:
            print(f"FAIL {label}: exit {proc.returncode}, left {left}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {label} rejected")
    return failures


def check_documented_commands(driver: str, spec: pathlib.Path,
                              want: bytes) -> int:
    """The README's run / shard / merge commands reproduce `want`."""
    with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
        workdir = pathlib.Path(tmp)
        out = workdir / "out"
        out.mkdir()
        try:
            printed = subprocess.run(
                [driver, "run", "--spec", str(spec), "--shards", "2",
                 "--out-dir", str(out)],
                check=True, capture_output=True).stdout
            sidecars = []
            for shard in range(2):
                sidecar = out / f"phase-{shard}.json"
                subprocess.run(
                    [driver, "shard", "--spec", str(spec), "--shard",
                     str(shard), "--shards", "2", "--out", str(sidecar)],
                    check=True)
                sidecars.append(str(sidecar))
            merged = workdir / "merged.json"
            subprocess.run(
                [driver, "merge", "--out", str(merged)] + sidecars,
                check=True)
            check_no_tmp(spec, workdir)
        except (subprocess.CalledProcessError, RuntimeError) as e:
            print(f"FAIL documented commands: {e}", file=sys.stderr)
            return 1
        failures = 0
        if printed != want:
            print("FAIL run without --out: stdout differs from the merged "
                  "report", file=sys.stderr)
            failures += 1
        if merged.read_bytes() != want:
            print("FAIL shard + merge: report differs from run --shards 1",
                  file=sys.stderr)
            failures += 1
    if failures == 0:
        print("OK   documented run / shard / merge commands")
    return failures


def fnv1a64(data: bytes) -> int:
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def report_pin(spec: pathlib.Path) -> str:
    pin = spec.with_name(spec.stem + ".report.fnv1a64")
    return pin.read_text().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", required=True,
                        help="path to the built campaign_driver binary")
    parser.add_argument("--specs", required=True,
                        help="directory holding the committed *.json specs")
    args = parser.parse_args()

    spec_dir = pathlib.Path(args.specs)
    specs = sorted(spec_dir.glob("*.json"))
    if not specs:
        print(f"shard_check: no *.json specs under {spec_dir}",
              file=sys.stderr)
        return 1

    failures = 0
    first_report = None
    for spec in specs:
        with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
            workdir = pathlib.Path(tmp)
            try:
                one = run_sharded(args.driver, spec, 1, workdir)
                two = run_sharded(args.driver, spec, 2, workdir)
            except (subprocess.CalledProcessError, RuntimeError) as e:
                print(f"FAIL {spec.name}: {e}", file=sys.stderr)
                failures += 1
                continue
        if spec == specs[0]:
            first_report = one
        try:
            want = report_pin(spec)
        except OSError as e:
            print(f"FAIL {spec.name}: missing report pin: {e}",
                  file=sys.stderr)
            failures += 1
            continue
        got = f"fnv1a64:{fnv1a64(one):016x}"
        if got != want:
            print(f"FAIL {spec.name}: merged report ({len(one)} bytes) "
                  f"hashes to {got}, pinned {want}", file=sys.stderr)
            failures += 1
        elif one != two:
            print(f"FAIL {spec.name}: merged reports differ between "
                  "--shards 1 and --shards 2 (sharding must be "
                  "bit-invariant with work stealing off)", file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {spec.name}")
    failures += check_rejects_bad_args(args.driver, specs[0])
    failures += check_rejects_misplaced_options(args.driver, specs[0])
    if first_report is not None:
        failures += check_documented_commands(args.driver, specs[0],
                                              first_report)
    failures += check_atomic_shard_write(args.driver, specs[0])
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
