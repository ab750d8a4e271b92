#!/usr/bin/env python3
"""Example-output gate: run deterministic examples and diff their stdout.

Invoked from ctest (see fortress_examples_golden in CMakeLists.txt):

    examples_golden.py --bin-dir build --golden examples/golden \\
        quickstart detection_demo smr_determinism

Each named example runs with no arguments; its stdout must equal
<golden>/<name>.txt byte for byte. The examples run on the deterministic
simulator, so any difference is a behaviour change in the live stack.

To refresh an entry after a DELIBERATE behaviour change:

    build/<name> > examples/golden/<name>.txt
"""

import argparse
import difflib
import pathlib
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the built example binaries")
    parser.add_argument("--golden", required=True,
                        help="directory holding the committed <name>.txt")
    parser.add_argument("examples", nargs="+", help="example names")
    args = parser.parse_args()

    bin_dir = pathlib.Path(args.bin_dir).resolve()
    failures = 0
    for name in args.examples:
        golden = pathlib.Path(args.golden) / f"{name}.txt"
        if not golden.is_file():
            print(f"examples_golden: missing {golden}", file=sys.stderr)
            failures += 1
            continue
        proc = subprocess.run([str(bin_dir / name)], capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            print(f"examples_golden: {name} exited {proc.returncode}",
                  file=sys.stderr)
            failures += 1
            continue
        want = golden.read_bytes()
        if proc.stdout != want:
            diff = difflib.unified_diff(
                want.decode(errors="replace").splitlines(keepends=True),
                proc.stdout.decode(errors="replace").splitlines(keepends=True),
                fromfile=str(golden), tofile=f"{name} stdout")
            sys.stderr.writelines(diff)
            failures += 1
            continue
        print(f"examples_golden: {name} matches {golden.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
