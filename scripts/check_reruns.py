"""Rerun every manifest under some run directories and compare the outputs byte for byte.

    python scripts/check_reruns.py DIR [DIR ...] --into RERUN_DIR

Each `*_manifest.json` under a DIR is rerun with `winterdyn rerun` into the
same relative path under RERUN_DIR, and every output the manifest lists must
be byte-identical to the original.  Exits 1 when no manifest is found, a
rerun fails, an output differs or a `.staging-*` directory is left under a
DIR or RERUN_DIR.  winterdyn must be importable (e.g. PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="+")
    ap.add_argument("--into", required=True)
    args = ap.parse_args(argv)

    dirs = [os.path.abspath(d) for d in args.dirs]
    base = os.path.commonpath([os.path.dirname(d) for d in dirs])
    manifests = sorted(
        os.path.join(dirpath, name)
        for d in dirs
        for dirpath, _, filenames in os.walk(d)
        for name in filenames
        if name.endswith("_manifest.json")
    )
    if not manifests:
        print(f"no manifest under {' '.join(args.dirs)}")
        return 1

    failures = []
    for manifest in manifests:
        src = os.path.dirname(manifest)
        dst = os.path.join(args.into, os.path.relpath(src, base))
        run = subprocess.run([sys.executable, "-m", "winterdyn.cli", "rerun",
                              "--manifest", manifest, "--out", dst])
        if run.returncode != 0:
            failures.append(f"rerun of {manifest} exited {run.returncode}")
            continue
        with open(manifest) as fh:
            outputs = json.load(fh)["outputs"]
        for name in outputs:
            a, b = os.path.join(src, name), os.path.join(dst, name)
            if not (os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)):
                failures.append(f"{b} is missing or differs from {a}")

    failures += [
        f"staging directory left behind: {os.path.join(dirpath, name)}"
        for d in [*dirs, args.into]
        for dirpath, dirnames, _ in os.walk(d)
        for name in dirnames
        if name.startswith(".staging-")
    ]
    for line in failures:
        print(line)
    print(f"{len(manifests)} manifests rerun, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
