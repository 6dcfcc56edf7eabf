"""Write the reference outputs that ``check.py`` compares every run against.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py [--scale full|tiny] [--workload NAME ...]

For each workload and each of the ``workloads.REF_SEEDS`` program seeds it
runs the workload's commands once and stores their exit codes and CSV texts
in ``perfbench/ref/<scale>/<workload>.json.gz``.  The committed references
were made at the commit that added the benchmark; regenerate them only for a
change whose new outputs have been checked some other way.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys

import check
import workloads
from run import OUT, ROOT, child_env


def reference_entry(name: str, seed: int, scale: str) -> dict:
    out_dir = os.path.join(OUT, "make_refs", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    codes = []
    for argv in workloads.commands(name, seed, out_dir, scale):
        proc = subprocess.run(
            [sys.executable, "-m", "limpprob.cli", *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
            raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        codes.append(proc.returncode)
    return {"exit_codes": codes, "files": check.read_outputs(out_dir)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    for name in args.workload or workloads.NAMES:
        entries = {}
        for seed in range(workloads.REF_SEEDS):
            entries[str(workloads.program_seed(seed))] = reference_entry(name, seed, args.scale)
        path = check.ref_path(name, args.scale)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = json.dumps(entries, indent=0, sort_keys=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(gzip.compress(data, mtime=0))
        print(f"wrote {path} ({len(data)} bytes before compression)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
