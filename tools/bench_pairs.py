#!/usr/bin/env python3
"""Runs the benchmark on two revisions in alternating pairs and compares them.

    tools/bench_pairs.py --base REV --new REV --workload NAME \\
                         [--pairs 10] [--seed N] [--seconds S]

Each revision is extracted with `git archive` into .bench_build/pairs/<sha>/src
at the repository root, and its own benchmark/ project builds tapesim_benchmark
in Release mode into .bench_build/pairs/<sha>/build. Both are reused while REV
names the same commit, so only committed code is measured. Pair i runs the base
revision first when i is even and the new one first when i is odd, each side
through its own benchmark/run.py. Every run keeps its JSON and its log under
.bench_build/pairs/runs/<workload>-seed<N>-<base>-<new>-<time>/, and each run
prints its fingerprint, setup_s, requests_per_host_s and peak_rss_mib. The
script then prints each side's fingerprints and whether they match, and ends by
running this checkout's benchmark/compare.py on the runs, pair by pair. It
exits with compare.py's status, or 1 when a build or a run fails or when the
two sides' fingerprint sets differ: a change that moves modelled outcomes
fails even when every metric moved the "better" way.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_build" / "pairs"


def fail(message):
    print(f"bench_pairs.py: {message}", file=sys.stderr)
    sys.exit(1)


def resolve(rev):
    """Full commit id of `rev`."""
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"unknown revision {rev!r}")
    return proc.stdout.strip()


def build(sha):
    """Extracts and builds `sha` once; returns (source dir, binary)."""
    home = PAIRS_DIR / sha
    src = home / "src"
    build_dir = home / "build"
    binary = build_dir / "tapesim_benchmark"
    stamp = home / "built"
    if stamp.is_file() and binary.is_file():
        print(f"bench_pairs.py: reusing the build of {sha[:12]}")
        return src, binary
    print(f"bench_pairs.py: building {sha[:12]} in {home}")
    if src.exists():
        shutil.rmtree(src)
    src.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(src)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"cannot extract {sha[:12]}")
    if not (src / "benchmark" / "run.py").is_file():
        fail(f"{sha[:12]} has no benchmark/run.py")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", str(src / "benchmark"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", str(build_dir), "--target",
              "tapesim_benchmark", "-j", str(os.cpu_count() or 1)]]
    log = home / "build.log"
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build of {sha[:12]} failed; log in {log}")
    stamp.write_text(sha + "\n")
    return src, binary


def run(side, src, binary, args, out_dir):
    """One run through the revision's own run.py; returns its JSON path."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(src / "benchmark" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--binary", str(binary), "--out", str(out_dir)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    with open(out_dir / "run.log", "w") as log:
        code = subprocess.run(cmd, cwd=src, stdout=log,
                              stderr=subprocess.STDOUT).returncode
    result = out_dir / f"{args.workload}.json"
    if code != 0 or not result.is_file():
        fail(f"{side} run failed (exit {code}); log in {out_dir / 'run.log'}")
    data = json.loads(result.read_text())
    shown = "  ".join(f"{name} {data['metrics'].get(name, {}).get('value')}"
                      for name in ("setup_s", "requests_per_host_s",
                                   "peak_rss_mib"))
    print(f"  {side:4s} fingerprint {data['fingerprint']}  {shown}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--new", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "of each revision's BENCHMARK.json)")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    shas = {"base": resolve(args.base), "new": resolve(args.new)}
    builds = {side: build(sha) for side, sha in shas.items()}
    runs_dir = (PAIRS_DIR / "runs" /
                f"{args.workload}-seed{args.seed}-{shas['base'][:12]}-"
                f"{shas['new'][:12]}-{time.strftime('%Y%m%dT%H%M%S')}")
    results = {"base": [], "new": []}
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first)")
        for side in order:
            src, binary = builds[side]
            results[side].append(run(side, src, binary, args,
                                     runs_dir / f"pair{i:02d}-{side}"))

    prints = {side: sorted({json.loads(p.read_text())["fingerprint"]
                            for p in paths})
              for side, paths in results.items()}
    print(f"fingerprint base {', '.join(prints['base'])}; "
          f"new {', '.join(prints['new'])}: "
          f"{'match' if prints['base'] == prints['new'] else 'DIFFER'}")
    print(f"runs kept in {runs_dir}\n")
    sys.stdout.flush()
    compare = [sys.executable, str(ROOT / "benchmark" / "compare.py"),
               "--base"] + [str(p) for p in results["base"]] + \
              ["--new"] + [str(p) for p in results["new"]]
    code = subprocess.run(compare, cwd=ROOT).returncode
    if prints["base"] != prints["new"]:
        print("bench_pairs.py: fingerprints differ: base "
              f"{', '.join(prints['base'])}; new {', '.join(prints['new'])}",
              file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
