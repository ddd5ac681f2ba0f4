#!/usr/bin/env python3
"""Build and run AFASim's benchmark (see perfbench/README.md).

Usage, from the repository root:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest [--seed N]
  python3 perfbench/run.py --update-references

The harness is compiled from source on first use into the directory
named by $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.txt")
WORKLOADS = ["fig06_closed_qd1", "frontier_open_400k", "aged_mixed_gc",
             "raid5_limp_rebuild"]
# Seeds whose digests are committed: the development seeds and the
# held-out seed 1009, kept for confirming performance claims.
REFERENCE_SEEDS = list(range(32)) + [1009]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def configure(out):
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    return run_quiet(cmd)


def build():
    """Configure (once) and build the harness; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not configure(out):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    target = ["cmake", "--build", out, "--target", "afa_perfbench",
              "-j", jobs]
    if not run_quiet(target):
        # A cache left by another source tree cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if not configure(out) or not run_quiet(target):
            return None
    return os.path.join(out, "afa_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true",
                    help="unsliced, sliced and traced runs of every "
                         "workload must give the same digest")
    ap.add_argument("--update-references", action="store_true",
                    help="rewrite references.txt from this build")
    args = ap.parse_args()

    measuring = not (args.selftest or args.update_references)
    if measuring and (args.workload is None or args.seconds is None or
                      args.trace is None):
        ap.error("--workload, --seconds and --trace are required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.update_references:
        lines = ["# <workload> <seed> <digest>; regenerate with "
                 "python3 perfbench/run.py --update-references"]
        for w in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                r = subprocess.run([binary, "--digest", "--workload", w,
                                    "--seed", str(seed)],
                                   capture_output=True, text=True)
                if r.returncode != 0:
                    sys.stderr.write(r.stdout + r.stderr)
                    return 1
                lines.append(r.stdout.strip())
        with open(REFERENCES, "w") as f:
            f.write("\n".join(lines) + "\n")
        return 0

    cmd = [binary, "--references", REFERENCES, "--seed", str(args.seed)]
    if args.selftest:
        cmd += ["--selftest", "--workload", args.workload or "all"]
    else:
        cmd += ["--workload", args.workload, "--seconds",
                str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
