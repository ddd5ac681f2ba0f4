#!/usr/bin/env python3
"""Interleaved A/B of perfbench: a base revision against the working tree.

Usage, from the repository root:
  python3 tools/perfbench_ab.py --base REV --workload NAME [--workload ...]
      [--seed N] [--seconds S] [--pairs N]

The base revision is exported with `git archive` into build-ab/ (which
.gitignore covers) and both sides are built and run through their own
perfbench/run.py, with CARGO_TARGET_DIR under build-ab/. Each workload
runs --pairs pairs of untraced measurements, alternating which side
goes first, after one discarded warm-up run per side (which also
builds). For every end-to-end metric in BENCHMARK.json the report
gives each side's median and interquartile range, the relative change
of the medians, and the pairs the working tree won (ties count for
neither side). The exit status is 1 when any run fails or reports
correct = false. Nothing is written outside build-ab/.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "build-ab")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(rev):
    """Export @rev into build-ab/base-<sha>/src once; returns its root."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, "base-" + sha[:12], "src")
    done = os.path.join(tree, ".exported")
    if not os.path.exists(done):
        os.makedirs(tree, exist_ok=True)
        blob = subprocess.run(["git", "archive", "--format=tar", sha],
                              cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tree)
        open(done, "w").close()
    return sha, tree


class Side:
    def __init__(self, name, tree, build):
        self.name = name
        self.tree = tree
        self.build = build

    def run(self, workload, seed, seconds):
        """One measurement; returns the harness's JSON result."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.build)
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, cwd=self.tree, env=env,
                           capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stdout + r.stderr)
            raise SystemExit("perfbench_ab: %s run of %s failed" %
                             (self.name, workload))
        return json.loads(lines[-1])


def summary(values):
    """(median, IQR) of a list of samples."""
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1


def report(workload, metrics, base_runs, head_runs):
    ok = all(r["correct"] for r in base_runs + head_runs)
    print("\n%s: %d pairs; correct %s; failed/attempted base %d/%d, "
          "head %d/%d" % (
              workload, len(base_runs), "true" if ok else "FALSE",
              sum(r["failed"] for r in base_runs),
              sum(r["attempted"] for r in base_runs),
              sum(r["failed"] for r in head_runs),
              sum(r["attempted"] for r in head_runs)))
    header = ("metric", "base median (IQR)", "head median (IQR)",
              "change", "head won")
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base_runs]
        h = [r["metrics"][name]["value"] for r in head_runs]
        (bm, biqr), (hm, hiqr) = summary(b), summary(h)
        won = sum(1 for x, y in zip(b, h)
                  if (y < x if lower else y > x))
        change = "identical" if b == h and len(set(b)) == 1 else (
            "%+.1f%%" % (100.0 * (hm - bm) / bm) if bm else "n/a")
        rows.append((name, "%.6g (%.3g)" % (bm, biqr),
                     "%.6g (%.3g)" % (hm, hiqr), change,
                     "%d/%d" % (won, len(b))))
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare the working tree to")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sha, base_tree = export_base(args.base)
    base = Side("base " + sha[:12], base_tree,
                os.path.join(AB_DIR, "base-" + sha[:12], "build"))
    head = Side("working tree", ROOT, os.path.join(AB_DIR, "head-build"))

    ok = True
    for workload in args.workload:
        for side in (base, head):
            side.run(workload, args.seed, 1)  # build and warm up
        runs = {base.name: [], head.name: []}
        for i in range(args.pairs):
            order = (base, head) if i % 2 == 0 else (head, base)
            for side in order:
                runs[side.name].append(
                    side.run(workload, args.seed, args.seconds))
        ok = report(workload, metrics, runs[base.name],
                    runs[head.name]) and ok
    if not ok:
        print("perfbench_ab: a run reported correct = false",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
