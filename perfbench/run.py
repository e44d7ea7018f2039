#!/usr/bin/env python3
"""Build the service binaries and the benchmark client from source, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). Everything the benchmark writes at run time stays under
`.bench_run/` in the working directory. The last line of standard output is
the result JSON object printed by the `perfbench` binary; any build or run
failure exits non-zero without printing one.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def build(args, env):
    done = subprocess.run(["cargo", "build", "--release", "-q", *args], cwd=REPO_ROOT, env=env)
    if done.returncode != 0:
        sys.exit(f"run.py: `cargo build {' '.join(args)}` failed ({done.returncode})")


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", os.path.join(REPO_ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(REPO_ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at the repository root; run from a full checkout")
    # The binaries as shipped: the workspace's own release build.
    build(["-p", "xmlta-server", "--bins"], env)
    build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--xmltad", os.path.join(release, "xmltad"),
        "--xmlta", os.path.join(release, "xmlta"),
        *sys.argv[1:],
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=REPO_ROOT).returncode)


if __name__ == "__main__":
    main()
