#!/usr/bin/env python3
"""Build the service and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload popular-hot|rob-unique|rob-eval|all \
        --seed N --seconds S --trace 0|1

Run it from a full checkout. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). The last line of standard
output is the benchmark's JSON result; `--workload all` runs every workload
in turn. The exit code is 0 when every answer was correct, 1 when one was
wrong and 2 when the build or the run could not complete.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["popular-hot", "rob-unique", "rob-eval"]
BUILDS = [
    # The shipped server binary, built by the repository's own workspace.
    ["cargo", "build", "--release", "--offline", "--locked", "-p", "text2vis", "--bin", "t2v-serve"],
    # The benchmark, a package of its own.
    ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", "perfbench/Cargo.toml"],
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    if "--workload" not in args or args.index("--workload") + 1 >= len(args):
        fail("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml and crates/)")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in BUILDS:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    at = args.index("--workload") + 1
    names = WORKLOADS if args[at] == "all" else [args[at]]
    code = 0
    for name in names:
        argv = args[:at] + [name] + args[at + 1:]
        run = [str(target / "release" / "perfbench"), *argv, "--server", str(target / "release" / "t2v-serve")]
        rc = subprocess.run(run, cwd=ROOT, env=env).returncode
        code = max(code, rc if rc >= 0 else 2)
    sys.exit(code)


if __name__ == "__main__":
    main()
