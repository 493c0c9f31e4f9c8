#!/usr/bin/env python3
"""Builds and runs the osoffload host-time benchmark.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload <fig4_sweep|topology_points|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds, in release mode, the `osoffload` CLI (whose `serve start` daemon
the serve workload drives) and this directory's benchmark package, then
runs the benchmark. Build output goes to `$CARGO_TARGET_DIR` (default
`.bench_build`); run files go to `.bench_run`. The benchmark's last line
of standard output is its JSON result. The exit code is non-zero when a
build fails, the arguments are wrong, or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, target, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build chatter goes to stderr so the result stays the last stdout line.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("hostbench: no Cargo.toml at %s; run from an osoffload checkout"
              % ROOT, file=sys.stderr)
        return 2
    for manifest, extra in ((root_manifest, ["-p", "osoffload-cli"]),
                            (os.path.join(HERE, "Cargo.toml"), [])):
        code = cargo_build(manifest, target, extra)
        if code != 0:
            print("hostbench: build of %s failed" % manifest, file=sys.stderr)
            return code
    bench = os.path.join(target, "release", "osoffload-hostbench")
    daemon = os.path.join(target, "release", "osoffload")
    cmd = [bench] + sys.argv[1:] + [
        "--daemon-bin", daemon,
        "--work-dir", os.path.join(ROOT, ".bench_run"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
