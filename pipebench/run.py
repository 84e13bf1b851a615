#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 pipebench/run.py --workload select|native|simulate \
        --seed N --seconds S --trace 0|1 [driver options]

The build goes to $CARGO_TARGET_DIR when set, else .bench_build; scratch
artifacts and trace files go to .bench_work. Build output goes to standard
error, so the last line of standard output is the driver's JSON result.
Exits non-zero without a result when the build or the set-up fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """Git revision when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git-" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "pipebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256-" + h.hexdigest()[:12]


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(build_dir, "pipebench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None or not os.access(binary, os.X_OK):
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--work", ".bench_work", "--rev", revision()]
    cmd += sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
