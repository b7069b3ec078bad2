#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload <social-read|social-write|paper-import>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (perfbench/pb.exe) and the server
(bin/cypher_server.exe) from source with dune, then runs the program. The
last line of standard output is the JSON result. Exits non-zero, without
a result, when the build or the run fails. See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGETS = ["./perfbench/pb.exe", "./bin/cypher_server.exe"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["social-read", "social-write", "paper-import"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        print("run.py: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    # dune from PATH, else through opam's environment
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(dune + ["build", "--root", "."] + TARGETS,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join("_build", "default", "perfbench", "pb.exe"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server-exe", os.path.join("_build", "default", "bin",
                                        "cypher_server.exe"),
           "--run-dir", os.path.join("perfbench", "_run")]
    # pb.exe kills its own server children on exit; a run that
    # overstays is killed with its whole process group
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
