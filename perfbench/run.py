#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore|rtl|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test       # golden-check self-test
    python3 perfbench/run.py --write-golden    # regenerate perfbench/golden

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout; its output goes to stderr so that the benchmark's JSON
result stays the last line of stdout.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no tensorlib sources next to perfbench/ (src/ is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["explore", "rtl", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.write_golden):
        parser.error("give --workload, --self-test or --write-golden")

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(os.path.abspath(target), "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    command = [os.path.join(build_dir, "perfbench"), "--data",
               os.path.join("perfbench", "golden"), "--work", build_dir]
    if args.self_test:
        command.append("--self-test")
    elif args.write_golden:
        command.append("--write-golden")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--server", os.path.join(build_dir, "explore_server")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
