#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 e2e_bench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

The workload seed defaults to 1.

Builds e2e_bench/ (and the repository libraries it links) into the build
directory -- $CARGO_TARGET_DIR when set, else .bench_build -- then runs
syn_e2e in a fresh, empty run directory inside it, and removes that
directory afterwards. syn_e2e's standard output is passed through, except
that its last line, the result object, is checked against BENCHMARK.json and
completed first: a traced run gets the per-layer metrics its workload does
not measure, as 0. Build logs go to standard error. Each result is also
appended, with its run context, to <build dir>/results.jsonl, and a traced
run writes its spans to <build dir>/traces/.

The run directory is a private tmpfs mounted in a mount namespace of the
run's own (unshare), so the datasets a run writes stay in RAM and vanish
with the process. Where no such mount is permitted the run is refused:
results from a disk-backed directory are not comparable.

Exit status is syn_e2e's (0 = every output check passed); 1 when the build
fails or the metrics differ from BENCHMARK.json, 3 when the run outlives
its cap, 4 when no private tmpfs can be mounted.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dataset-syncircuit", "daemon-jobs", "fleet-jobs")
# syn_e2e stops itself at 160 s; this is the backstop.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then brings syn_e2e up to date. Serialised by a lock
    file so concurrent invocations never build over each other."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(out, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        step = ["cmake", "--build", out, "--target", "syn_e2e", "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


# Mounts a tmpfs on the run directory, enters it and execs the command.
MOUNT_AND_EXEC = ('mount -t tmpfs -o size=1g,mode=0700 e2e_run "$1" && '
                  'cd "$1" && shift && exec "$@"')


def private_tmpfs_prefix(run_dir):
    """The unshare invocation that can mount a private tmpfs here (as root,
    or in a user namespace), or None when neither is permitted."""
    if shutil.which("unshare") is None:
        return None
    for flags in (["-m"], ["-r", "-m"]):
        prefix = ["unshare"] + flags + ["--propagation", "private"]
        probe = prefix + ["sh", "-c", MOUNT_AND_EXEC, "sh", run_dir, "true"]
        if subprocess.run(probe, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            return prefix + ["sh", "-c", MOUNT_AND_EXEC, "sh", run_dir]
    return None


def complete_metrics(result, trace):
    """Checks the result's metrics against the ones BENCHMARK.json lists for
    this run kind and puts them in its order; a traced run's unmeasured
    layers read 0. Returns what is wrong, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = result["metrics"]
    wrong = sorted(n for n, m in got.items() if units.get(n) != m["unit"])
    if wrong:
        return "unknown metrics or units: %s" % wrong
    missing = sorted(set(units) - set(got))
    if trace == "0" and missing:
        return "end-to-end metrics missing: %s" % missing
    result["metrics"] = {n: got.get(n, {"value": 0.0, "unit": u})
                         for n, u in units.items()}
    return None


def code_identity():
    """The git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds, so results stay attributable either way."""
    digest = hashlib.sha256()
    for top in ("src", "e2e_bench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                digest.update(f.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return (commit or "nogit") + "+src." + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("e2e_bench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(out, "syn_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", code_identity()]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            out, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    prefix = private_tmpfs_prefix(run_dir)
    if prefix is None:
        shutil.rmtree(run_dir, ignore_errors=True)
        print("e2e_bench: cannot mount a private tmpfs (unshare -m or "
              "unshare -r -m); refusing a disk-backed run", file=sys.stderr)
        return 4
    try:
        proc = subprocess.run(prefix + command, cwd=run_dir,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    problem = complete_metrics(result, args.trace)
    if problem is not None:
        print("e2e_bench: %s (see BENCHMARK.json)" % problem, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    context = dict(kv.split("=", 1) for kv in lines[0].split()[1:] if "=" in kv)
    with open(os.path.join(out, "results.jsonl"), "a") as log:
        log.write(json.dumps({"context": context, "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
