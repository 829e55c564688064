#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The OCaml harness (perfbench/bench.ml) does the work; this wrapper builds it
with dune, bounds its run time, adds host provenance, and checks that the
result names exactly the metrics BENCHMARK.json declares, with their units.
The last line of standard output is the result object. Any failure exits
non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

# Small settings for the self-test: every workload in seconds, same code.
TINY = {
    "serve-cold": ["--scale", "0.02", "--rate", "4", "--setups", "2", "--eval-n", "4",
                   "--cap-requests", "8"],
    "build": ["--scale", "0.05", "--setups", "2", "--eval-n", "4"],
}


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a genie checkout" % need, 2)
    try:
        p = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def source_revision():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (FileNotFoundError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def cores_online():
    try:
        with open("/sys/devices/system/cpu/online") as f:
            n = 0
            for part in f.read().strip().split(","):
                lo, _, hi = part.partition("-")
                n += int(hi or lo) - int(lo) + 1
            return n
    except OSError:
        return os.cpu_count()


def stop_group(pgid):
    """Kills whatever is left of a process group (the harness starts a
    daemon process per pass) and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(args):
    """Runs the harness in a process group of its own; returns (exit code,
    stdout lines, stderr)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
        return p.returncode, out.splitlines(), err
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.communicate()
        return 124, [], "timed out after %d s" % RUN_TIMEOUT_S
    finally:
        stop_group(p.pid)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass


def checked_result(lines, trace):
    """The result object, or an error string if it breaks the contract."""
    if not lines:
        return None, "no output"
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None, "result keys %s" % sorted(res)
    if res["correct"] is not True or res["attempted"] < 1:
        return None, "result not correct"
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in want if k in got and got[k] != want[k])
        return None, "metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s" % (
            missing, extra, wrong)
    return res, None


def self_test():
    """Tiny runs of every workload, traced and untraced, plus one run per
    workload with corrupted expected digests, which must fail."""
    build()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        base = ["--workload", w, "--seed", "7", "--seconds", "2"] + TINY[w]
        for trace in (0, 1):
            code, lines, err = run_bench(base + ["--trace", str(trace)])
            res, why = checked_result(lines, trace) if code == 0 else (None, err.strip())
            print("%-10s trace=%d  %s" % (w, trace, "ok" if res else "FAIL: " + why))
            ok = ok and res is not None
        code, lines, err = run_bench(base + ["--trace", "0", "--corrupt-digest"])
        caught = code != 0 and "FAILED" in err and not lines
        print("%-10s corrupted digest %s" % (w, "fails the run: ok" if caught else "NOT caught"))
        ok = ok and caught
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
    if not a.workload:
        fail("--workload is required", 2)
    build()
    code, lines, err = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stderr.write(err)
    if code != 0:
        fail("benchmark failed (exit %d)" % code, code if code > 0 else 1)
    res, why = checked_result(lines, a.trace)
    if res is None:
        fail(why)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": {"revision": source_revision(),
                               "nproc": len(os.sched_getaffinity(0)),
                               "cores_online": cores_online()}}))
    print(lines[-1])


if __name__ == "__main__":
    main()
