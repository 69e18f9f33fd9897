#!/usr/bin/env python3
"""Builds the kernel and the benchmark, runs one workload, prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpcc-mem --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". Lines before it start with
'#': the host fingerprint (#HOST), the benchmark's phases (#PHASE) and
extra figures (#INFO). Everything is built and written under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("tpcc-mem", "kv-read")
BUILD_TYPE = "RelWithDebInfo"
# Wall-clock limit of one run of the benchmark binary. A run normally takes
# about 30 s; one that exceeds this has stalled and is reported as failed,
# with the phase it stalled in. It is never re-run.
RUN_LIMIT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("kernel sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """Git sha of the checkout, or a digest of the sources when the checkout
    is not a git repository."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args):
    data_dir = os.path.join(OUT, "data", "%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--dir=" + data_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    state = {"phase": "start", "result": None, "build": ""}

    def read():
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("#RESULT "):
                state["result"] = line[len("#RESULT "):]
                continue
            if line.startswith("#PHASE "):
                state["phase"] = line.split()[1]
            elif line.startswith("#BUILD "):
                state["build"] = line[len("#BUILD "):]
            print(line, flush=True)

    reader = threading.Thread(target=read)
    reader.start()
    reason = None
    try:
        proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        reason = "timeout after %d s" % RUN_LIMIT_S
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join()
        shutil.rmtree(data_dir, ignore_errors=True)
    if reason is None and proc.returncode < 0:
        reason = "killed by signal %d" % -proc.returncode
    elif reason is None and state["result"] is None:
        reason = "exit code %d without a result" % proc.returncode
    return proc.returncode, state, reason


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    code, state, reason = run(args)
    print("#HOST " + json.dumps({
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "kernel": platform.release(), "build": state["build"],
        "source": source_digest()}), flush=True)
    if reason is not None:
        # A stalled or crashed run counts as one failed attempt; the phase
        # says where it stopped.
        print("#INFO failed_frac=1 phase=%s reason=%s" % (state["phase"], reason))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    result = json.loads(state["result"])
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
