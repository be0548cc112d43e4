#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the program and the
benchmark from source with sbt (perfbench/build.sbt depends on the root build)
and caches the resulting classpath under the build directory; later calls
reuse it while the sources are unchanged. The benchmark itself runs in one
JVM with a pinned driver heap; its standard output ends with one JSON line.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
STATE = os.path.join(BUILD, "state")
MAIN = "repro.perfbench.Main"
# Driver heap of the benchmark JVM, pinned so that runs are comparable.
DRIVER_HEAP = "3g"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file the build reads, to tell when to rebuild."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src/main", "jobs",
            "perfbench/build.sbt", "perfbench/project", "perfbench/src/main"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {cmd[0]}")
        return 124, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def classpath():
    """Build if the sources changed since the last build; return the classpath."""
    stamp = os.path.join(BUILD, "perfbench.classpath")
    digest = source_digest()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            saved_digest, cp = fh.read().split("\n", 1)
        if saved_digest == digest:
            return cp.strip()
    log("building program and benchmark with sbt")
    t0 = time.time()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, timeout=BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    lines = (out or b"").decode(errors="replace").splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines:
        log(f"build failed (exit {code})")
        sys.exit(code or 1)
    cp = lines[-1].strip()
    os.makedirs(BUILD, exist_ok=True)
    # Fingerprints and run times of an earlier build say nothing about this one.
    shutil.rmtree(STATE, ignore_errors=True)
    with open(stamp, "w") as fh:
        fh.write(digest + "\n" + cp + "\n")
    log(f"built in {time.time() - t0:.1f} s")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    cp = classpath()
    run_dir = os.path.join(BUILD, "run")
    for d in ("spark-local", "tmp"):
        os.makedirs(os.path.join(run_dir, d), exist_ok=True)
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.local.dir={os.path.join(run_dir, 'spark-local')}",
           f"-Djava.io.tmpdir={os.path.join(run_dir, 'tmp')}",
           "-cp", cp, MAIN,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state", STATE]
    code, _ = run_bounded(cmd, cwd=run_dir, timeout=RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
