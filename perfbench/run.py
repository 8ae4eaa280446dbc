#!/usr/bin/env python3
"""Run the FEDEX explain benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the program's sources
together with the harness (an sbt project in this directory) and keeps the
classpath under .bench_build/; later runs rebuild only when a source changed.
The harness prints progress lines, then one JSON result object as the last
line of standard output. Full records (per-pass times, per-query numbers,
spans of the traced pass, the environment) go to .bench_build/perfbench/.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
HEAP = "3g"
# Whole-run limit: a result must be printed well inside 180 seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark on JDK 17 needs these module opens (as the main build adds them).
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if home:
        return home
    submit = shutil.which("spark-submit")
    if not submit:
        fail("no Spark: set SPARK_HOME or put spark-submit on PATH")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group if it overruns."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def classpath(digest, env):
    """Build if the sources changed since the last build; return the classpath."""
    cp_file = os.path.join(STATE, "classpath.txt")
    stamp_file = os.path.join(STATE, "classpath.sha256")
    with open(os.path.join(STATE, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(cp_file) and os.path.exists(stamp_file):
            with open(stamp_file) as f:
                if f.read().strip() == digest:
                    with open(cp_file) as g:
                        return g.read().strip()
        code, out = run_group(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        lines = [l for l in out.splitlines() if l.strip()]
        if code != 0 or not lines or lines[-1].startswith("["):
            sys.stderr.write(out[-4000:])
            fail("build failed")
        cp = lines[-1].strip()
        with open(cp_file, "w") as f:
            f.write(cp)
        with open(stamp_file, "w") as f:
            f.write(digest)
        return cp


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(PROGRAM_SOURCES, "repro", "core", "Explain.scala")):
        fail(f"the program's sources are missing ({os.path.relpath(PROGRAM_SOURCES, ROOT)}); "
             "run from the root of a full checkout")
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    digest = source_hash()
    cp = classpath(digest, env)

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}",
           f"-Djava.io.tmpdir={os.path.join(STATE, 'tmp')}", "-Dspark.ui.enabled=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--out", STATE,
            "--commit", git_commit(), "--source-hash", digest]
    log_path = os.path.join(STATE, f"{a.workload}-seed{a.seed}-trace{a.trace}.log")
    with open(log_path, "w") as log:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or not out.strip().splitlines()[-1:] or not out.strip().splitlines()[-1].startswith("{"):
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"benchmark exited with code {code} and no result (log: {os.path.relpath(log_path, ROOT)})")


if __name__ == "__main__":
    main()
