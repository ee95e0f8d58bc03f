#!/usr/bin/env python3
"""Build and run the perfbench binary; print its result as the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sync-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The binary is built from source (perfbench/CMakeLists.txt, which compiles
../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset. Run records and Chrome traces go to <build root>/out,
fingerprint temp files to <build root>/tmp (the binary's $TMPDIR); nothing
is written elsewhere.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. Any other outcome (no
sources, a failed build, a refused environment, an app over its wall bound,
a run over RUN_TIMEOUT_S) exits non-zero without printing a result.
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RUN_TIMEOUT_S = 170  # a measured run takes 25-40 s; this long means hung
RESULT_PREFIX = "PERFBENCH_RESULT "


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else Path.cwd() / root


def run_build_step(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        log(f"no rfdet sources next to the benchmark ({SRC_DIR} is missing)")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    build_dir = build_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_build_step(cmd):
            log("configure failed")
            return None
    if not run_build_step(["cmake", "--build", str(build_dir), "-j", "4"]):
        log("build failed")
        return None
    return build_dir / "perfbench"


def run_bench(binary, args):
    """Runs perfbench in its own process group; returns (code, stdout)."""
    out_dir = build_root() / "out"
    tmp_dir = build_root() / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    cmd = [str(binary), *args, f"--out-dir={out_dir}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped: {' '.join(args)}")
        return 3, ""
    return proc.returncode, stdout


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json asks for, or None without it."""
    path = Path.cwd() / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def parse_result(stdout, trace):
    """Returns perfbench's result object, or None when it is malformed.

    Only stdout is parsed; the runtime's teardown lines (for example
    "rfdet: coalesce: ...") go to stderr and are passed through untouched.
    """
    lines = [l for l in stdout.splitlines() if l.startswith(RESULT_PREFIX)]
    if not lines:
        log("perfbench printed no result")
        return None
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result has keys {sorted(result)}")
        return None
    want = expected_metrics(trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        log(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
        return None
    return result


def measure(args):
    binary = build()
    if binary is None:
        return 2
    trace = args.trace == 1
    bench_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--seconds={args.seconds}", f"--trace={args.trace}"]
    code, stdout = run_bench(binary, bench_args)
    for line in stdout.splitlines():
        if not line.startswith(RESULT_PREFIX):
            print(line)
    if code != 0:
        log(f"perfbench exited with code {code}")
        return code or 1
    result = parse_result(stdout, trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


def env_virtuals():
    """Names of the virtual member functions declared by dmt::Env."""
    text = (SRC_DIR / "rfdet/api/env.h").read_text()
    body = text[text.index("class Env {"):text.index("// A typed view")]
    return sorted(set(re.findall(r"virtual\s[^;{~]*?\b(\w+)\s*\(", body)))


def selftest():
    """Checker, decorator and catalog unit checks, then every workload at
    smoke size in both modes, each printing every named metric."""
    binary = build()
    if binary is None:
        return 2
    failures = []
    proc = subprocess.run([str(binary), "--selftest"], stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures.append("perfbench --selftest")
    tested = sorted(l.split()[1] for l in proc.stdout.splitlines() if l.startswith("virtual "))
    declared = env_virtuals()
    if tested != declared:
        failures.append(f"dmt::Env virtuals {declared} != selftest's list {tested}")
    overridden = set(re.findall(r"\b(\w+)\([^;]*\)\s*(?:const\s*)?override;",
                                (BENCH_DIR / "cpp/traced_env.h").read_text()))
    if missing := set(declared) - overridden:
        failures.append(f"TracedEnv does not override {sorted(missing)}")

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = [f"--workload={workload}", "--seed=7", "--seconds=0",
                    f"--trace={trace}", "--smoke"]
            code, stdout = run_bench(binary, args)
            result = parse_result(stdout, trace == 1) if code == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                failures.append(f"smoke {workload} trace {trace} (exit {code})")
            else:
                print(f"selftest: smoke {workload} trace {trace}: "
                      f"{len(result['metrics'])} metrics, "
                      f"{result['attempted']} runs checked")
    for f in failures:
        log(f"selftest FAILED: {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
