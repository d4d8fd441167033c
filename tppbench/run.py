#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 tppbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of the workloads BENCHMARK.json names, or `all` (each of them
in its own process, one after another); `run.py --build-only` just
builds. Every other argument goes to tppbench/bench.exe unchanged; see
bench.ml for what it measures and metrics.json for what each metric
means. The last line of standard output is the run's JSON result (for
`all`, a verdict line).

Run it from anywhere inside a checkout of the repository: it builds with
dune in the checkout's own _build directory and writes nothing outside
the checkout. Trace runs write their per-layer JSON to tppbench/out/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 2


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no library sources beside the benchmark "
                    "(expected dune-project and lib/ in " + ROOT + ")")
    # Build output goes to stderr: stdout is the result.
    done = subprocess.run(["dune", "build", "--root", ROOT,
                           "./tppbench/bench.exe"],
                          env=env, cwd=ROOT, stdout=sys.stderr)
    return done.returncode


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main(args):
    env = dict(os.environ, DUNE_CACHE="disabled", TPPBENCH_COMMIT=commit())
    code = build(env)
    if code != 0:
        return code or 1
    exe = os.path.join(ROOT, "_build", "default", "tppbench", "bench.exe")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args == ["--build-only"]:
        return 0
    workload = arg_value(args, "--workload")
    names = workloads() if workload == "all" else [workload]
    verdicts = []
    for name in names:
        wargs = list(args)
        if workload == "all":
            wargs[wargs.index("--workload") + 1] = name
        if "--trace-out" not in wargs:
            wargs += ["--trace-out",
                      os.path.join(out_dir, "trace-%s.json" % name)]
        if workload != "all":
            return subprocess.run([exe] + wargs, env=env, cwd=ROOT).returncode
        run = subprocess.run([exe] + wargs, env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
        lines = run.stdout.splitlines()
        # Keep the readable lines; the per-workload JSON is not the verdict.
        print("\n".join(lines[:-1]), flush=True)
        verdicts.append(run.returncode == 0)
    print("all/correct %s" % ("true" if all(verdicts) else "false"))
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
