"""Benchmark of evolalg: classify and identity-check throughput.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or ``all`` to run every workload in turn.
One caller drives the public API in a closed loop, each workload in a
fresh interpreter (perfbench/worker.py) with PYTHONHASHSEED pinned.
Every answer is checked without the library's own code paths.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (ops_per_s, op_p50_ms, op_tail_ms, peak_rss_mb, setup_s);
with ``--trace 1`` they are per-layer calls and self times taken from
spans around evolalg's functions, plus the tracing overhead.  Lines
before it record the environment, the digests of inputs and outputs,
and the end-to-end figures under their user-facing names.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS
from worker import HERE, SRC

ROOT = os.path.dirname(HERE)
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
RUN_LIMIT_S = 170.0
SETUP_RUNS = 11

# per-layer metrics reported by a traced run, as <module>.<function>.<stat>
LAYER_METRICS = (
    "monomial.monomial_solutions.calls", "monomial.monomial_solutions.self_s",
    "monomial.monomial_solutions.yielded", "monomial.pattern_cells.calls",
    "checks.is_power_associative.calls", "checks.is_power_associative.self_s",
    *(f"checks.{f}.{s}" for f in ("is_jordan", "is_associative", "is_nil",
                                   "nil_profile", "annihilator_chain")
      for s in ("calls", "self_s")),
    "core.multiply.calls", "core.multiply.self_s",
    *(f"fields.{f}.calls" for f in ("add", "mul", "div", "inv", "is_zero")),
    *(f"core.{f}.{s}" for f in ("rref", "solve_in_span", "mat_inverse", "mat_mul")
      for s in ("calls", "self_s")),
    *(f"classify.{f}.{s}" for f in ("verify_isomorphism", "change_basis")
      for s in ("calls", "self_s")),
    "classify.classify.calls", "classify.classify.self_s", "classify.classify.total_s",
    *(f"decomp.{f}.{s}" for f in ("wedderburn", "graph_components")
      for s in ("calls", "self_s")),
    *(f"catalog.{f}.{s}" for f in ("instantiate", "canonical_algebra")
      for s in ("calls", "self_s")),
    "cli.parse_algebra_file.calls", "cli.parse_algebra_file.self_s",
    "trace.overhead_frac",
)

SETUP_SNIPPET = f"""
import os, sys, time
sys.path.insert(0, {SRC!r})
t0 = time.perf_counter()
import evolalg
dt = time.perf_counter() - t0
assert os.path.abspath(evolalg.__file__).startswith({SRC + os.sep!r})
print(dt)
"""


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "evolalg", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()}


def setup_seconds():
    """Median time of ``import evolalg`` over fresh interpreters.

    One unmeasured import first, so bytecode compilation is not counted.
    """
    times = []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-s", "-c", SETUP_SNIPPET], env=CHILD_ENV,
                             cwd=ROOT, text=True, capture_output=True, timeout=60,
                             check=True)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace, deadline):
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, text=True, capture_output=True,
                         timeout=max(deadline - time.monotonic(), 1.0))
    if out.returncode != 0:
        raise RuntimeError(f"worker for {workload} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def report_line(res, setup_s):
    """End-to-end figures under the names a user reads them by."""
    kind = res["kind"]
    head = f"workload {res['workload']} seed {res['seed']}: "
    digests = f"inputs {res['inputs_digest']}, outputs {res['outputs_digest']}"
    if "layers" in res:
        return (head + f"traced, {res['spans']} spans, trace.overhead_frac "
                f"{res['layers']['trace.overhead_frac']:.3f}, "
                f"peak_rss_mb {res['peak_rss_mb']:.1f} MB, " + digests)
    return (head +
            f"{kind}_per_s {res['ops_per_s']:.2f} 1/s, "
            f"{kind}_p50_ms {res['op_p50_ms']:.3f} ms, "
            f"{kind}_tail_ms {res['op_tail_ms']:.3f} ms "
            f"(p{res['tail_pct']:.1f} of n={res['pass_ops']} per pass, "
            f"{res['tail_basis']}; {res['timed_ops']} timed ops), "
            f"error_rate {res['failed'] / res['attempted']:.4f} fraction, "
            f"peak_rss_mb {res['peak_rss_mb']:.1f} MB, "
            f"setup_s {setup_s:.4f} s, " + digests)


def metrics_of(res, setup_s, trace):
    if trace:
        return {name: {"value": res["layers"][name],
                       "unit": ("count" if name.endswith((".calls", ".yielded"))
                                else "fraction" if name.endswith("_frac") else "s")}
                for name in LAYER_METRICS}
    return {"ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": res["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evolalg", "__init__.py")):
        sys.stderr.write(f"no evolalg sources under {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)

    env = environment()
    setup_s = None if args.trace else setup_seconds()
    try:
        results = [run_worker(w, args.seed, args.seconds, args.trace, deadline)
                   for w in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    metrics = {}
    for res in results:
        print(report_line(res, setup_s))
        for line in res["failures"]:
            print("failure " + line)
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, m in metrics_of(res, setup_s, args.trace).items():
            metrics[prefix + name] = m
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
