"""Run one workload in this interpreter and print its raw figures as JSON.

Started by run.py in a fresh interpreter per workload, with
PYTHONHASHSEED pinned, so the parameter memo and the peak RSS belong to
one workload.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

from inputs import Scalars, digest, instantiate, is_isomorphism, make_workload, params_valid
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

OP_CAP_S = 60.0  # per-op wall-clock cap; a capped op counts as failed


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S:.0f} s")


def import_evolalg():
    """Import evolalg from this checkout's src, never from site-packages."""
    sys.path.insert(0, SRC)
    import evolalg
    import evolalg.cli  # every op starts from algebra-file text
    if not os.path.abspath(evolalg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"evolalg came from {evolalg.__file__}, not {SRC}")
    return evolalg


class Runner:
    """Drives one workload: op, answer check and output record per input."""

    def __init__(self, ev, workload):
        self.ev = ev
        self.cli = sys.modules["evolalg.cli"]
        self.wl = workload
        self.params_of_member = {}
        self.attempted = 0
        self.failures = []   # one line per failed op

    def op(self, item):
        # attribute lookups at call time, so installed wrappers are used
        A = self.cli.parse_algebra_file(item.text)
        ev = self.ev
        if self.wl.kind == "classify":
            return ev.classify(A)
        return (ev.is_associative(A), ev.is_fourth_power_associative(A),
                ev.is_power_associative(A), ev.is_jordan(A), ev.is_nil(A),
                ev.nil_profile(A), ev.annihilator_chain(A))

    def check(self, item, out):
        """(ok, record): the answer judged without evolalg, and its digest line."""
        S = Scalars(item.field)
        if self.wl.kind == "classify":
            lbl = out.label
            params = tuple(lbl.params)
            record = (f"{lbl.dim},{lbl.index}|" + ",".join(S.text(p) for p in params)
                      + "|" + ";".join(",".join(S.text(v) for v in r) for r in out.iso)
                      + "|" + ",".join(out.flags))
            fam = item.fam
            if (lbl.dim, lbl.index) != (fam.dim, fam.index) \
                    or not params_valid(S, fam, params):
                return False, record
            first = self.params_of_member.setdefault(item.member, params)
            ok = (item.member < 0 or first == params) and is_isomorphism(
                S, item.rows, instantiate(S, fam, params), out.iso)
            return ok, record
        assoc, pa4, pa, jordan, nil, prof, chain = out
        parts = []
        for rep in (assoc, pa4, pa, jordan, nil):
            w = rep.witness
            parts.append(f"{int(rep.verdict)}:{w.condition if w else '-'}:"
                         + ",".join(map(str, w.indices if w else ())))
        parts.append(f"{prof.is_nil},{prof.right_nilpotency_index},{prof.nil_index_pa}")
        parts.append(",".join(map(str, chain.type_sequence)) + f",{chain.reaches_full}")
        ok = pa.verdict == jordan.verdict and (item.fam is None or pa.verdict)
        return ok, "|".join(parts)

    def run_item(self, item):
        """(latency in seconds or None if the op failed, output record)."""
        self.attempted += 1
        memo = getattr(sys.modules["evolalg.classify"], "_canon_cache", None)
        if self.wl.cold and memo is not None:
            memo.clear()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = time.perf_counter()
        try:
            out = self.op(item)
            dt = time.perf_counter() - t0
            ok, record = self.check(item, out)
        except OpTimeout:
            ok, record = False, "timeout"
        except Exception as exc:  # any library failure is counted, the run goes on
            ok, record = False, f"error {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not ok:
            self.failures.append(f"{record} on {item.text!r}")
            return None, record
        return dt, record


def tail(lat):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    xs = sorted(lat)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timed_passes(runner, seconds, first_pass, records=None):
    """Latencies per pass, one per input in pass order (None where the op
    failed), running whole passes until ``seconds`` of wall time have gone
    by; also the index of the next pass."""
    passes, k, t_run = [], first_pass, time.perf_counter()
    while True:
        lat = []
        for item in runner.wl.timed_pass(k):
            dt, record = runner.run_item(item)
            if records is not None and k == first_pass:
                records.append(record)
            lat.append(dt)
        passes.append(lat)
        k += 1
        if time.perf_counter() - t_run >= seconds:
            return passes, k


def latency_summary(passes, replay):
    """Throughput, median latency, and the tail.

    With ``replay`` every pass runs the same inputs, and the tail is taken
    over each input's median latency across passes: a burst of host
    contention during one pass then does not land in it.  With fresh
    inputs per pass it is the median over passes of each pass's tail, since
    pooled over a run that percentile lands on the few slowest families,
    whose cost swings with their parameters.
    """
    lat = [x for p in passes for x in p if x is not None]
    if replay:
        per_input = [statistics.median(ok) for ok in
                     ([x for x in xs if x is not None] for xs in zip(*passes)) if ok]
        tails = [tail(per_input)] if per_input else []
        basis = f"each input's median over {len(passes)} passes"
    else:
        tails = [tail(ok) for ok in ([x for x in p if x is not None] for p in passes) if ok]
        basis = f"median of {len(tails)} per-pass tails"
    return {"timed_ops": len(lat), "passes": len(passes),
            "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
            "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
            "op_tail_ms": 1e3 * statistics.median(t for t, _ in tails) if tails else 0.0,
            "tail_pct": statistics.median(q for _, q in tails) if tails else 0.0,
            "tail_basis": basis, "pass_ops": max(map(len, passes))}


def run(workload_name, seed, seconds, trace):
    """Warm up, then time whole passes; returns the run's figures."""
    ev = import_evolalg()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        wl = make_workload(workload_name, seed, ev.families_of_dim)
        return {"workload": workload_name, "seed": seed,
                **measure(Runner(ev, wl), seconds, trace)}
    finally:
        signal.signal(signal.SIGALRM, previous)


def measure(runner, seconds, trace):
    wl = runner.wl
    for item in wl.warmup:
        runner.run_item(item)
    records = []
    result = {}
    if trace:
        tracer = spans.Tracer()
        patched = spans.install(tracer)
        runner.op = tracer.op_span(runner.op)
        try:
            passes, next_pass = timed_passes(runner, seconds, 0, records)
        finally:
            del runner.op
            spans.restore(patched)
        traced = latency_summary(passes, wl.replay)["ops_per_s"]
        plain = latency_summary(timed_passes(runner, seconds, next_pass)[0],
                                wl.replay)["ops_per_s"]
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = 1.0 - traced / plain
        result["layers"] = metrics
        result["spans"] = len(tracer.spans)
    else:
        passes, _ = timed_passes(runner, seconds, 0, records)
    inputs_seen = [it.text for it in wl.warmup] + [it.text for it in wl.timed_pass(0)]
    result.update(latency_summary(passes, wl.replay))
    result.update({
        "kind": wl.kind,
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs_digest": digest(inputs_seen),
        "outputs_digest": digest(records),
    })
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
