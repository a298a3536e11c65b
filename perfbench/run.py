"""desklm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload mlm-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (or anywhere: paths resolve from this
file).  The package is imported from ``src/`` of the same checkout.

``--trace 0`` makes one untraced pass and prints the end-to-end metrics.
``--trace 1`` makes an untraced pass and then a traced pass over the same
inputs, checks that both produced the same outputs, and prints the
per-layer metrics of the traced pass plus the tracing overhead.

Human-readable lines come first; the last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The full
report (machine, load average, plan, checks, every metric with its
sample count) goes to ``.perfbench_out/`` in the checkout, with the spans
of a traced pass.  The exit code is 0 only when every check passed.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

# Seed for routine runs, and one kept back for confirming a claimed gain
# after the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Work per run is fixed from --seconds and these rates (ops per second
# on a 2-core x86-64 box with OpenBLAS, at the commit that introduced the
# benchmark), so every commit does the same work for the same seed and
# the quality checks compare like with like.  MIN_OPS keeps at least 20
# timed ops, so the tail percentile has at least 10 samples beyond it.
# A traced run reports no percentiles and makes two passes, each over
# half the work, so it costs about as much as an untraced one.
NOMINAL_OPS_PER_S = {"mlm-train": 3.0, "sift-joint": 0.9,
                     "eval-long": 9.0, "kernel-audit": 3.0}
MIN_OPS = {"mlm-train": 23, "sift-joint": 31, "eval-long": 22,
           "kernel-audit": 23}
TRACED_MIN_OPS = {"mlm-train": 6, "sift-joint": 6, "eval-long": 6,
                  "kernel-audit": 3}
# Timed set-ups per untraced run: one builds the pass's inputs, the rest
# are spread over the timed ops, so that setup_s samples the host over
# the whole run as the op times do, not over one burst at the start.
SETUP_REPEATS = 11
OWN_MODULES = ("desklm", "workloads", "tracing")

END_TO_END_NAMES = {
    # generic name -> name per workload kind, as documented in NOTES.md
    "throughput": {"train": "train_tokens_per_s", "eval": "eval_tokens_per_s",
                   "audit": "equiv_cases_per_s"},
    "op_ms_p50": {"train": "step_ms_p50", "eval": "eval_row_ms_p50",
                  "audit": "body_ms_p50"},
    "op_ms_tail": {"train": "step_ms_tail", "eval": "eval_row_ms_tail",
                   "audit": "body_ms_tail"},
}
KIND = {"mlm-train": "train", "sift-joint": "train", "eval-long": "eval",
        "kernel-audit": "audit"}
TAPES = ("trainer.backward", "sift.inner_backward", "equivalence.backward")


def plan_ops(workload: str, seconds: int, trace: bool, warmup: int) -> int:
    """Steps, eval rows or equivalence bodies per pass."""
    if trace:
        n = max(TRACED_MIN_OPS[workload],
                round(seconds / 2 * NOMINAL_OPS_PER_S[workload]))
    else:
        n = max(MIN_OPS[workload], round(seconds * NOMINAL_OPS_PER_S[workload]))
    if KIND[workload] == "train" and (n - 1 - warmup) % 2:
        # An even number of timed steps: sift-joint alternates causal and
        # masked steps, and its median must not flip between the two.
        n += 1
    return n


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples beyond it
    (nearest rank), and its value."""
    n = len(values)
    if n <= 10:
        raise ValueError(f"{n} samples leave no percentile with 10 beyond it")
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p n / 100)
    return p, sorted(values)[rank - 1]


def import_package():
    """Import desklm from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "desklm", "__init__.py")):
        raise SystemExit(f"error: no desklm package under {SRC}")
    # Compile the package from source at every import, reading and
    # writing no bytecode (the prefix names no directory), so import time
    # does not depend on a __pycache__ left in the checkout.  numpy is
    # loaded first, from its own bytecode, and stays loaded.
    import numpy  # noqa: F401
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(TMP_DIR, "no-bytecode")
    sys.path.insert(0, SRC)
    import desklm.cli  # noqa: F401  (pulls in every package module)
    import desklm
    if os.path.dirname(os.path.abspath(desklm.__file__)) != \
            os.path.join(SRC, "desklm"):
        raise SystemExit(f"error: desklm imported from {desklm.__file__}")


def machine() -> dict:
    import ctypes
    import glob

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop: on a shared host the clock
    speed drifts, and this shows by how much next to the numbers."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return 1e3 * (perf_counter() - t0)


def timing_metrics(res, warmup: int) -> dict:
    """End-to-end numbers of one pass, under the generic names."""
    op_s = res.op_s[warmup:]
    items = res.items[warmup:len(res.op_s)]
    p, tail_s = tail(op_s)
    return {
        "throughput": (sum(items) / sum(op_s), "1/s", len(op_s)),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms", len(op_s)),
        "op_ms_tail": (1e3 * tail_s, "ms", len(op_s), p),
    }


def layer_metrics(res, kind: str, warmup: int,
                  cache_hits: tuple[int, int]) -> dict:
    """Per-layer numbers of the traced pass, per timed step, row or case."""
    from tracing import aggregate

    ops = set(range(warmup + 1, len(res.op_s) + 1))
    # An equivalence body is many cases; its numbers are given per case.
    n = sum(res.items[warmup:]) if kind == "audit" else len(ops)
    agg = aggregate(res.spans, ops)

    def total(*names):
        return sum(agg[x]["total_s"] for x in names if x in agg)

    def self_ms(name):
        return 1e3 * agg[name]["self_s"] / n if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] / n if name in agg else 0.0

    nodes = sum(agg[x]["count"] for x in TAPES if x in agg)
    backward_s = total(*TAPES)
    forward_s = total("sift.loss") if kind == "train" else 0.0
    train_bwd_s = total("trainer.backward")
    optimizer_s = total("trainer.clip", "trainer.adamw")
    step_s = sum(res.op_s[warmup:]) if kind == "train" else 0.0
    batches = [(real, cells) for op, real, cells in res.producer if op in ops]
    hits, misses = cache_hits
    cases = res.attempted if kind == "audit" else 0
    m = {
        "tensor.tape_nodes": (nodes / n, "count"),
        "tensor.backward_ms": (1e3 * backward_s / n, "ms"),
        "tensor.backward_us_per_node":
            (1e6 * backward_s / nodes if nodes else 0.0, "us"),
        "attention.attend_ms": (self_ms("attention.attend"), "ms"),
        "attention.attend_calls": (calls("attention.attend"), "count"),
        "model.encode_ms": (self_ms("model.encode"), "ms"),
        "model.decode_ms": (self_ms("model.decode"), "ms"),
        "model.row_ms": (self_ms("model.row"), "ms"),
        "model.encode_calls": (calls("model.encode"), "count"),
        "data.next_batch_ms": (1e3 * total("data.next_batch") / n, "ms"),
        "data.pad_fraction":
            (1.0 - sum(r for r, _ in batches) / sum(c for _, c in batches)
             if batches else 0.0, "fraction"),
        "relpos.delta_cache_hit_ratio":
            (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sift.loss_ms": (self_ms("sift.loss"), "ms"),
        "sift.inner_backward_calls": (calls("sift.inner_backward"), "count"),
        "sift.inner_backward_ms":
            (1e3 * total("sift.inner_backward") / n, "ms"),
        "sift.symmetric_kl_ms": (1e3 * total("sift.symmetric_kl") / n, "ms"),
        "trainer.forward_ms": (1e3 * forward_s / n, "ms"),
        "trainer.backward_ms": (1e3 * train_bwd_s / n, "ms"),
        "trainer.optimizer_ms": (1e3 * optimizer_s / n, "ms"),
        "trainer.other_ms":
            (1e3 * (step_s - forward_s - train_bwd_s - optimizer_s) / n
             if step_s else 0.0, "ms"),
        "equivalence.naive_ms": (1e3 * total("equivalence.naive") / n, "ms"),
        "equivalence.efficient_ms":
            (1e3 * total("equivalence.efficient") / n, "ms"),
        "equivalence.backward_ms":
            (1e3 * total("equivalence.backward") / n, "ms"),
        "equivalence.audit_ms": (1e3 * total("equivalence.audit") / n, "ms"),
        "equivalence.cases": (cases, "count"),
        "equivalence.cases_failed":
            (res.failed if cases else 0, "count"),
    }
    return m


def timed_setup(workload: str, seed: int, n_ops: int, tmp: str,
                keep: bool):
    """Import the package afresh from source, then set the workload up.

    Returns the seconds taken and the workload's inputs.  numpy and the
    standard library stay loaded, so set-up work moved into import time
    still shows.  With ``keep=False`` the modules loaded before are put
    back afterwards, so a pass that is running keeps its own.
    """
    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if name.split(".")[0] in OWN_MODULES}
    try:
        t0 = perf_counter()
        import desklm.cli  # noqa: F401
        import workloads
        ctx = workloads.WORKLOADS[workload].setup(seed, n_ops, tmp)
        return perf_counter() - t0, ctx
    finally:
        if not keep:
            for name in list(sys.modules):
                if name.split(".")[0] in OWN_MODULES:
                    del sys.modules[name]
            sys.modules.update(saved)


def setup_schedule(n_ops: int, warmup: int) -> set[int]:
    """Ops before which a further set-up runs, spread over the timed ones."""
    first, k = warmup + 1, SETUP_REPEATS - 1
    return {first + round(j * (n_ops - first) / (k - 1)) for j in range(k)}


def run_workload(workload: str, seed: int, n_ops: int, trace: bool,
                 tmp: str) -> dict:
    """Setup (timed, repeated), one or two passes, checks.  No printing.

    Only an untraced run repeats the set-up during its pass; a traced
    run reports no setup_s and keeps both of its passes alike.
    """
    seconds, ctx = timed_setup(workload, seed, n_ops, tmp, keep=True)
    repeats = [seconds]
    probes: list[float] = []
    import desklm.relpos as relpos
    from tracing import Tracer
    from workloads import WARMUP, WORKLOADS

    wl = WORKLOADS[workload]
    at = set() if trace else setup_schedule(n_ops, WARMUP)

    def between(op):
        if op in at:
            repeats.append(timed_setup(workload, seed, n_ops, tmp,
                                       keep=False)[0])
            probes.append(host_probe_ms())

    def one_pass(ctx, tracer):
        relpos.build_delta_matrix.cache_clear()
        res = wl.run(ctx, tracer, between)
        info = relpos.build_delta_matrix.cache_info()
        return res, (info.hits, info.misses), wl.check(ctx, res)

    plain, _, checks = one_pass(ctx, None)
    out = {"setup_repeats_s": repeats, "host_probe_ms": probes,
           "plain": plain, "checks": checks}
    if trace:
        traced, hits, traced_checks = one_pass(wl.setup(seed, n_ops, tmp),
                                               Tracer())
        out["traced"] = traced
        out["cache_hits"] = hits
        out["checks"] = {**checks,
                         **{f"traced_{k}": v for k, v in traced_checks.items()},
                         "tracing_changes_no_output":
                             traced.outputs == plain.outputs}
    out["warmup"] = WARMUP
    return out


def main_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from_here = os.path.abspath(__file__)
    worst = 0
    for workload in NOMINAL_OPS_PER_S:
        print(f"== {workload}", flush=True)
        code = subprocess.run(
            [sys.executable, from_here, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*NOMINAL_OPS_PER_S, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}); keep "
                             f"{HELD_OUT_SEED} for confirming a claimed gain")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return main_all(args)

    import_package()
    import_s = perf_counter() - _T0
    load_start, probe_start = loadavg(), host_probe_ms()
    from workloads import WARMUP
    n_ops = plan_ops(args.workload, args.seconds, bool(args.trace), WARMUP)
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        out = run_workload(args.workload, args.seed, n_ops, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s = statistics.median(out["setup_repeats_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warmup = out["warmup"]
    plain = out["plain"]
    checks = out["checks"]
    passes = [plain] + ([out["traced"]] if args.trace else [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    kind = KIND[args.workload]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "loadavg_start": load_start, "host_probe_ms_start": probe_start,
        "plan": {"ops": n_ops, "warmup_ops": warmup,
                 "timed_ops": len(plain.op_s) - warmup},
        "op_ms": [1e3 * t for t in plain.op_s],
        "setup": {"process_start_to_imported_s": import_s,
                  "repeats_s": out["setup_repeats_s"]},
        "host_probe_ms_during": out["host_probe_ms"],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": [p.error for p in passes if p.error],
        "checks": checks,
    }
    metrics, named = {}, {}
    if kind == "train" and "loss_end" in plain.outputs:
        named["loss_end"] = {"value": plain.outputs["loss_end"],
                             "unit": "nats", "n": 1}
    if kind == "eval" and plain.outputs.get("ppl"):
        named["eval_ppl"] = {"value": plain.outputs["ppl"], "unit": "ppl",
                             "n": len(plain.outputs["nll"])}
    if not args.trace:
        try:
            timing = timing_metrics(plain, warmup)
        except ValueError as e:
            timing = {}
            report["errors"].append(f"no timings: {e}")
        for key, (value, unit, n, *pct) in timing.items():
            metrics[key] = {"value": value, "unit": unit}
            named[END_TO_END_NAMES[key][kind]] = {
                "value": value, "unit": unit, "n": n,
                **({"percentile": pct[0]} if pct else {})}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        named["setup_s"] = {"value": setup_s, "unit": "s",
                            "n": len(out["setup_repeats_s"])}
        named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
        named["error_rate"] = {"value": report["error_rate"], "unit": "ratio",
                               "n": attempted}
    else:
        traced = out["traced"]
        layer = layer_metrics(traced, kind, warmup, out["cache_hits"])
        n_timed = (sum(traced.items[warmup:]) if kind == "audit"
                   else len(traced.op_s) - warmup)
        base = sum(plain.op_s[warmup:])
        overhead = (100.0 * (sum(traced.op_s[warmup:]) / base - 1.0)
                    if base else 0.0)
        layer["trace.overhead_pct"] = (overhead, "%")
        for key, (value, unit) in layer.items():
            metrics[key] = {"value": value, "unit": unit}
            named[key] = {"value": value, "unit": unit, "n": n_timed}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in traced.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report["metrics"] = named
    report["loadavg_end"] = loadavg()
    report["host_probe_ms_end"] = host_probe_ms()
    correct = (all(checks.values()) and not report["errors"]
               and failed == 0)

    os.makedirs(OUT_DIR, exist_ok=True)
    report_path = os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
        fh.write("\n")

    for name, m in named.items():
        pct = f" p{m['percentile']}" if "percentile" in m else ""
        print(f"{args.workload:12s} {name:32s} {m['value']:>14.6g} "
              f"{m['unit']:8s} n={m['n']}{pct}")
    for name, ok in checks.items():
        print(f"{args.workload:12s} check {name}: {'ok' if ok else 'FAILED'}")
    for err in report["errors"]:
        print(f"{args.workload:12s} error: {err}")
    print(f"{args.workload:12s} machine {json.dumps(report['machine'])} "
          f"loadavg {load_start} -> {report['loadavg_end']} host_probe_ms "
          f"{probe_start:.1f} -> {report['host_probe_ms_end']:.1f}")
    print(f"{args.workload:12s} report {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
