"""What the equivalence harness draws, and that drawing each case seed's
inputs once changes no case result."""

from collections import Counter

import numpy as np
import pytest

from desklm import equivalence
from desklm import tensor as T
from desklm.attention import AttentionParams, scores_efficient, scores_naive
from desklm.seeding import rng_for, truncated_normal
from desklm.tensor import Tape, Tensor

SEED, N_SEEDS = 3, 4


@pytest.fixture
def drawn(monkeypatch):
    """Every (root seed, stream name) the harness asks rng_for for."""
    names = []

    def spy(root_seed, name):
        names.append((root_seed, name))
        return rng_for(root_seed, name)

    monkeypatch.setattr(equivalence, "rng_for", spy)
    return names


def _inputs(share, mixes):
    names = {"equiv/table", "equiv/h", "equiv/probe", "equiv/w_qc", "equiv/w_kc"}
    if not share and any(p2c for _, p2c in mixes):
        names.add("equiv/w_qr")
    if not share and any(c2p for c2p, _ in mixes):
        names.add("equiv/w_kr")
    return names


def test_each_case_seed_draws_what_its_kernels_read_once(drawn):
    report = equivalence.run_equivalence_suite(seed=SEED, n_seeds=N_SEEDS)
    assert len(report.cases) == 8 * len(equivalence._EDGE_SHAPES) + 4 * N_SEEDS
    counts = Counter(drawn)
    assert max(counts.values()) == 1
    assert not any(name in ("equiv/w_vc", "equiv/w_o") for _, name in drawn)

    by_seed = {}
    for c in report.cases:
        by_seed.setdefault(c.seed, []).append(c)
    for case_seed, cases in by_seed.items():
        mixes = [(c.enable_c2p, c.enable_p2c) for c in cases]
        got = {name for s, name in drawn if s == case_seed}
        assert got == _inputs(cases[0].share, mixes), (case_seed, mixes)
    # a sweep draw's four mixes share one case seed, hence one set of draws
    sweep = [s for s, cases in by_seed.items() if len(cases) == 4]
    assert len(sweep) == N_SEEDS
    rest = {name for s, name in drawn if s not in by_seed}
    assert rest == {f"equiv/sweep/{s}" for s in range(N_SEEDS)}


def test_allocation_audit_draws_no_value_side(drawn):
    equivalence.run_allocation_audit(ns=(32, 64), seed=SEED)
    assert sorted(name for _, name in drawn) == sorted([
        "equiv/w_qc", "equiv/w_kc", "equiv/w_qr", "equiv/w_kr",
        "audit/table", "audit/h32", "audit/h64"])


# A rebuild with every case drawing its own inputs, value side included:
# how the harness drew before each case seed's inputs were drawn once.

def _make_params(d, heads, seed, share, enable_c2p, enable_p2c):
    def w(name):
        return Tensor(truncated_normal(rng_for(seed, f"equiv/{name}"), (d, d)),
                      requires_grad=True)

    w_qr, w_kr = (None, None) if share else (w("w_qr"), w("w_kr"))
    return AttentionParams.wired(
        heads, w("w_qc"), w("w_kc"), w("w_vc"), w("w_o"), c2p=enable_c2p,
        p2c=enable_p2c, share=share, w_qr=w_qr, w_kr=w_kr)


def _per_case_diffs(c):
    params = _make_params(c.d, c.heads, c.seed, c.share, c.enable_c2p, c.enable_p2c)
    table = Tensor(truncated_normal(rng_for(c.seed, "equiv/table"), (2 * c.k, c.d)),
                   requires_grad=True)
    h = Tensor(rng_for(c.seed, "equiv/h").normal(0.0, 1.0, (c.n, c.d)))
    probe = rng_for(c.seed, "equiv/probe").normal(0.0, 1.0, (c.n, c.n))
    scores, grads = [], []
    for kernel in (scores_naive, scores_efficient):
        with Tape() as tape:
            s = kernel(h, params, table)
            loss = T.sum_all(T.mul(s, Tensor(probe)))
        tape.backward(loss)
        ws = {"w_qc": params.w_qc, "w_kc": params.w_kc, "table": table}
        for name, content in (("w_qr", params.w_qc), ("w_kr", params.w_kc)):
            w = getattr(params, name)
            if w is not None and w is not content:
                ws[name] = w
        # the table gets no gradient when both position terms are off
        grads.append({name: t.grad.copy() for name, t in ws.items()
                      if t.grad is not None})
        for t in ws.values():
            t.grad = None
        scores.append(s.data)
    max_s = float(np.max(np.abs(scores[1] - scores[0])))
    assert grads[0].keys() == grads[1].keys()
    max_g = float(max(np.max(np.abs(grads[0][name] - grads[1][name]))
                      for name in grads[0]))
    return max_s, max_g


def test_one_draw_per_case_seed_moves_no_bit():
    report = equivalence.run_equivalence_suite(seed=SEED, n_seeds=N_SEEDS)
    for c in report.cases:
        assert (c.max_score_diff, c.max_grad_diff) == _per_case_diffs(c), c

    ns, k, d = (32, 64), 8, 16
    params = _make_params(d, 1, SEED, False, True, True)
    table = Tensor(truncated_normal(rng_for(SEED, "audit/table"), (2 * k, d)))
    want = []
    for n in ns:
        h = Tensor(rng_for(SEED, f"audit/h{n}").normal(0.0, 1.0, (n, d)))
        meters = equivalence.AllocationMeter(), equivalence.AllocationMeter()
        with T.no_grad():
            scores_naive(h, params, table, meter=meters[0])
            scores_efficient(h, params, table, meter=meters[1])
        want.append((n, meters[0].peak, meters[1].peak))
    rows = equivalence.run_allocation_audit(ns=ns, k=k, d=d, seed=SEED)
    assert [(r.n, r.naive_peak, r.efficient_peak) for r in rows] == want
