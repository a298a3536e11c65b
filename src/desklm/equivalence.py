"""Cross-checks between the naive and efficient attention kernels.

Two independent implementations of the same scores are only useful if
something compares them routinely.  This module holds that machinery:

  * AllocationMeter, a tiny high-water-mark counter the kernels call
    into when handed a meter,
  * run_equivalence_suite, which sweeps shapes and term combinations
    and compares scores and gradients between kernels,
  * run_allocation_audit, which runs both kernels under the meter and
    checks the efficient kernel's peak against its O(k d) budget.

A case seed's inputs are drawn once, from named streams: the position
table, the hidden rows h, the probe, w_qc and w_kc, and, unshared,
w_qr when some term mix runs p2c and w_kr when some runs c2p.  The
term mixes run on that seed (one for an edge shape, all four for a
sweep draw) each wrap the same draws in fresh tensors.  The score
kernels never read the value side, w_vc and w_o, so it is not drawn.

The suite accepts a fault name so it can demonstrate that it would
catch a mis-oriented position-to-content gather; a passing suite with
the fault injected is itself a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import AttentionParams, scores_efficient, scores_naive
from .errors import ConfigError
from .seeding import rng_for, truncated_normal
from .tensor import Tape, Tensor


class AllocationMeter:
    """Tracks live float64 counts on the position pathway.

    The kernels report allocation and release of every array that holds
    relative-position embedding data: the projected tables K_r and Q_r,
    the naive kernel's per-pair gathered rows, and the efficient
    kernel's (heads, n, 2k) and (heads, 2k, n) reuse products.  Content
    projections and the (n, n) score matrices exist identically under
    both kernels and are excluded, so the meter isolates exactly the
    cost the efficient kernel claims to remove.  Counts are float64 elements, not bytes.
    """

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def alloc(self, count: int) -> None:
        self.current += int(count)
        if self.current > self.peak:
            self.peak = self.current

    def release(self, count: int) -> None:
        self.current -= int(count)
        if self.current < 0:
            raise ConfigError("allocation meter released more than it allocated")


def efficient_peak_budget(n: int, k: int, d: int) -> int:
    """Permitted peak for the efficient kernel: both projected tables
    resident plus one (n, 2k) reuse buffer."""
    return n * 2 * k + 2 * (2 * k * d)


def _draw_weights(seed: int, d: int, names) -> dict[str, np.ndarray]:
    return {name: truncated_normal(rng_for(seed, f"equiv/{name}"), (d, d))
            for name in names}


def _wired(heads: int, weights: dict[str, np.ndarray], share: bool,
           c2p: bool, p2c: bool) -> AttentionParams:
    """The model's wiring over fresh tensors, so no gradient crosses
    cases; as in the model, a shared set has no position projections of
    its own."""
    w = {name: Tensor(a, requires_grad=True) for name, a in weights.items()}
    # The score kernels never read the value side: one zero stand-in.
    value_side = Tensor(np.zeros_like(weights["w_qc"]))
    return AttentionParams.wired(
        heads, w["w_qc"], w["w_kc"], value_side, value_side, c2p=c2p,
        p2c=p2c, share=share, w_qr=w.get("w_qr"), w_kr=w.get("w_kr"))


@dataclass
class EquivalenceCase:
    n: int
    k: int
    d: int
    heads: int
    share: bool
    enable_c2p: bool
    enable_p2c: bool
    max_score_diff: float
    max_grad_diff: float
    passed: bool
    seed: int = 0


@dataclass
class EquivalenceReport:
    cases: list[EquivalenceCase] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> list[EquivalenceCase]:
        return [c for c in self.cases if not c.passed]

    @property
    def worst_score_diff(self) -> float:
        return max((c.max_score_diff for c in self.cases), default=0.0)

    @property
    def worst_grad_diff(self) -> float:
        return max((c.max_grad_diff for c in self.cases), default=0.0)


def _grad_map(params: AttentionParams, table: Tensor) -> dict[str, np.ndarray]:
    tensors = {
        "w_qc": params.w_qc, "w_kc": params.w_kc, "table": table,
    }
    # position projections that exist and are not the content ones
    for name, content in (("w_qr", params.w_qc), ("w_kr", params.w_kc)):
        w = getattr(params, name)
        if w is not None and w is not content:
            tensors[name] = w
    # Tape.backward deposits a fresh array, so nothing else holds it
    out = {}
    for name, t in tensors.items():
        out[name], t.grad = t.grad, None
    return out


_TERM_COMBOS = [(True, True), (True, False), (False, True), (False, False)]

# Hand-picked edges the randomized sweep might miss: single token,
# n < 2k (clipping never saturates), n > 2k (both bins heavily used),
# ragged sizes, single head.
_EDGE_SHAPES = [
    (1, 2, 8, 1),
    (4, 2, 8, 1),
    (12, 4, 8, 2),
    (24, 16, 16, 4),
    (48, 8, 16, 4),
    (33, 5, 12, 3),
]


def _scored(kernel, h, params, table, probe, **kw):
    """One kernel's scores and the gradients of the probe functional."""
    with Tape() as tape:
        scores = kernel(h, params, table, **kw)
        # the probe broadcasts over the heads
        loss = T.sum_all(T.mul(scores, probe))
    tape.backward(loss)
    return scores.data, _grad_map(params, table)


def _diffs(h, params, table, probe, fault) -> tuple[float, float]:
    """Largest score and gradient differences between the two kernels."""
    s_naive, g_naive = _scored(scores_naive, h, params, table, probe)
    s_eff, g_eff = _scored(scores_efficient, h, params, table, probe, fault=fault)
    gdiffs = []
    # one _grad_map order: both kernels run on the same params
    for gn, ge in zip(g_naive.values(), g_eff.values()):
        if gn is None and ge is None:
            continue
        if gn is None or ge is None:
            gdiffs.append(np.inf)
            continue
        gdiffs.append(np.max(np.abs(gn - ge)))

    max_s = float(np.max(np.abs(s_eff - s_naive)))
    return max_s, float(max(gdiffs, default=0.0))


def _run_cases(n, k, d, heads, share, mixes, case_seed, score_tol,
               grad_tol, fault) -> list[EquivalenceCase]:
    """One case per (c2p, p2c) mix, all on the case seed's one draw.
    Draws are per stream name, so one left undrawn shifts no other."""
    names = ["w_qc", "w_kc"]
    if not share and any(p2c for _, p2c in mixes):
        names.append("w_qr")
    if not share and any(c2p for c2p, _ in mixes):
        names.append("w_kr")
    weights = _draw_weights(case_seed, d, names)
    table = truncated_normal(rng_for(case_seed, "equiv/table"), (2 * k, d))
    h = Tensor(rng_for(case_seed, "equiv/h").normal(0.0, 1.0, (n, d)))
    # A fixed random functional of the scores; any nonzero choice
    # exposes gradient disagreements.
    probe = Tensor(rng_for(case_seed, "equiv/probe").normal(0.0, 1.0, (n, n)))

    cases = []
    for enable_c2p, enable_p2c in mixes:
        params = _wired(heads, weights, share, enable_c2p, enable_p2c)
        max_s, max_g = _diffs(h, params, Tensor(table, requires_grad=True),
                              probe, fault)
        cases.append(EquivalenceCase(
            n=n, k=k, d=d, heads=heads, share=share,
            enable_c2p=enable_c2p, enable_p2c=enable_p2c,
            max_score_diff=max_s, max_grad_diff=max_g,
            passed=(max_s <= score_tol and max_g <= grad_tol),
            seed=case_seed,
        ))
    return cases


def run_equivalence_suite(seed: int = 0, score_tol: float = 1e-10,
                          grad_tol: float = 1e-8,
                          fault: str | None = None,
                          n_seeds: int = 0) -> EquivalenceReport:
    """Sweep kernel configurations; compare scores and gradients.

    For each case the combined scores from both kernels are compared
    entrywise, and the gradients of an identical scalar functional of
    the scores with respect to every shared parameter are compared.
    Fixed edge shapes cover the single-token case and lengths on both
    sides of the 2k boundary; n_seeds > 0 adds that many randomized
    draws with n in [1, 64], d in {8, 16}, k in {2, 4, 8}, and every
    draw runs all four term combinations on one set of inputs.  Each
    edge case seed draws its inputs once, and so does each sweep draw;
    the value side, which the score kernels never read, is not drawn.
    Failed cases carry the seed that reproduces them.
    """
    report = EquivalenceReport()

    case_no = 0
    for n, k, d, heads in _EDGE_SHAPES:
        for share in (False, True):
            for mix in _TERM_COMBOS:
                case_no += 1
                report.cases += _run_cases(
                    n, k, d, heads, share, [mix],
                    case_seed=seed * 1000 + case_no,
                    score_tol=score_tol, grad_tol=grad_tol, fault=fault)

    for s in range(n_seeds):
        draw = rng_for(seed, f"equiv/sweep/{s}")
        n = int(draw.integers(1, 65))
        d = int(draw.choice([8, 16]))
        k = int(draw.choice([2, 4, 8]))
        heads = int(draw.choice([1, 2, 4]))
        share = bool(draw.integers(0, 2))
        report.cases += _run_cases(
            n, k, d, heads, share, _TERM_COMBOS,
            case_seed=seed * 1_000_000 + 1000 + s,
            score_tol=score_tol, grad_tol=grad_tol, fault=fault)
    return report


@dataclass
class AuditRow:
    n: int
    k: int
    d: int
    naive_peak: int
    efficient_peak: int
    budget: int
    within_budget: bool


def run_allocation_audit(ns=(32, 64, 128), k: int = 8, d: int = 16,
                         seed: int = 0) -> list[AuditRow]:
    """Meter both kernels across sequence lengths.

    Single-head on purpose: the budget formula describes the one-head
    kernel; with h heads the efficient kernel holds one product of h
    times that size, (h, n, 2k) or (h, 2k, n), instead of one of n * 2k.
    Runs without a tape; the meter audits forward allocations only.
    """
    rows = []
    params = _wired(1, _draw_weights(seed, d, ("w_qc", "w_kc", "w_qr", "w_kr")),
                    share=False, c2p=True, p2c=True)
    table = Tensor(truncated_normal(rng_for(seed, "audit/table"), (2 * k, d)))
    for n in ns:
        h = Tensor(rng_for(seed, f"audit/h{n}").normal(0.0, 1.0, (n, d)))
        with T.no_grad():
            m_naive = AllocationMeter()
            scores_naive(h, params, table, meter=m_naive)
            m_eff = AllocationMeter()
            scores_efficient(h, params, table, meter=m_eff)
        budget = efficient_peak_budget(n, k, d)
        rows.append(AuditRow(
            n=n, k=k, d=d,
            naive_peak=m_naive.peak,
            efficient_peak=m_eff.peak,
            budget=budget,
            within_budget=m_eff.peak <= budget,
        ))
    return rows
