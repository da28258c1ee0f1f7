"""E22 — kernel parity: general LocalMetropolis against the colouring kernel.

The general LocalMetropolis engine reads every factor's pass probability
from a pass table, one gather per arity bucket, and draws MRF proposals
from per-vertex palette CDFs (``_MetropolisFilter`` and
``EnsembleLocalMetropolis`` in :mod:`repro.chains.ensemble`).  This
experiment measures how close that brings the general engine to the
one specialised kernel left,
:class:`~repro.chains.ensemble.EnsembleLocalMetropolisColoring`, and how
one engine compares on an MRF record and on its ``mrf_as_csp`` record.  Rounds per second at
n in {256, 4096} (16x16 and 64x64 tori) x R in {16, 64}, each engine
built outside the timed region (which also builds the model's pass
tables), best of three timings of ten rounds:

* q=16 colouring: the colouring kernel against the general engine;
* Ising (beta = 0.3, field 1): each engine on the MRF against the same
  engine on ``mrf_as_csp`` of it, for LocalMetropolis and for
  LubyGlauber, which runs one heat-bath kernel over the record's
  heat-bath form (an MRF reads one row per neighbour, its CSP twin one
  per edge and then one for the unary factor);
* the dominating set of the torus: the general engine with its pass tables
  against the same engine on a copy of the model built with no pass
  tables, which gathers its factors as every model past
  :data:`repro.compiled.MAX_PASS_TABLE` does.

A second table sits at the cap, where the two filter paths meet:

* a general MRF with one random table at the largest q whose pass table
  fits (q=32: 2^20 entries, 8 MB), with its table against gathering;
* per-edge q=16 MRFs whose edges cycle through random tables: as many as
  fit (16, tabled) against one more (17: past the cap, so the MRF's one
  edge bucket gathers).

Nothing is asserted or gated: rounds per second measure the host.  The
ratios are the result; ROADMAP item 3 deletes the colouring kernel only
if the general engine comes within 2x of it, and a table faster than
gathering at the cap means the cap bounds memory, not speed.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes (4x4 and 8x8 tori, R in
{4, 16}, three rounds).
"""

from __future__ import annotations

import os
import time

import numpy as np

import repro.compiled
from benchmarks.conftest import report
from repro.chains.ensemble import (
    EnsembleLocalMetropolis,
    EnsembleLocalMetropolisColoring,
    EnsembleLubyGlauber,
)
from repro.csp import dominating_set_csp, mrf_as_csp
from repro.graphs import torus_graph
from repro.mrf import MRF, ising_mrf, proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

SIDES = (4, 8) if SMOKE else (16, 64)
REPLICAS = (4, 16) if SMOKE else (16, 64)
ROUNDS = 3 if SMOKE else 10
REPEATS = 3
SEED = 20170625


def _rounds_per_sec(engine_cls, model, replicas: int) -> float:
    """Best of ``REPEATS`` timings of ``ROUNDS`` rounds of a freshly built engine."""
    best = 0.0
    for _ in range(REPEATS):
        engine = engine_cls(model, replicas, seed=SEED)
        start = time.perf_counter()
        engine.advance(ROUNDS)
        best = max(best, ROUNDS / (time.perf_counter() - start))
    return best


def _without_pass_tables(model):
    """A copy of ``model`` whose record derived its pass tables under a zero cap: no tables."""
    cap = repro.compiled.MAX_PASS_TABLE
    repro.compiled.MAX_PASS_TABLE = 0
    try:
        copy = type(model).from_dict(model.to_dict())
        copy.compiled().pass_starts  # memoized on the record, so the copy keeps gathering
    finally:
        repro.compiled.MAX_PASS_TABLE = cap
    return copy


def _random_tables(graph, q: int, tables: int) -> MRF:
    """A q-spin MRF whose edges cycle through ``tables`` random symmetric tables."""
    rng = np.random.default_rng(SEED)
    palette = [rng.uniform(0.2, 2.0, size=(q, q)) for _ in range(tables)]
    palette = [(raw + raw.T) / 2.0 for raw in palette]
    edges = {edge: palette[i % tables] for i, edge in enumerate(graph.edges())}
    return MRF(graph, q, edges, np.ones(q), name=f"q{q}-tables{tables}")


def _cap_cells() -> list[dict]:
    """The general engine on MRFs at the pass-table cap: one table that just fits, and q=16 tables."""
    cap = repro.compiled.MAX_PASS_TABLE
    q = int(round(cap**0.25))  # the largest q whose one edge table fits: q**4 <= cap
    fit = cap // 16**4  # q=16 edge tables that fit together
    cells = []
    for side in SIDES:
        graph = torus_graph(side, side)
        general = _random_tables(graph, q, 1)
        at_cap, past_cap = _random_tables(graph, 16, fit), _random_tables(graph, 16, fit + 1)
        assert general.compiled().pass_table.size == q**4 <= cap
        assert at_cap.compiled().pass_table.size and not past_cap.compiled().pass_table.size
        gathering = _without_pass_tables(general)
        for replicas in REPLICAS:
            cells.append({
                "n": side * side,
                "R": replicas,
                "q": q,
                "fit": fit,
                "general_tables": _rounds_per_sec(EnsembleLocalMetropolis, general, replicas),
                "general_gather": _rounds_per_sec(EnsembleLocalMetropolis, gathering, replicas),
                "at_cap": _rounds_per_sec(EnsembleLocalMetropolis, at_cap, replicas),
                "past_cap": _rounds_per_sec(EnsembleLocalMetropolis, past_cap, replicas),
            })
    return cells


def _cells() -> list[dict]:
    cells = []
    for side in SIDES:
        graph = torus_graph(side, side)
        coloring = proper_coloring_mrf(graph, 16)
        ising = ising_mrf(graph, 0.3, 1.0)
        ising_csp = mrf_as_csp(ising)
        domset = dominating_set_csp(graph)
        domset_gather = _without_pass_tables(domset)
        for replicas in REPLICAS:
            cells.append({
                "n": side * side,
                "R": replicas,
                "coloring_kernel": _rounds_per_sec(
                    EnsembleLocalMetropolisColoring, coloring, replicas
                ),
                "coloring_general": _rounds_per_sec(EnsembleLocalMetropolis, coloring, replicas),
                "ising_mrf": _rounds_per_sec(EnsembleLocalMetropolis, ising, replicas),
                "ising_csp": _rounds_per_sec(EnsembleLocalMetropolis, ising_csp, replicas),
                "ising_lg_mrf": _rounds_per_sec(EnsembleLubyGlauber, ising, replicas),
                "ising_lg_csp": _rounds_per_sec(EnsembleLubyGlauber, ising_csp, replicas),
                "domset_csp": _rounds_per_sec(EnsembleLocalMetropolis, domset, replicas),
                "domset_gather": _rounds_per_sec(EnsembleLocalMetropolis, domset_gather, replicas),
            })
    return cells


def test_kernel_parity():
    cells = _cells()
    lines = [
        f"torus models, rounds/s (best of {REPEATS} x {ROUNDS} rounds); ratio = first / second",
        f"{'n':>6} {'R':>4} | {'colour kernel':>13} {'general MRF':>11} {'ratio':>6} | "
        f"{'Ising MRF':>9} {'Ising CSP':>9} {'ratio':>6} | "
        f"{'domset tables':>13} {'gather':>7} {'ratio':>6} | "
        f"{'Ising LG MRF':>12} {'LG CSP':>7} {'ratio':>6}",
    ]
    for cell in cells:
        lines.append(
            f"{cell['n']:>6} {cell['R']:>4} | {cell['coloring_kernel']:>13.1f} "
            f"{cell['coloring_general']:>11.1f} "
            f"{cell['coloring_kernel'] / cell['coloring_general']:>5.1f}x | "
            f"{cell['ising_mrf']:>9.1f} {cell['ising_csp']:>9.1f} "
            f"{cell['ising_mrf'] / cell['ising_csp']:>5.1f}x | {cell['domset_csp']:>13.1f} "
            f"{cell['domset_gather']:>7.1f} {cell['domset_csp'] / cell['domset_gather']:>5.1f}x | "
            f"{cell['ising_lg_mrf']:>12.1f} {cell['ising_lg_csp']:>7.1f} "
            f"{cell['ising_lg_mrf'] / cell['ising_lg_csp']:>5.1f}x"
        )
    largest = cells[-1]
    ms = {name: 1e3 * ROUNDS / largest[name] for name in largest if name not in ("n", "R")}
    worst = max(cell["coloring_kernel"] / cell["coloring_general"] for cell in cells)
    lines += [
        "",
        f"n={largest['n']}, R={largest['R']}, {ROUNDS} rounds: general MRF colouring "
        f"{ms['coloring_general']:.1f} ms, colouring kernel {ms['coloring_kernel']:.1f} ms; "
        f"dominating set {ms['domset_csp']:.1f} ms ({ms['domset_gather']:.1f} ms gathering); "
        f"Ising LubyGlauber {ms['ising_lg_mrf']:.1f} ms (MRF), {ms['ising_lg_csp']:.1f} ms (CSP)",
        f"general engine within 2x of the colouring kernel in every cell: "
        f"{'yes' if worst <= 2.0 else 'no'} (worst {worst:.1f}x)",
    ]
    cap_cells = _cap_cells()
    q, fit = cap_cells[0]["q"], cap_cells[0]["fit"]
    lines += [
        "",
        f"at the cap (MAX_PASS_TABLE = {repro.compiled.MAX_PASS_TABLE} entries), general engine "
        f"on MRFs, rounds/s; ratio = first / second",
        f"{'n':>6} {'R':>4} | {f'q={q} tables':>12} {'gather':>7} {'ratio':>6} | "
        f"{f'q=16 {fit} tables':>15} {fit + 1:>9} {'ratio':>6}",
    ]
    for cell in cap_cells:
        lines.append(
            f"{cell['n']:>6} {cell['R']:>4} | {cell['general_tables']:>12.1f} "
            f"{cell['general_gather']:>7.1f} "
            f"{cell['general_tables'] / cell['general_gather']:>5.1f}x | "
            f"{cell['at_cap']:>15.1f} {cell['past_cap']:>9.1f} "
            f"{cell['at_cap'] / cell['past_cap']:>5.1f}x"
        )
    report("E22", "kernel parity (pass tables vs colouring kernel; MRF vs CSP records)", lines)
    for cell in cells + cap_cells:
        assert all(value > 0 for value in cell.values())
