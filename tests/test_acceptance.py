"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines. Criteria 4
and 5 are split into their two clauses. The ordering clauses 4b and 5b check
what the method promises: the closed form log2 sum_j 2^(-K_j) is a valid
upper bound everywhere, it is at or below both competing bounds wherever p*
is a valid pmf (there it equals the capacity), and wherever p* is not a pmf
it equals its own dual certificate max_i D(A_i || q*), so it is a valid
bound by construction.

No ordering is claimed at the infeasible points, because none holds there in
exact arithmetic. Arimoto's bound is the same dual evaluated at the output of
the uniform input, and near capacity 0 it hugs the capacity: at relay
alpha = 0.48, 50-digit arithmetic gives the closed form 0.28441214917 against
Arimoto 0.00346031580 (capacity 0.00345785795). The beta family
(1 - beta) I + beta W is singular at beta ~ 0.752193, where W has the real
eigenvalue -0.329445; at beta = 0.75 (cond(A) ~ 388) the closed form is
18.6037115323 in 50-digit arithmetic, valid but vacuous.
"""

import itertools
import math

import numpy as np
import pytest

from dmcbounds import (
    Condition,
    arimoto_upper_bound,
    blahut_arimoto,
    capacity_upper_bound,
    grid_oracle,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.cli import BOUNDS, main, run_sweep, sweep_record
from dmcbounds.families import SplitMix64, _relay_entries, beta_family, relay_miso
from conftest import divergences_by_loops, entropy2, relay_miso_explicit3, sdd_fixture_params


def check(label, problems):
    ok = not problems
    detail = "" if ok else " (" + "; ".join(problems[:6]) + ")"
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label}{detail}"


def close(name, got, want, tol, problems):
    if not abs(got - want) <= tol:
        problems.append(f"{name}={got!r}, expected {want} +/- {tol}")


def check_bound_ordering(records, build, name, problems):
    """Check the ordering the closed form promises at every defined point of
    a sweep: (a) it is at or above the certified capacity; (b) where p* is
    feasible it is at or below min(arimoto, boyd column); (c) where p* is
    infeasible it equals max_i D(A_i || q*) to 1e-9 relative. Returns the
    parameters of the feasible points and the printed parameters of the
    infeasible points where a competitor is tighter (no ordering is claimed
    there)."""
    feasible, tighter = [], []
    for r in records:
        if r["upper_bound"] is None:
            continue
        at = f"{name}={r['parameter']:.2f}"
        if r["ba_capacity"] is None:
            problems.append(f"{at}: capacity undefined")
        elif not r["upper_bound"] >= r["ba_capacity"] - 1e-6:
            problems.append(
                f"{at}: {r['upper_bound']:.5f} below capacity {r['ba_capacity']:.5f}"
            )
        tightest_other = min(r["arimoto"], r["boyd_chiang_col"])
        if r["feasible"]:
            feasible.append(r["parameter"])
            if not r["upper_bound"] <= tightest_other + 1e-9:
                problems.append(f"{at}: {r['upper_bound']:.5f} > {tightest_other:.5f}")
            continue
        matrix = build(r["parameter"])
        q_star = capacity_upper_bound(matrix).q_star
        certificate = float(divergences_by_loops(matrix, q_star).max())
        if not abs(r["upper_bound"] - certificate) <= 1e-9 * abs(certificate):
            problems.append(f"{at}: {r['upper_bound']!r} != dual {certificate!r}")
        if tightest_other < r["upper_bound"]:
            tighter.append(f"{r['parameter']:.2f}")
    return feasible, tighter


def info_tighter(label, tighter):
    if tighter:
        print(
            f"INFO {label}: p* infeasible and a competitor tighter at "
            f"{len(tighter)} points: {', '.join(tighter)}"
        )


@pytest.fixture(scope="module")
def relay_sweep():
    return run_sweep("relay-miso", 3, 0.02, 0.98, 49, tol=1e-9)


@pytest.fixture(scope="module")
def beta_sweep():
    return run_sweep("beta", None, 0.05, 0.95, 19, tol=1e-9)


def test_criterion_1_reliable_channel(ex1):
    problems = []
    report = capacity_upper_bound(ex1)
    a = report.analysis
    close("upper_bound", report.upper_bound, 1.2715, 1e-3, problems)
    for i, want in enumerate([0.33087, 0.32806, 0.34107]):
        close(f"q_star[{i}]", report.q_star[i], want, 1e-4, problems)
    for i, want in enumerate([0.33067, 0.33480, 0.33453]):
        close(f"p_star[{i}]", report.p_star[i], want, 1e-4, problems)
    close("c_min", a.c_min, 19.0, 1e-9, problems)
    close("sigma_min", a.sigma_min, 0.92424, 1e-4, problems)
    close("sigma_star", report.sigma_star, 0.875, 1e-9, problems)
    close("h_max", a.h_max, 0.33494, 1e-4, problems)
    close("h_max_star", report.h_max_star, 0.3364, 1e-3, problems)
    if report.spectral_condition is not Condition.HOLDS:
        problems.append(f"spectral condition {report.spectral_condition}")
    if report.gershgorin_condition is not Condition.HOLDS:
        problems.append(f"gershgorin condition {report.gershgorin_condition}")
    ba = blahut_arimoto(ex1, 1e-9).capacity
    close("ba vs bound", ba, report.upper_bound, 1e-6, problems)
    check("1: reliable channel reproduction", problems)


def test_criterion_2_permutation_row_channel(ex3):
    problems = []
    report = capacity_upper_bound(ex3)
    a = report.analysis
    ba = blahut_arimoto(ex3, 1e-9).capacity
    closed_form = math.log2(3) - entropy2([0.93, 0.04, 0.03])
    close("capacity", ba, 1.1501, 1e-3, problems)
    close("capacity vs log2(3)-H(row)", ba, closed_form, 1e-6, problems)
    close("bound vs log2(3)-H(row)", report.upper_bound, closed_form, 1e-9, problems)
    close("c_min", a.c_min, 13.286, 1e-2, problems)
    close("sigma_min", a.sigma_min, 0.88916, 1e-4, problems)
    close("sigma_star", report.sigma_star, 0.825, 1e-3, problems)
    close("h_max", a.h_max, 0.43489, 1e-4, problems)
    close("h_max_star", report.h_max_star, 0.43592, 1e-3, problems)
    for i in range(3):
        close(f"q_star[{i}]", report.q_star[i], 1 / 3, 1e-4, problems)
    for i, want in enumerate([0.32959, 0.33337, 0.33704]):
        close(f"p_star[{i}]", report.p_star[i], want, 1e-4, problems)
    check("2: permutation-row channel reproduction", problems)


def test_criterion_3_unreliable_channel(ex4):
    problems = []
    report = capacity_upper_bound(ex4)
    close("upper_bound", report.upper_bound, 0.19282, 1e-3, problems)
    arimoto = arimoto_upper_bound(ex4)
    close("arimoto", arimoto, 0.17083, 1e-4, problems)
    row = sweep_record(None, ex4, 1e-9, 100_000)
    # the printed row-max column, log2 sum_i max_j A_ij, bounds nothing and is not ranked
    close("boyd_row", row["boyd_chiang_row"], 0.848, 1e-3, problems)
    candidates = {BOUNDS[column]: row[column] for column in BOUNDS}
    tightest = min(candidates, key=candidates.get)
    if tightest != "arimoto":
        problems.append(f"tightest={tightest}")
    for name, cond in (
        ("feasibility", report.feasibility_condition),
        ("spectral", report.spectral_condition),
        ("coarse", report.coarse_condition),
        ("gershgorin", report.gershgorin_condition),
    ):
        if cond is not Condition.PRECONDITION_NOT_MET:
            problems.append(f"{name} condition {cond}")
    check("3: unreliable channel comparison", problems)


def test_criterion_4a_relay_sweep_edge_exactness(relay_sweep):
    problems = []
    for r in relay_sweep:
        if r["parameter"] <= 0.1 or r["parameter"] >= 0.9:
            if r["upper_bound"] is None or r["ba_capacity"] is None:
                problems.append(f"alpha={r['parameter']:.2f} undefined")
            elif abs(r["upper_bound"] - r["ba_capacity"]) > 1e-4:
                problems.append(
                    f"alpha={r['parameter']:.2f} gap={r['upper_bound'] - r['ba_capacity']:.2e}"
                )
    check("4a: relay sweep, bound equals capacity near the edges", problems)


def test_criterion_4b_relay_sweep_tightness(relay_sweep):
    problems = []
    feasible, tighter = check_bound_ordering(
        relay_sweep, lambda alpha: relay_miso(3, alpha), "alpha", problems
    )
    info_tighter("4b", tighter)
    if not feasible:
        problems.append("no point with p* feasible")
    for r in relay_sweep:
        if (r["parameter"] <= 0.1 or r["parameter"] >= 0.9) and r["parameter"] not in feasible:
            problems.append(f"alpha={r['parameter']:.2f} (checked by 4a) not feasible")
    check(
        "4b: relay sweep, bound valid everywhere, tighter than both competitors "
        "where p* is feasible, equal to its dual certificate elsewhere",
        problems,
    )


def test_criterion_5a_beta_sweep_exactness_and_validity(beta_sweep):
    problems = []
    for r in beta_sweep:
        if r["upper_bound"] is None or r["ba_capacity"] is None:
            problems.append(f"beta={r['parameter']:.2f} undefined")
            continue
        if r["parameter"] <= 0.6 and abs(r["upper_bound"] - r["ba_capacity"]) > 1e-4:
            problems.append(
                f"beta={r['parameter']:.2f} gap={r['upper_bound'] - r['ba_capacity']:.2e}"
            )
        if r["parameter"] > 0.6 and r["upper_bound"] < r["ba_capacity"] - 1e-6:
            problems.append(f"beta={r['parameter']:.2f} bound below capacity")
    check("5a: beta sweep, exact for beta <= 0.6 and valid beyond", problems)


def test_criterion_5b_beta_sweep_tightness(beta_sweep):
    problems = []
    beyond = [r for r in beta_sweep if r["parameter"] > 0.6]
    feasible, tighter = check_bound_ordering(beyond, beta_family, "beta", problems)
    info_tighter("5b", tighter)
    if not feasible:
        problems.append("no point beyond 0.6 with p* feasible")
    check(
        "5b: beta sweep beyond 0.6, bound valid, tighter than both competitors "
        "where p* is feasible, equal to its dual certificate elsewhere",
        problems,
    )


def test_criterion_6_property_suite():
    problems = []
    params = sdd_fixture_params()
    assert len(params) == 200
    for n, min_ratio, seed in params:
        m = random_sdd_positive(n, min_ratio, seed)
        report = capacity_upper_bound(m)
        a = report.analysis
        inv, c = a.inverse, a.c_min
        tag = f"(n={n},r={min_ratio},s={seed})"

        for i in range(n):
            if not (inv[i, i] > 0 and (inv[i, i] >= np.abs(inv[:, i])).all()):
                problems.append(f"column-max {tag}")
                break

        col_off = np.abs(inv).sum(axis=0) - np.abs(np.diag(inv))
        with np.errstate(divide="ignore"):
            ratios = np.where(col_off > 0, np.diag(inv) / col_off, np.inf)
        if not (ratios >= (c - 1) / (n - 1) - 1e-8).all():
            problems.append(f"inverse-ratio floor {tag}")

        pair_ok = True
        for i in range(n):
            limit = inv[i, i] * c / (c - 1) + 1e-8
            col = np.abs(inv[:, i])
            for k, l in itertools.combinations(range(n), 2):
                if col[k] + col[l] > limit:
                    pair_ok = False
        if not pair_ok:
            problems.append(f"paired-entry bound {tag}")

        if inv.max() > 1.0 / a.sigma_min + 1e-8:
            problems.append(f"largest-entry bound {tag}")

        if np.abs(inv.sum(axis=1) - 1.0).max() > 1e-8:
            problems.append(f"inverse row sums {tag}")

        if c > n - 1:
            if report.sigma_star > a.sigma_min + 1e-8:
                problems.append(f"sigma surrogate {tag}")
            if a.h_max > report.h_max_star + 1e-8:
                problems.append(f"entropy surrogate {tag}")

        ba = blahut_arimoto(m, 1e-9).capacity
        if report.upper_bound < ba - 1e-6:
            problems.append(f"bound below capacity {tag}")

        holds = {
            "feasibility": report.feasibility_condition is Condition.HOLDS,
            "spectral": report.spectral_condition is Condition.HOLDS,
            "gershgorin": report.gershgorin_condition is Condition.HOLDS,
        }
        if holds["gershgorin"] and not holds["spectral"]:
            problems.append(f"chain gershgorin->spectral {tag}")
        if holds["spectral"] and not holds["feasibility"]:
            problems.append(f"chain spectral->feasibility {tag}")
        if holds["feasibility"] and not report.p_star_feasible:
            problems.append(f"chain feasibility->p* {tag}")
        if holds["feasibility"] and abs(report.upper_bound - ba) > 1e-6:
            problems.append(f"exactness under feasibility {tag}")
    check("6: property suite over 200 dominant positive fixtures", problems)


def test_criterion_7_oracle_cross_check(ex1, ex3, ex4, bsc01):
    problems = []
    cases = [
        ("example-1", ex1),
        ("example-3", ex3),
        ("example-4", ex4),
        ("bsc(0.1)", bsc01),
        ("identity-2", validate_channel(np.eye(2))),
        ("identity-3", validate_channel(np.eye(3))),
    ]
    for name, m in cases:
        grid = grid_oracle(m, 300).capacity
        iterative = blahut_arimoto(m, 1e-9).capacity
        if abs(grid - iterative) > 5e-3:
            problems.append(f"{name}: |{grid:.5f} - {iterative:.5f}| > 5e-3")
    check("7: lattice oracle agrees with iterative capacity", problems)


def test_criterion_8_relay_formula_self_check():
    problems = []
    rng = SplitMix64(20260809)
    alphas = [0.0, 1.0, 0.5] + [rng.next_float() for _ in range(997)]
    worst = 0.0
    for alpha in alphas:
        diff = np.abs(_relay_entries(3, alpha) - relay_miso_explicit3(alpha)).max()
        worst = max(worst, diff)
    if worst > 1e-12:
        problems.append(f"max deviation {worst:.3e}")
    check("8: relay generator matches the explicit 4x4 form", problems)


def test_criterion_9_sweep_determinism(tmp_path):
    problems = []
    args = ["sweep", "--family", "beta", "--range", "0.05:0.95", "--steps", "19"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        problems.append("sweep CSV differs between runs")
    check("9: sweep output is byte-identical across runs", problems)
