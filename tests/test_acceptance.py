"""Acceptance gate: one test per release criterion, one verdict line each.

Criteria mix exact small-instance oracles (dispatch enumeration, rainflow
reference), trend reproduction on the bundled fixtures, and property suites.
Criterion 9 re-runs the search at full scale and is opt-in via
``DBIO_EXTENDED=1``; it is expected to require a commercial-grade solver.
"""

import dataclasses
import itertools
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from dbio import milp, rainflow
from dbio.degradation import (DegradationState, advance_state, degradation_factor,
                              degradation_per_cycle, equivalent_full_cycles)
from dbio.planning import InvestmentDecision, build_single_year
from dbio.scenario import (BessParams, CderParams, CycleLifeCurveSpec, PvParams,
                           Scenario, ScenarioConfig, TariffSchedule)
from dbio.sizing import SearchConfig, size_binary, size_fixed_step
from dbio.validation import validate

from conftest import check_dispatch_invariants, solve_plan
from test_rainflow import reference_cycles, sorted_pairs

OPTS = milp.SolveOptions(mip_gap=0.0, time_limit=600.0)


def verdict(n, ok, desc):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


# -- 1. exact oracle equivalence on a four-hour instance ----------------------

T4_LOAD = np.array([0.6, 0.2, 0.3, 0.9])
T4_CF = np.array([0.0, 0.8, 0.9, 0.1])


def t4_scenario():
    cfg = ScenarioConfig(planning_years=1, load_growth=0.0, ls_penalty=1000.0,
                         tie_limit=0.0, big_m=5.0, cyclic_soc=True,
                         solver=milp.SolveOptions(mip_gap=0.0))
    return Scenario(
        cfg=cfg,
        cder=CderParams(capital=1e5, op_cost=50.0, no_load=3.0, p_min=0.2),
        pv=PvParams(capital=8e4, rep_frac=0.4, deg_rate=0.01, eta_init=1.0),
        bess=BessParams(capital=5e4, soc_min=0.1, soc_max=0.9),
        tariff=TariffSchedule(import_price=np.zeros((1, 4))),
        base_load=T4_LOAD.reshape(1, 4), base_pv_cf=T4_CF.reshape(1, 4))


def enumerate_dispatch(sc, inv):
    """Exhaustive dispatch optimum for a fixed investment on the T=4 instance.

    Enumerates every per-hour status combination honoring the charge/discharge
    exclusion (the instance is islanded, so grid statuses are off) and takes
    the cheapest LP optimum among them. Written directly from the model's
    arithmetic, independent of the MILP builder.

    A combination only sets column bounds and the no-load cost, so all of
    them are solved as one block-diagonal LP, one block per combination, and
    each block's cost is read from its part of the primal. If that LP is not
    optimal (some combination is infeasible), each combination is solved on
    its own and the infeasible ones are skipped.
    """
    T = 4
    cfg, cder, bess, pv = sc.cfg, sc.cder, sc.bess, sc.pv
    load = T4_LOAD
    pv_avail = pv.eta_init * T4_CF * inv.s_pv
    eta = bess.efficiency(bess.soh_init)
    cap = inv.s_bess
    e_lo, e_hi = bess.soc_min * cap, bess.soh_init * bess.soc_max * cap
    chg_cap = min(cfg.big_m, cap / bess.t_chg)
    dchg_cap = min(cfg.big_m, cap / bess.t_dchg)
    deg = bess.deg_cost_per_mwh

    # Variable layout per hour: p_cder, p_chg, p_dchg, p_ls, p_curt, e; then e_init.
    n = 6 * T + 1

    def col(t, k):
        return 6 * t + k

    e0 = 6 * T
    c = np.zeros(n)
    lo, hi = np.zeros(n), np.zeros(n)  # every status off
    A_eq, b_eq = [], []
    for t in range(T):
        hi[col(t, 3)] = load[t]
        hi[col(t, 4)] = pv_avail[t]
        lo[col(t, 5)], hi[col(t, 5)] = e_lo, e_hi

        c[col(t, 0)] = sc.alpha * cder.op_cost
        c[col(t, 2)] = sc.alpha * deg
        c[col(t, 3)] = sc.alpha * cfg.ls_penalty

        row = np.zeros(n)
        row[col(t, 0)] = 1.0   # generation
        row[col(t, 2)] = 1.0   # discharge
        row[col(t, 3)] = 1.0   # shed
        row[col(t, 1)] = -1.0  # charge
        row[col(t, 4)] = -1.0  # curtailment
        A_eq.append(row)
        b_eq.append(load[t] - pv_avail[t])

        row = np.zeros(n)
        row[col(t, 5)] = 1.0
        row[col(t - 1, 5) if t else e0] = -1.0
        row[col(t, 1)] = -eta
        row[col(t, 2)] = 1.0
        A_eq.append(row)
        b_eq.append(0.0)
    lo[e0], hi[e0] = e_lo, e_hi
    row = np.zeros(n)
    row[col(T - 1, 5)] = 1.0
    row[e0] = -1.0
    A_eq.append(row)
    b_eq.append(0.0)
    A_eq, b_eq = np.asarray(A_eq), np.asarray(b_eq)

    hour_status = list(itertools.product([0, 1], [(0, 0), (1, 0), (0, 1)]))
    combos = list(itertools.product(hour_status, repeat=T))
    K = len(combos)
    lows, highs = np.tile(lo, (K, 1)), np.tile(hi, (K, 1))
    fixed_cost = np.zeros(K)
    for k, combo in enumerate(combos):
        for t, (uc, (uch, udc)) in enumerate(combo):
            if uc:
                lows[k, col(t, 0)] = cder.p_min
                highs[k, col(t, 0)] = min(cfg.big_m, inv.p_cder_max)
            if uch:
                highs[k, col(t, 1)] = chg_cap
            if udc:
                highs[k, col(t, 2)] = dchg_cap
            fixed_cost[k] += sc.alpha * cder.no_load * uc

    res = linprog(np.tile(c, K), A_eq=sp.kron(sp.identity(K), A_eq, format="csr"),
                  b_eq=np.tile(b_eq, K),
                  bounds=np.column_stack([lows.ravel(), highs.ravel()]), method="highs")
    if res.status == 0:
        best = float(np.min(res.x.reshape(K, n) @ c + fixed_cost))
    else:
        best = math.inf
        for k in range(K):
            res = linprog(c, A_eq=A_eq, b_eq=b_eq,
                          bounds=np.column_stack([lows[k], highs[k]]), method="highs")
            if res.status == 0:
                best = min(best, res.fun + fixed_cost[k])

    pv_deg_cost = pv.rep_frac * pv.capital * inv.s_pv * pv.deg_rate
    return best + pv_deg_cost


def test_criterion_1_enumeration_oracle():
    t0 = time.time()
    sc = t4_scenario()
    grid = [InvestmentDecision(s_pv, s_bess, p_max)
            for s_pv in (0.0, 0.5)
            for s_bess in (0.0, 0.4)
            for p_max in (0.4, 1.0)]
    worst = 0.0
    model_best = oracle_best = math.inf
    for inv in grid:
        state = DegradationState(year=1, capacity=inv.s_bess, soh=sc.bess.soh_init,
                                 eta_bess=sc.bess.efficiency(sc.bess.soh_init),
                                 eta_pv=sc.pv.eta_init)
        problem, index = build_single_year(sc, state, inv)
        result = milp.solve(problem, OPTS)
        assert result.status == "optimal"
        oracle_obj = enumerate_dispatch(sc, inv)
        rel = abs(result.objective - oracle_obj) / max(1.0, abs(oracle_obj))
        worst = max(worst, rel)
        capital = (inv.s_pv * sc.pv.capital + inv.s_bess * sc.bess.capital
                   + inv.p_cder_max * sc.cder.capital)
        model_best = min(model_best, result.objective + capital)
        oracle_best = min(oracle_best, oracle_obj + capital)
    elapsed = time.time() - t0
    grid_rel = abs(model_best - oracle_best) / max(1.0, abs(oracle_best))
    verdict(1, worst <= 1e-6 and grid_rel <= 1e-6 and elapsed < 60.0,
            f"dispatch optimum matches exhaustive enumeration on {len(grid)} "
            f"investment points (worst rel diff {worst:.2e}, {elapsed:.1f}s)")


# -- 2. PV degradation trend ---------------------------------------------------

def test_criterion_2_pv_degradation_trend(islanded_scenario):
    t0 = time.time()
    s_pv, cder_op = [], []
    rates = (0.0, 0.005, 0.01, 0.05)
    for rate in rates:
        sc = dataclasses.replace(
            islanded_scenario,
            pv=dataclasses.replace(islanded_scenario.pv, deg_rate=rate))
        sol, _, _ = solve_plan(sc, mip_gap=1e-4)
        s_pv.append(sol.investment.s_pv)
        cder_op.append(sol.costs["cder_op"])
    elapsed = time.time() - t0
    non_increasing = all(a >= b - 1e-6 for a, b in zip(s_pv, s_pv[1:]))
    op_non_decreasing = all(b >= a - 1e-3 for a, b in zip(cder_op, cder_op[1:]))
    vanishes = s_pv[-1] <= 1e-6
    verdict(2, non_increasing and op_non_decreasing and vanishes
            and elapsed < 600.0,
            f"solar capacity {['%.4f' % v for v in s_pv]} non-increasing and "
            f"generator cost non-decreasing over fade rates {rates} "
            f"({elapsed:.0f}s)")


# -- 3. storage capital reduction trend -----------------------------------------

def test_criterion_3_storage_capital_trend(grid_scenario):
    objectives, sizes = [], []
    base_capital = grid_scenario.bess.capital
    for reduction in (0.0, 0.3, 0.7):
        sc = dataclasses.replace(
            grid_scenario,
            bess=dataclasses.replace(grid_scenario.bess,
                                     capital=base_capital * (1.0 - reduction)))
        sol, _, res = solve_plan(sc, mip_gap=1e-4)
        objectives.append(res.objective)
        sizes.append(sol.investment.s_bess)
    obj_non_increasing = all(a >= b - 1e-3 for a, b in zip(objectives, objectives[1:]))
    size_non_decreasing = all(b >= a - 1e-6 for a, b in zip(sizes, sizes[1:]))
    bought = sizes[-1] > 1e-3
    verdict(3, obj_non_increasing and size_non_decreasing and bought,
            f"objective {['%.0f' % v for v in objectives]} non-increasing and "
            f"storage size {['%.4f' % v for v in sizes]} non-decreasing as "
            "capital falls 0/30/70%")


# -- 4. degradation unit suite ---------------------------------------------------

def test_criterion_4_degradation_units():
    curve = CycleLifeCurveSpec()
    ok = degradation_factor(curve.max_dod, curve) == 1.0

    hist = {0.25: 3.0, 0.80: 1.5}
    base = equivalent_full_cycles(hist, curve, alpha=1.0)
    for alpha in (2.0, 52.142857, 365.0):
        val = equivalent_full_cycles(hist, curve, alpha=alpha)
        ok = ok and abs(val - alpha * base) <= 1e-12 * abs(val)

    rng = np.random.default_rng(23)
    for _ in range(10):
        rated = float(rng.uniform(0.1, 50.0))
        eol = float(rng.uniform(0.05, 0.95))
        cl = float(rng.uniform(100.0, 20000.0))
        ok = ok and degradation_per_cycle(rated, eol, cl) == (1 - eol) * rated / cl

    bess, pv = BessParams(cycle_life_curve=curve), PvParams()
    rated = 5.0
    state = DegradationState(year=1, capacity=rated, soh=1.0,
                             eta_bess=bess.efficiency(bess.soh_init), eta_pv=1.0)
    total = 0.0
    for _ in range(100):
        h = {0.25: float(rng.uniform(0, 10)), 0.60: float(rng.uniform(0, 4))}
        state = advance_state(state, h, bess, pv, rated)
        total += state.deg
    ok = ok and abs((rated - state.capacity) - total) <= 1e-12 * rated

    eff = BessParams(eff_model_points=((1.0, 0.90), (0.8, 0.86))).efficiency
    ok = ok and abs(eff(1.0) - 0.90) <= 1e-12 and abs(eff(0.8) - 0.86) <= 1e-12

    verdict(4, ok, "cycle weighting, per-cycle loss, capacity-chain "
                   "conservation, and efficiency fit identities hold")


# -- 5. rainflow against an independent reference --------------------------------

def test_criterion_5_rainflow_oracle():
    rng = np.random.default_rng(41)
    mismatches = 0
    for i in range(1000):
        n = int(rng.integers(10, 10001))
        walk = np.clip(np.cumsum(rng.normal(0.0, 0.08, n)) + 0.5, 0.0, 1.0)
        got = sorted_pairs(*rainflow.extract_cycles(walk))
        want = sorted_pairs(*reference_cycles(walk))
        if got != want:
            mismatches += 1
    verdict(5, mismatches == 0,
            f"cycle multisets match the independent four-point reference on "
            f"1000 random walks ({mismatches} mismatches, "
            f"{rainflow.BACKEND} kernel)")


# -- 6. feasibility invariants on every solved fixture ----------------------------

def test_criterion_6_dispatch_invariants(islanded_scenario, islanded_plan,
                                         grid_scenario, grid_plan,
                                         sizing_scenario, sizing_plan,
                                         highuse_scenario, highuse_plan):
    checked = 0
    for sc, plan in ((islanded_scenario, islanded_plan),
                     (grid_scenario, grid_plan),
                     (sizing_scenario, sizing_plan),
                     (highuse_scenario, highuse_plan)):
        sol, profiles, _ = plan
        check_dispatch_invariants(sol, sc, profiles)
        checked += 1
    verdict(6, checked == 4,
            "power balance, exclusivity, stored-energy and tie-line bounds "
            f"hold on all {checked} solved fixtures")


# -- 7. sizing search contract -----------------------------------------------------

def test_criterion_7_sizing_contract(sizing_scenario):
    t0 = time.time()
    threshold = 0.5
    tol = 0.01
    start = InvestmentDecision(s_pv=0.0, s_bess=0.05, p_cder_max=0.6)

    binary = size_binary(start, sizing_scenario,
                         SearchConfig(method="binary", tolerance=tol))
    shed_sizes = [r.candidate_size for r in binary.iterations if r.shed]
    ok_sizes = [r.candidate_size for r in binary.iterations if not r.shed]
    bracket_ok = bool(ok_sizes) and max(shed_sizes) < min(ok_sizes)
    in_band = threshold - 1e-9 <= binary.final_size <= threshold + tol
    doubling = sum(1 for r in binary.iterations if r.phase == "doubling")
    first_bisect = next(r for r in binary.iterations if r.phase == "bisection")
    bound = doubling + math.ceil(
        math.log2((first_bisect.ub - first_bisect.lb) / tol)) + 1
    count_ok = len(binary.iterations) <= bound

    fixed = size_fixed_step(start, sizing_scenario,
                            SearchConfig(method="fixed_step", step_frac=0.01,
                                         max_iterations=300))
    fixed_band = threshold - 1e-9 <= fixed.final_size <= 1.01 * threshold
    slower = len(fixed.iterations) >= len(binary.iterations)
    elapsed = time.time() - t0
    verdict(7, binary.converged and bracket_ok and in_band and count_ok
            and fixed.converged and fixed_band and slower and elapsed < 900.0,
            f"binary search hit {binary.final_size:.4f} MWh in "
            f"{len(binary.iterations)} probes (bound {bound}); fixed step "
            f"needed {len(fixed.iterations)} for {fixed.final_size:.4f} MWh "
            f"({elapsed:.0f}s)")


# -- 8. degradation-induced shedding -----------------------------------------------

def test_criterion_8_degradation_induced_shedding(highuse_scenario, highuse_plan):
    sol, _, _ = highuse_plan
    off = validate(sol.investment, highuse_scenario, apply_degradation=False)
    on = validate(sol.investment, highuse_scenario)
    eues = [r.eue_y for r in on.per_year]
    tail = eues[-max(1, len(eues) // 3):]
    tail_monotone = all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    verdict(8, off.total_eue == 0.0 and on.total_eue > 0.0 and tail_monotone
            and not on.truncated,
            f"plan is shed-free without degradation, sheds "
            f"{on.total_eue:.1f} MWh with it, per-year shedding non-decreasing "
            "over the final third")


# -- 9. full-scale replication (extended profile) -----------------------------------

@pytest.mark.skipif(os.environ.get("DBIO_EXTENDED") != "1",
                    reason="full-scale run: set DBIO_EXTENDED=1 (hours of "
                           "runtime; sized for a commercial-grade solver)")
@pytest.mark.xfail(reason="known to need a stronger solver than the bundled "
                          "backend at this scale", raises=AssertionError, strict=False)
def test_criterion_9_full_scale(fixtures_dir, tmp_path):
    from dbio.scenario import load_scenario
    from dbio.sizing import run_search

    doc = json.loads((fixtures_dir / "islanded_base.json").read_text())
    doc["horizon"].update(planning_years=25, rep_days=365)
    doc["solver"].update(mip_gap=0.0, time_limit=3600.0)
    doc["cder"].update(capital=1_150_000.0, op_cost=44.75)
    doc["pv"].update(capital=1_450_000.0, rep_frac=0.41)
    doc["bess"].update(capital=469_000.0, rep_frac=0.79)
    for key in ("load_file", "pv_cf_file"):
        doc["profiles"][key] = str(fixtures_dir / doc["profiles"][key])
    path = tmp_path / "full_scale.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    sol, _, _ = solve_plan(sc, mip_gap=0.0)
    initial = sol.investment.s_bess
    result = run_search(sol.investment, sc,
                        SearchConfig(method="binary", tolerance=0.01))
    initial_ok = abs(initial - 2.725) <= 0.05 * 2.725
    final_ok = abs(result.final_size - 3.812) <= 0.05 * 3.812
    verdict(9, initial_ok and final_ok,
            f"full-scale initial {initial:.3f} MWh and sized "
            f"{result.final_size:.3f} MWh within 5% of the reference values")
