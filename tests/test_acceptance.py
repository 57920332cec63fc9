"""Acceptance suite: one test per shipped guarantee, with runtime budgets.

Each criterion prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) and then asserts.  The convergence studies are run
once in module-scoped fixtures and shared by the criteria that consume
their reports.
"""

import math
import time

import numpy as np
import pytest

from conftest import decode, gronwall_hypothesis_holds, random_state
from expsplit import config as cfgmod
from expsplit.cli import main as cli_main
from expsplit.gronwall import gronwall_bound
from expsplit.harness import convergence_study
from expsplit.lagrange import build_lagrange, default_nodes, eval_basis, \
    moment_residual
from expsplit.phi import phi
from expsplit.propagators import (HeatTorusProblem, OUProblem, WaveProblem,
                                  measure_smoothing)

SEED = 20260825


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    return _announce


def _run_study(preset):
    cfg = cfgmod.resolve_config(preset)
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = cfgmod.build_initial(cfg, problem)
    plan = cfgmod.build_plan(cfg)
    t0 = time.perf_counter()
    report = convergence_study(plan, problem, g, u0)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_s1():
    return _run_study("heat-cubic-s1")


@pytest.fixture(scope="module")
def study_s2():
    return _run_study("heat-cubic-s2")


@pytest.fixture(scope="module")
def study_frac():
    return _run_study("heat-frac-s2")


@pytest.fixture(scope="module")
def study_wave():
    return _run_study("wave-cubic-s2")


@pytest.fixture(scope="module")
def study_ou():
    return _run_study("ou-cubic-s1")


def test_criterion_01_lagrange_identities(announce):
    """Partition of unity < 1e-12, moments < 1e-10 h^k, cardinality; < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for s in range(1, 7):
        lag = build_lagrange(default_nodes(s))
        taus = rng.uniform(0.0, 1.0, 100)
        for h in (1.0, 0.05):
            for tau in taus * h:
                total = sum(eval_basis(lag, j, tau, h) for j in range(1, s + 1))
                if abs(total - 1.0) > 1e-12:
                    failures.append(f"s={s} partition residual {total - 1.0:.2e}")
                for k in range(1, s):
                    res = moment_residual(lag, tau, h, k)
                    if abs(res) > 1e-10 * h ** k:
                        failures.append(f"s={s} k={k} moment residual {res:.2e}")
        for i, c in enumerate(lag.node_set.nodes):
            for j in range(1, s + 1):
                want = 1.0 if j == i + 1 else 0.0
                if abs(eval_basis(lag, j, c, 1.0) - want) > 1e-12:
                    failures.append(f"s={s} cardinality at node {i}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(1, "Lagrange basis identities", ok)
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1 s budget"


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_THETA = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def _phi_quadrature(k, z):
    vals = np.exp((1.0 - _GL_THETA) * z) * _GL_THETA ** (k - 1) \
        / math.factorial(k - 1)
    return complex(np.sum(_GL_W * vals))


def test_criterion_02_phi_oracle(announce):
    """500 random (k, z) vs 64-node quadrature to 1e-10 rel; limits; < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for _ in range(500):
        k = int(rng.integers(1, 6))
        if rng.uniform() < 0.5:
            z = complex(rng.uniform(-50.0, 50.0))
        else:
            mag = rng.uniform(0.0, 50.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = mag * complex(math.cos(ang), math.sin(ang))
        ref = _phi_quadrature(k, z)
        if abs(phi(k, z) - ref) > 1e-10 * max(abs(ref), 1e-300):
            failures.append(f"k={k} z={z:.3g}")
    # near-zero branch: the k! limit is attained at z = 0, and for
    # 0 < |z| <= 1e-6 the value still matches the quadrature oracle to
    # 1e-13 (the O(z) deviation from 1/k! is the genuine Taylor term)
    for k in range(6):
        if abs(phi(k, 0.0) - 1.0 / math.factorial(k)) > 1e-14:
            failures.append(f"k={k} limit at z=0")
    for k in range(1, 6):
        for z in (1e-6, -1e-6, 1e-8, 1e-6j, (1e-7 + 1e-7j)):
            ref = _phi_quadrature(k, z)
            if abs(phi(k, z) - ref) > 1e-13 * abs(ref):
                failures.append(f"k={k} near-zero z={z}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(2, "phi-function quadrature oracle", ok)
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1 s budget"


def test_criterion_03_gronwall(announce):
    """1000 hypothesis-satisfying triples dominated; equality to 1e-12; < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        b = rng.uniform(0.0, 1.0, n)
        if trial % 2 == 0:
            # random admissible z built step by step under the hypothesis
            a = rng.uniform(0.0, 2.0, n)
            z = np.empty(n)
            z[0] = rng.uniform(0.0, a[0])
            acc = 0.0
            for k in range(1, n):
                acc += b[k - 1] * z[k - 1]
                z[k] = rng.uniform(0.0, a[k] + acc)
        else:
            # greedy equality sequence with flat a: meets the bound exactly
            a = np.full(n, rng.uniform(0.5, 2.0))
            z = np.empty(n)
            z[0] = a[0]
            acc = 0.0
            for k in range(1, n):
                acc += b[k - 1] * z[k - 1]
                z[k] = a[k] + acc
        if not gronwall_hypothesis_holds(a, b, z, slack=1e-9):
            failures.append(f"trial {trial}: constructed z not admissible")
            continue
        B = gronwall_bound(a, b)
        if np.any(z > B * (1.0 + 1e-12) + 1e-12):
            failures.append(f"trial {trial}: bound violated")
        if trial % 2 == 1 and not np.allclose(z, B, rtol=1e-12):
            failures.append(f"trial {trial}: equality case off the bound")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(3, "discrete Gronwall bound", ok)
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1 s budget"


def _ou_smooth_state(problem, rng):
    env = np.exp(-problem.x ** 2 / 2.0)
    u = np.zeros(problem.n)
    for k in range(1, 7):
        u += rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * problem.x / problem.box)
    return env * u


def test_criterion_04_semigroup_laws(announce):
    """apply(t1+t2) = apply(t1) apply(t2): heat/wave 1e-11, OU 1e-6; < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    heat = HeatTorusProblem(dim=1, n=64)
    for _ in range(100):
        u = random_state(heat, rng)
        t1, t2 = rng.uniform(0.01, 0.4, 2)
        d = heat.v_norm(heat.apply(t1 + t2, u) - heat.apply(t1, heat.apply(t2, u)))
        if d > 1e-11:
            failures.append(f"heat diff {d:.2e}")
    wave = WaveProblem(n_modes=32)
    for _ in range(100):
        z = wave.sample_in_ball(wave.zeros(), 1.0, rng)
        t1, t2 = rng.uniform(0.01, 0.4, 2)
        d = wave.v_norm(wave.apply(t1 + t2, z) - wave.apply(t1, wave.apply(t2, z)))
        if d > 1e-11:
            failures.append(f"wave diff {d:.2e}")
    ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512)
    for _ in range(100):
        u = _ou_smooth_state(ou, rng)
        t1, t2 = rng.uniform(0.05, 0.125, 2)
        d = ou.v_norm(ou.apply(t1 + t2, u) - ou.apply(t1, ou.apply(t2, u)))
        if d > 1e-6:
            failures.append(f"ou diff {d:.2e}")
    # energy conservation of the wave group over a long horizon
    z = wave.sample_in_ball(wave.zeros(), 1.0, rng)
    drift = np.max(np.abs(wave.modal_energy(wave.apply(10.0, z))
                          - wave.modal_energy(z)))
    if drift > 1e-10:
        failures.append(f"wave energy drift {drift:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    announce(4, "semigroup laws and energy conservation", ok)
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over the 10 s budget"


def test_criterion_05_smoothing_slopes(announce):
    """Heat L1->L2 slope -0.25 +- 0.05 and L2->L2 slope 0 +- 0.05; < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ts = np.geomspace(1e-4, 1e-2, 7)
    rep12 = measure_smoothing(HeatTorusProblem(dim=1, n=1024, p=1, r=2),
                              ts, rng=rng)
    rep22 = measure_smoothing(HeatTorusProblem(dim=1, n=1024, p=2, r=2),
                              ts, rng=rng)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep12.slope - (-0.25)) <= 0.05 and abs(rep22.slope) <= 0.05
          and elapsed < 10.0)
    announce(5, "heat smoothing slopes", ok)
    assert rep12.slope == pytest.approx(-0.25, abs=0.05)
    assert rep22.slope == pytest.approx(0.0, abs=0.05)
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over the 10 s budget"


def test_criterion_06_exponential_euler_order(announce, study_s1):
    """heat + cubic, s=1: median EOC in [0.85, 1.15]; < 60 s."""
    report, elapsed = study_s1
    ok = (report.passed and 0.85 <= report.median_eoc <= 1.15
          and elapsed < 60.0)
    announce(6, "exponential Euler first order", ok)
    assert report.passed, report.abort_reason
    assert 0.85 <= report.median_eoc <= 1.15
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60 s budget"


def test_criterion_07_second_order(announce, study_s2):
    """heat + cubic, s=2: median EOC in [1.7, 2.3], errors decreasing; < 120 s."""
    report, elapsed = study_s2
    decreasing = all(a > b for a, b in zip(report.errors, report.errors[1:]))
    ok = (report.passed and 1.7 <= report.median_eoc <= 2.3 and decreasing
          and elapsed < 120.0)
    announce(7, "second-order scheme", ok)
    assert report.passed, report.abort_reason
    assert 1.7 <= report.median_eoc <= 2.3
    assert decreasing
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over the 120 s budget"


def test_criterion_08_fractional_order(announce, study_frac):
    """Rough data, W=X with alpha=1/4, s=2: median EOC 1.75 +- 0.3; < 120 s."""
    report, elapsed = study_frac
    ok = (report.passed
          and abs(report.median_eoc - (2.0 - 0.25)) <= 0.3
          and elapsed < 120.0)
    announce(8, "fractional order reduction", ok)
    assert report.passed, report.abort_reason
    assert report.predicted_order == pytest.approx(1.75)
    assert report.median_eoc == pytest.approx(1.75, abs=0.3)
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over the 120 s budget"


def test_criterion_09_contraction_certificate(announce, tmp_path, study_s1,
                                              study_s2, study_frac):
    """Observed ratios <= kappa(h)*1.1 in every accepted run; kappa >= 1 aborts."""
    failures = []
    for report, _ in (study_s1, study_s2, study_frac):
        for h, kappa, ratio in zip(report.h_list, report.kappa,
                                   report.max_ratio_per_h):
            if ratio > kappa * 1.1:
                failures.append(f"{report.problem_id} h={h}: ratio {ratio:.3e} "
                                f"above kappa {kappa:.3e} * 1.1")
    # a deliberately non-contractive step must abort with exit code 3
    import yaml
    cfg = {
        "name": "kappa-blowup",
        "problem": {"kind": "heat", "dim": 1, "n": 64},
        "nonlinearity": {"kind": "power", "alpha": 3, "coeff": -1.0},
        "initial": {"amplitude": 4.0},
        "run": {"t_final": 1.0, "n_steps": 1},
        "scheme": {"stages": 1},
    }
    path = tmp_path / "blowup.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    if code != 3:
        failures.append(f"kappa >= 1 run exited {code}, expected 3")
    ok = not failures
    announce(9, "fixed-point contraction certificate", ok)
    assert not failures, failures[:5]


def test_criterion_09_ratios_are_measured(study_s2, study_frac):
    """Every accepted h records a contraction ratio, so the ratio check of
    criterion 09 never passes on an empty list."""
    for report, _ in (study_s2, study_frac):
        assert all(ratio > 0.0 for ratio in report.max_ratio_per_h), \
            (report.problem_id, report.max_ratio_per_h)


def test_criterion_10_apriori_bound_dominates(announce, study_s1, study_s2,
                                              study_frac):
    """C h^(s-1) Omega_W(h) ||f^(s)|| >= observed error for every run."""
    failures = []
    for report, _ in (study_s1, study_s2, study_frac):
        for h, err, bound in zip(report.h_list, report.errors, report.bounds):
            if bound < err:
                failures.append(f"{report.problem_id} h={h}: bound {bound:.3e} "
                                f"below error {err:.3e}")
    ok = not failures
    announce(10, "a-priori error bound dominance", ok)
    assert not failures, failures[:5]


def test_criterion_11_wave_example(announce, study_wave):
    """Linear wave matches the modal closed form to 1e-10; cubic s=2 order 2."""
    t0 = time.perf_counter()
    wave = WaveProblem(n_modes=32, alpha_w=1.0)
    amps = {1: 1.0, 2: 0.3, 5: -0.2}
    w0 = sum(a * np.sin(k * wave.x) for k, a in amps.items())
    z0 = wave.encode(w0, np.zeros_like(w0))
    cfg = cfgmod.resolve_config("wave-dirichlet-1d")
    cfg["nonlinearity"] = {"kind": "none"}
    problem = cfgmod.build_problem(cfg)
    from expsplit.integrator import SchemeSpec, run
    from expsplit.nonlinearities import ZeroNonlinearity
    scheme = SchemeSpec.with_stages(2)
    rec = run(z0, 1.0, 100, scheme, problem, ZeroNonlinearity(), 1e-12)
    rec.raise_if_failed()
    w_num, wdot_num = decode(wave, rec.states[-1])
    # closed form: w = sum a_k cos(k t) sin(k x), wdot = -sum a_k k sin(k t) sin(k x)
    T = 1.0
    w_ex = sum(a * math.cos(k * T) * np.sin(k * wave.x)
               for k, a in amps.items())
    wdot_ex = sum(-a * k * math.sin(k * T) * np.sin(k * wave.x)
                  for k, a in amps.items())
    linear_err = max(float(np.max(np.abs(w_num - w_ex))),
                     float(np.max(np.abs(wdot_num - wdot_ex))))
    report, study_elapsed = study_wave
    elapsed = time.perf_counter() - t0 + study_elapsed
    ok = (linear_err <= 1e-10 and report.passed
          and 1.7 <= report.median_eoc <= 2.3 and elapsed < 60.0)
    announce(11, "wave equation linear and cubic", ok)
    assert linear_err <= 1e-10
    assert report.passed, report.abort_reason
    assert 1.7 <= report.median_eoc <= 2.3
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60 s budget"


def test_criterion_12_ou_propagator(announce, study_ou):
    """Gaussian variance map to rel 1e-6; OU + cubic EOC in [0.85, 1.15]."""
    t0 = time.perf_counter()
    ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512)
    failures = []
    # widths kept well inside the truncated box so the comparison probes
    # the variance map itself, not the zero extension at |x| = L
    cases = [(s, t) for s in (0.8, 1.0, 1.5) for t in (0.1, 0.25)]
    cases += [(0.8, 0.5), (1.0, 0.5)]
    for sigma, t in cases:
        v = np.exp(-ou.x ** 2 / (2.0 * sigma ** 2))
        out = ou.apply(t, v)
        var = math.exp(2.0 * ou.b * t) * sigma ** 2 \
            + 2.0 * ou.q * (math.exp(2.0 * ou.b * t) - 1.0) / (2.0 * ou.b)
        amp = sigma / math.sqrt(sigma ** 2 + 2.0 * ou.q_t(t))
        exact = amp * np.exp(-ou.x ** 2 / (2.0 * var))
        rel = ou.lp(out - exact, 2) / ou.lp(exact, 2)
        if rel > 1e-6:
            failures.append(f"sigma={sigma} t={t}: rel err {rel:.2e}")
    report, study_elapsed = study_ou
    elapsed = time.perf_counter() - t0 + study_elapsed
    ok = (not failures and report.passed
          and 0.85 <= report.median_eoc <= 1.15 and elapsed < 60.0)
    announce(12, "Ornstein-Uhlenbeck analytic checks and order", ok)
    assert not failures, failures[:5]
    assert report.passed, report.abort_reason
    assert 0.85 <= report.median_eoc <= 1.15
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60 s budget"
