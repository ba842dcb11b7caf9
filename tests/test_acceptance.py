"""Acceptance suite: one end-to-end check per numbered release criterion.

Each test prints a single ``ACCEPTANCE k (...): PASS`` or ``FAIL`` line
before asserting, so running this file with ``pytest -s`` yields a readable
scorecard.  The checks pin the statistical targets (3 or 4 standard errors,
node-hit quotas) and the deterministic tolerances the package promises.
"""

import json

import numpy as np

from conftest import analytic_decay_element, decay_element_setup, random_ket, random_model
from qsdsim import (
    DensityMatrix,
    JumpEngine,
    Ket,
    NoiseStream,
    Operator,
    QsdEngine,
    SdeConfig,
    benchmark_sweep,
    cli,
    correlate,
    decay_model,
    doubled_block_evolution,
    driven_decay_model,
    evolve,
    heisenberg_element,
    make_doubled_state,
    regression_matrix_element,
    run_coupled_ensemble,
    run_ensemble,
    sigma_minus,
    sigma_plus,
    two_time_correlation,
)


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def read_series(path):
    lines = path.read_text().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2], rows[:, 3]


def run_scenario(tmp_path, **cfg):
    out = tmp_path / "out"
    cfg["out"] = str(out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path)]) == 0
    return out


def test_criterion_1_decay_element_tracks_analytic_curve(tmp_path):
    out = run_scenario(
        tmp_path, scenario="decay-element", n=1000, dt=1e-3, seed=0
    )
    grid, mean, se = read_series(out / "results.csv")
    assert grid.size == 40 and grid[-1] == 4.0
    target = analytic_decay_element(grid)
    re_hits = int(np.sum(np.abs(mean.real - target) < 3 * se))
    im_hits = int(np.sum(np.abs(mean.imag) < 3 * se))
    ok = re_hits >= 38 and im_hits == 40
    assert verdict(1, "decay element vs analytic", ok), (
        f"re hits {re_hits}/40, im hits {im_hits}/40"
    )


def test_criterion_2_oracle_matches_analytic_solution():
    obs, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.1, 4.0, 40)
    series = regression_matrix_element(obs, bra, ket, model, grid, h_ode=1e-3)
    err = np.max(np.abs(series - analytic_decay_element(grid)))
    ok = err < 1e-8
    assert verdict(2, "oracle exactness", ok), f"max error {err:.3e}"


def test_criterion_3_doubled_blocks_follow_single_space_evolution(rng):
    grid = np.array([0.0, 1.25, 2.5, 3.75, 5.0])
    h_ode = 1e-2
    combos = [(d, c) for d in (2, 3, 4) for c in (1, 2, 3)]
    while len(combos) < 20:
        combos.append((int(rng.integers(2, 5)), int(rng.integers(1, 4))))
    worst = 0.0
    for dim, channels in combos:
        model = random_model(rng, dim, channels)
        bra = random_ket(rng, dim)
        ket = random_ket(rng, dim)
        full = doubled_block_evolution(bra, ket, model, grid, h_ode=h_ode)
        vec = make_doubled_state(bra, ket)
        for a in (0, 1):
            for b in (0, 1):
                seed_block = np.outer(
                    vec[a * dim:(a + 1) * dim], vec[b * dim:(b + 1) * dim].conj()
                )
                blocks = evolve(
                    DensityMatrix(seed_block, hermitian=(a == b)), model, grid, h_ode
                )
                for whole, part in zip(full, blocks):
                    sub = whole.entries[
                        a * dim:(a + 1) * dim, b * dim:(b + 1) * dim
                    ]
                    worst = max(worst, float(np.abs(sub - part.entries).max()))
    ok = worst < 1e-10
    assert verdict(3, "doubled-space block property", ok), f"worst {worst:.3e}"


def test_criterion_4_ensemble_covariance_reproduces_density_matrix():
    model = decay_model()
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    rho = evolve(
        DensityMatrix(np.outer(psi0, psi0.conj())), model, [0.0, 1.0], 1e-4
    )[-1].entries.reshape(4)
    worst = {}
    for name, engine in (
        ("qsd", QsdEngine(model, 1e-3)),
        ("jump", JumpEngine(model, 1e-3)),
    ):
        def task(streams):
            states = np.tile(psi0, (len(streams), 1))
            out = engine.run(states, streams, 1000)
            return np.einsum("bi,bj->bij", out, out.conj()).reshape(len(streams), 4), {}

        res = run_ensemble(task, 10_000, seed=0)
        worst[name] = float(np.max(np.abs(res.mean - rho) / res.std_error))
    ok = all(v < 4.0 for v in worst.values())
    assert verdict(4, "unraveling covariance", ok), worst


def test_criterion_5_fluorescence_correlation_matches_oracle(tmp_path):
    out = run_scenario(
        tmp_path, scenario="fluorescence-g1", n=10_000, omega=10.0, warmup=30.0,
        dt=1e-3, seed=0,
    )
    grid, mean, se = read_series(out / "results.csv")
    _, oracle, _ = read_series(out / "reference.csv")
    assert grid.size == 61 and grid[-1] == 3.0
    hits = int(np.sum(np.abs(mean - oracle) < 3 * se))
    ok = hits >= 58  # 95% of 61 nodes
    assert verdict(5, "two-time correlation", ok), f"hits {hits}/61"


def test_criterion_6_coupled_scheme_deviates_while_doubled_passes():
    obs, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.1, 1.0, 10)
    target = analytic_decay_element(grid)
    window = grid >= 0.3
    min_excess = np.inf
    for h in (0.01, 0.001, 0.0001):
        res = run_coupled_ensemble(
            obs, bra, ket, model, grid, dt=h, n=10_000, seed=0,
            variant="quasi_linear",
        )
        ratio = np.abs(res.mean.real - target) / np.maximum(res.std_error, 1e-300)
        min_excess = min(min_excess, float(ratio[window].max()))

    wide = np.linspace(0.1, 4.0, 40)
    doubled = heisenberg_element(
        obs, bra, ket, model, wide, 1000, SdeConfig(dt=1e-3), seed=0
    )
    wide_target = analytic_decay_element(wide)
    re_hits = int(np.sum(np.abs(doubled.mean.real - wide_target) < 3 * doubled.std_error))
    im_hits = int(np.sum(np.abs(doubled.mean.imag) < 3 * doubled.std_error))
    ok = min_excess > 3.0 and re_hits >= 38 and im_hits == 40
    assert verdict(6, "coupled-scheme systematic deviation", ok), (
        f"min max-deviation {min_excess:.2f} sigma; doubled re {re_hits}/40 im {im_hits}/40"
    )


def test_criterion_7_estimator_identities():
    model = decay_model()
    a_op, b_op = sigma_plus(), sigma_minus()
    psi0 = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    n, t, dt, seed = 16, 0.5, 1e-2, 0
    steps = int(round(t / dt))

    # zero-delay value per realization: <psi_t| A B |psi_t>
    zero_delay_ok = True
    for scheme in ("normalized", "quasi_linear"):
        res = correlate(
            a_op, b_op, model, t, [0.0, 0.3], n, SdeConfig(dt=dt, scheme=scheme), seed,
            initial=psi0,
        )
        streams = [NoiseStream(seed, i) for i in range(n)]
        states = QsdEngine(model, dt, scheme).run(
            np.tile(psi0.amplitudes, (n, 1)), streams, steps
        )
        states /= np.linalg.norm(states, axis=1)[:, None]
        expected = np.einsum(
            "bi,ij,bj->b", states.conj(), a_op.matrix @ b_op.matrix, states
        )
        zero_delay_ok &= bool(np.max(np.abs(res.samples[:, 0] - expected)) < 1e-12)

    # identity perturbation per realization: single-space run, same noise
    tau_grid = np.array([0.0, 0.25, 0.5])
    res = correlate(
        a_op, Operator(np.eye(2)), model, t, tau_grid, n, SdeConfig(dt=dt), seed,
        initial=psi0,
    )
    streams = [NoiseStream(seed, i) for i in range(n)]
    engine = QsdEngine(model, dt)
    states = engine.run(np.tile(psi0.amplitudes, (n, 1)), streams, steps)
    manual = np.empty((n, tau_grid.size), dtype=complex)

    def on_record(slot, recorded, norms):
        manual[:, slot] = np.einsum(
            "bi,ij,bj->b", recorded.conj(), a_op.matrix, recorded
        )

    node_steps = [int(round(tau / dt)) for tau in tau_grid]
    engine.run(states, streams, node_steps[-1], node_steps, on_record)
    identity_ok = bool(np.max(np.abs(res.samples - manual)) < 1e-12)

    # identity observable in the mean: constant overlap <phi_0|psi_0>
    _, bra, ket, _ = decay_element_setup()
    grid = np.linspace(0.1, 4.0, 40)
    overlap = complex(np.vdot(bra.amplitudes, ket.amplitudes))
    res = heisenberg_element(
        Operator(np.eye(2)), bra, ket, model, grid, 1000, SdeConfig(dt=1e-3),
        seed=0,
    )
    mean_hits = int(np.sum(np.abs(res.mean - overlap) < 3 * res.std_error))
    ok = zero_delay_ok and identity_ok and mean_hits == 40
    assert verdict(7, "estimator identities", ok), (
        f"zero-delay {zero_delay_ok}, identity-perturbation {identity_ok}, "
        f"mean hits {mean_hits}/40"
    )


def test_criterion_8_jump_method_is_no_slower_at_matched_error():
    model = driven_decay_model(10.0)
    tau_grid = np.linspace(0.0, 3.0, 16)
    ref = two_time_correlation(
        sigma_plus(), sigma_minus(), model, t=0.0, tau_grid=tau_grid, h_ode=1e-3
    )
    warmup, dt = 10.0, 1e-3
    results = {}

    def runner(method, n, seed):
        sde = SdeConfig(dt=dt, scheme="normalized" if method == "qsd" else "jump")
        res = correlate(sigma_plus(), sigma_minus(), model, warmup, tau_grid, n, sde, seed)
        results[(method, n)] = res
        return res

    points = benchmark_sweep(runner, ref, [250, 500, 1000, 2000], ("qsd", "jump"), seed=0)

    total_steps = int(round(warmup / dt)) + int(round(tau_grid[-1] / dt))
    draws_ok = True
    for pt in points:
        res = results[(pt.method, pt.n)]
        if pt.method == "qsd":
            # 2 real draws per step per channel, plus the random start (2 per amplitude)
            expected = pt.n * (2 * 2 + 2 * 1 * total_steps)
        else:
            # 2 real draws per jump, plus start amplitudes and one threshold per segment
            expected = pt.n * (2 * 2 + 2) + 2 * res.extras["jumps_total"]
        draws_ok &= pt.draws_total == expected

    def closest(method):
        return min(
            (p for p in points if p.method == method),
            key=lambda p: abs(p.rms_relative_error - 0.03),
        )

    qsd_pt, jump_pt = closest("qsd"), closest("jump")
    timing_ok = jump_pt.wall_time_seconds <= qsd_pt.wall_time_seconds
    ok = draws_ok and timing_ok
    assert verdict(8, "benchmark ordering and draw accounting", ok), (
        f"draws_ok={draws_ok}; jump n={jump_pt.n} {jump_pt.wall_time_seconds:.2f}s "
        f"vs qsd n={qsd_pt.n} {qsd_pt.wall_time_seconds:.2f}s"
    )


def test_criterion_9_convergence_orders():
    model = driven_decay_model(2.0)
    ground = np.array([1.0, 0.0], dtype=complex)
    rho0 = DensityMatrix(np.outer(ground, ground.conj()))
    fine = evolve(rho0, model, [0.0, 1.0], 1e-5)[-1].entries
    exact = fine[1, 1].real

    biases = []
    for dt in (0.1, 0.05, 0.025):
        engine = QsdEngine(model, dt)
        steps = int(round(1.0 / dt))

        def task(streams):
            out = engine.run(np.tile(ground, (len(streams), 1)), streams, steps)
            return (np.abs(out[:, 1]) ** 2)[:, None].astype(complex), {}

        res = run_ensemble(task, 100_000, seed=0)
        biases.append(res.mean[0].real - exact)
    ratios = [biases[0] / biases[1], biases[1] / biases[2]]
    euler_ok = all(1.6 <= r <= 2.4 for r in ratios)

    errs = [
        np.abs(evolve(rho0, model, [0.0, 1.0], h)[-1].entries - fine).max()
        for h in (0.04, 0.02)
    ]
    rk4_ratio = errs[0] / errs[1]
    rk4_ok = 12.0 <= rk4_ratio <= 20.0
    ok = euler_ok and rk4_ok
    assert verdict(9, "convergence orders", ok), (
        f"euler ratios {ratios[0]:.2f}, {ratios[1]:.2f}; rk4 ratio {rk4_ratio:.2f}"
    )
