import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcdf import (
    ExperimentConfig,
    bernstein_fit,
    edf_fit,
    estimators,
    fit_from_spec,
    hermite_half_fit,
    ise,
    kernel_fit,
    ks_distance_normal,
    make_beta,
    make_exponential,
    make_weibull_mixture,
    mise_monte_carlo,
    models,
    normality_experiment,
    parameter_sweep,
    pointwise_coeffs,
    simulation,
    szasz_fit,
)
from smoothcdf.simulation import (
    _NODE_BLOCK, _ise_matrix, _model_nodes, _poisson_exponent_factors, _unit_nodes,
    repetition_seed, samples_matrix,
)
from smoothcdf.special import poisson_log_pmf
from smoothcdf.theory import truncation_floor, truncation_index


class _Oracle:
    """Stand-in estimator evaluating an arbitrary function."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, x):
        return self.fn(np.asarray(x, dtype=float))


def test_ise_oracle_values(exp2):
    # the true CDF has zero error; the constant 0 integrates (0 - u)^2 to 1/3
    assert ise(_Oracle(exp2.cdf), exp2) == pytest.approx(0.0, abs=1e-12)
    assert ise(_Oracle(lambda x: np.zeros_like(x)), exp2) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_quadrature_nodes_are_read_only_and_computed_once_per_model(exp2):
    # every ISE and sweep at one order shares these arrays, so a write into
    # them would change all later ones; the model's quantile runs once per
    # (model, order), for ise and sweeps alike
    calls = []
    dist = dataclasses.replace(exp2, quantile=lambda u: calls.append(u.size) or exp2.quantile(u))
    fit = szasz_fit([0.2, 0.5, 1.1], 3)
    first = ise(fit, dist, nodes=48)
    u, w = _unit_nodes(48)
    same_u, same_w, x = _model_nodes(dist, 48)
    assert same_u is u and same_w is w
    for arr in (u, w, x):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert ise(fit, dist, nodes=48) == first
    _ise_matrix(ExperimentConfig(dist, "kernel", (0.1,), n=5, M=2, quadrature_nodes=48))
    assert calls == [48]


def test_edf_ise_exact_formula(exp2):
    # segment-exact u-space integral vs a dense numeric Riemann sum
    fit = edf_fit([0.2, 0.3, 1.1, 2.0])
    got = ise(fit, exp2)
    u = np.linspace(0.0, 1.0, 2_000_001)[1:-1]
    numeric = np.mean((fit.evaluate(exp2.quantile(u)) - u) ** 2)
    assert got == pytest.approx(numeric, abs=1e-6)


def test_edf_mise_matches_analytic_value(exp2):
    # E[ISE] for the step estimator equals 1/(6n) for any continuous model
    cfg = ExperimentConfig(exp2, "edf", (0,), n=20, M=10_000, master_seed=20)
    est, se = mise_monte_carlo(cfg, 0)
    assert abs(est - 1.0 / 120.0) <= 2.0 * se
    assert abs(est - 8.29e-3) <= 2.0 * se  # reported table value


def test_mise_single_repetition(exp2):
    cfg = ExperimentConfig(exp2, "szasz", (10,), n=15, M=1, master_seed=4)
    est, se = mise_monte_carlo(cfg, 10)
    fit = szasz_fit(samples_matrix(exp2, 4, 1, 15)[0], 10)
    assert est == pytest.approx(ise(fit, exp2), abs=1e-15)
    assert se == 0.0


def test_engine_matches_public_ise(exp2, beta33, weibull3):
    reps, n = 6, 25
    xs = samples_matrix(exp2, 3, reps, n)
    cases = [
        ("szasz", (5, 20), lambda row, p: szasz_fit(row, int(p)), exp2, n),
        # large enough orders that the Szasz sweep's Poisson bands are cut
        # off both below (lo > 0) and above (hi < c_max) in some node blocks
        ("szasz", (100, 200), lambda row, p: szasz_fit(row, int(p)), weibull3, 200),
        ("kernel", (0.05, 0.2), lambda row, p: kernel_fit(row, p), exp2, n),
        ("hermite_half", (3, 10), lambda row, p: hermite_half_fit(row, int(p)), exp2, n),
    ]
    for family, grid, fitter, dist, size in cases:
        cfg = ExperimentConfig(dist, family, grid, n=size, M=reps, master_seed=3)
        mat = _ise_matrix(cfg)
        rows = samples_matrix(dist, 3, reps, size)
        for i in range(reps):
            for j, p in enumerate(grid):
                assert mat[i, j] == pytest.approx(ise(fitter(rows[i], p), dist), abs=1e-10), family
    # bernstein on the unit-interval model
    xb = samples_matrix(beta33, 3, reps, n)
    cfg = ExperimentConfig(beta33, "bernstein", (4, 9), n=n, M=reps, master_seed=3)
    mat = _ise_matrix(cfg)
    for i in range(reps):
        for j, p in enumerate((4, 9)):
            assert mat[i, j] == pytest.approx(ise(bernstein_fit(xb[i], p), beta33), abs=1e-10)
    # edf column equals the exact per-repetition values
    cfg = ExperimentConfig(exp2, "edf", (0,), n=n, M=reps, master_seed=3)
    mat = _ise_matrix(cfg)
    for i in range(reps):
        assert mat[i, 0] == pytest.approx(ise(edf_fit(xs[i]), exp2), abs=1e-15)


def test_bernstein_sweep_rejects_half_line_data(exp2):
    cfg = ExperimentConfig(exp2, "bernstein", (4, 9), n=30, M=5, master_seed=1)
    with pytest.raises(ValueError, match="bernstein sweep sample values must be <= 1.0"):
        _ise_matrix(cfg)


def test_quadrature_node_doubling_is_converged(exp2):
    row = samples_matrix(exp2, 3, 1, 30)[0]
    # the half-line smoother is spectrally converged across its whole grid
    for m in (5, 20, 100, 200):
        fit = szasz_fit(row, m)
        a = ise(fit, exp2, nodes=512)
        b = ise(fit, exp2, nodes=2048)
        assert abs(a / b - 1.0) <= 1e-9, m
    for h in (0.2, 0.5):
        kf = kernel_fit(row, h)
        assert abs(ise(kf, exp2, nodes=512) / ise(kf, exp2, nodes=2048) - 1.0) <= 1e-9, h
    # fits with structure near the quadrature resolution converge slower but
    # stay far below Monte Carlo standard errors (~1e-2 relative)
    for fit in (kernel_fit(row, 0.05), hermite_half_fit(row, 15)):
        assert abs(ise(fit, exp2, nodes=512) / ise(fit, exp2, nodes=2048) - 1.0) <= 1e-5


def test_sweep_determinism_and_workers(exp2, beta33):
    cfg = ExperimentConfig(exp2, "szasz", tuple(range(2, 40)), n=20, M=60, master_seed=17)
    r1 = parameter_sweep(cfg, workers=1)
    r2 = parameter_sweep(cfg, workers=1)
    r4 = parameter_sweep(cfg, workers=4)
    assert np.array_equal(r1.mise, r2.mise)
    assert np.array_equal(r1.mise, r4.mise)
    assert np.array_equal(r1.se, r4.se)
    assert r1.argmin_param == r4.argmin_param
    # every other family, byte for byte at 1, 2 and 4 workers
    cases = [("edf", (0,), exp2), ("kernel", (0.05, 0.1, 0.2, 0.4), exp2),
             ("bernstein", (3, 10, 30, 90), beta33), ("hermite_half", (2, 6, 12, 20), exp2)]
    for family, grid, dist in cases:
        cfg = ExperimentConfig(dist, family, grid, n=15, M=40, master_seed=23)
        runs = [parameter_sweep(cfg, workers=w) for w in (1, 2, 4)]
        for r in runs[1:]:
            assert r.mise.tobytes() == runs[0].mise.tobytes(), family
            assert r.se.tobytes() == runs[0].se.tobytes(), family
            assert r.argmin_param == runs[0].argmin_param, family


def test_szasz_sweep_memory_is_bounded_at_large_order(exp2):
    # at m = 20000 the largest observation gives c_max near 1e5: a dense
    # (c_max + 1) x 512 Poisson table would take about 400 MB by itself and
    # the counts of all 400 repetitions another 320 MB.  The sweep keeps
    # Poisson weights only for each node block's band and takes the
    # repetitions in chunks of a bounded element count instead
    cfg = ExperimentConfig(exp2, "szasz", (20000,), n=20, M=400, master_seed=5)
    tracemalloc.start()
    try:
        mat = _ise_matrix(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6, peak
    # a row depends only on (seed, i): the first rows match a three-row run
    # and the public fit.  Not bit for bit: c_max, where the sum stops and
    # the tail takes over, is the largest order over all the rows
    small = _ise_matrix(ExperimentConfig(exp2, "szasz", (20000,), n=20, M=3, master_seed=5))
    rows = samples_matrix(exp2, 5, 3, 20)
    for i in range(3):
        assert mat[i, 0] == pytest.approx(small[i, 0], rel=1e-10)
        assert mat[i, 0] == pytest.approx(ise(szasz_fit(rows[i], 20000), exp2), abs=1e-10)


def test_szasz_sweep_counts_an_observation_above_its_rounded_order(exp2):
    # the largest observation, one ulp above 1/3, has order 2 at m = 3, while
    # ceil(3 X) = 1: counts sized by the rounded product would spill its count
    # into the next row
    rows = np.array([[0.1, 0.33333333333333337], [0.2, 0.3]])
    u, w, x = _model_nodes(exp2, 64)
    got = simulation._ise_szasz(rows, 3, u, w, x)
    want = [ise(szasz_fit(row, 3), exp2, nodes=64) for row in rows]
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4000), x_max=st.floats(0.05, 12.0), rate=st.floats(0.2, 5.0),
       block=st.integers(0, 512 // _NODE_BLOCK - 1))
def test_szasz_sweep_exponent_equals_poisson_log_pmf(m, x_max, rate, block):
    # the Szasz sweep's rank-3 product on one node block's band, from a few
    # rows to thousands, rounds as poisson_log_pmf's k log z - z - log k!
    # does: a matrix product that summed its three terms out of order would
    # differ
    z = m * make_exponential(rate).quantile(_unit_nodes(512)[0])
    c_max = max(1, math.ceil(m * x_max))
    left, right = _poisson_exponent_factors(c_max, z)
    cols = slice(block * _NODE_BLOCK, (block + 1) * _NODE_BLOCK)
    band = slice(truncation_floor(z[cols][0]), min(truncation_index(z[cols][-1]), c_max) + 1)
    k = np.arange(c_max + 1, dtype=float)[band, None]
    want = poisson_log_pmf(k, z[None, cols])
    assert (left[band] @ right[:, cols]).tobytes() == want.tobytes()


def test_bernstein_sweep_memory_is_bounded_at_large_order(beta33):
    # at m = 5000 the counts of all 2000 repetitions would take 80 MB as
    # integers and as much again as floats, next to a 20 MB binomial table;
    # unchunked the sweep peaked at 182 MB.  The repetitions go in chunks of
    # a bounded element count
    cfg = ExperimentConfig(beta33, "bernstein", (5000,), n=20, M=2000, master_seed=5)
    tracemalloc.start()
    try:
        mat = _ise_matrix(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120e6, peak
    small = _ise_matrix(ExperimentConfig(beta33, "bernstein", (5000,), n=20, M=3, master_seed=5))
    rows = samples_matrix(beta33, 5, 3, 20)
    for i in range(3):
        assert mat[i, 0] == pytest.approx(small[i, 0], abs=1e-10)
        assert mat[i, 0] == pytest.approx(ise(bernstein_fit(rows[i], 5000), beta33), abs=1e-10)


def test_hermite_sweep_memory_is_bounded_at_many_repetitions(exp2):
    # a running sum over orders for all 40000 repetitions at once peaked at
    # 502 MB; the orders are now one product per chunk of repetitions
    cfg = ExperimentConfig(exp2, "hermite_half", (2, 30), n=10, M=40000, master_seed=5)
    tracemalloc.start()
    try:
        mat = _ise_matrix(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6, peak
    small = _ise_matrix(ExperimentConfig(exp2, "hermite_half", (2, 30), n=10, M=3, master_seed=5))
    rows = samples_matrix(exp2, 5, 3, 10)
    for i in range(3):
        for j, order in enumerate((2, 30)):
            assert mat[i, j] == pytest.approx(small[i, j], abs=1e-10)
            assert mat[i, j] == pytest.approx(ise(hermite_half_fit(rows[i], order), exp2), abs=1e-10)


def test_sweep_argmin_and_degenerate_grid(exp2):
    cfg = ExperimentConfig(exp2, "szasz", (2, 5, 11, 30), n=25, M=40, master_seed=2)
    res = parameter_sweep(cfg)
    j = int(np.argmin(res.mise))
    assert res.argmin_param == res.params[j]
    assert res.argmin_mise == res.mise[j]
    assert np.all(res.mise >= 0.0)
    assert res.argmin_on_grid_edge == (j in (0, len(res.params) - 1))
    one = parameter_sweep(ExperimentConfig(exp2, "szasz", (7,), n=25, M=40, master_seed=2))
    assert one.argmin_param == 7.0
    assert one.argmin_on_grid_edge


def test_edf_sweep_constant_across_trivial_grid(exp2):
    cfg = ExperimentConfig(exp2, "edf", (1, 2, 3), n=20, M=50, master_seed=6)
    res = parameter_sweep(cfg)
    assert np.all(res.mise == res.mise[0])
    assert res.argmin_param == 1.0  # tie broken toward the smaller parameter
    assert res.argmin_on_grid_edge


def test_common_random_numbers_reuse(exp2):
    # single-parameter runs with the same master seed reproduce the sweep
    grid = (5, 25)
    cfg = ExperimentConfig(exp2, "szasz", grid, n=20, M=30, master_seed=9)
    swept = parameter_sweep(cfg)
    for j, p in enumerate(grid):
        est, _ = mise_monte_carlo(cfg, p)
        assert est == pytest.approx(swept.mise[j], abs=1e-15)


def test_repetition_seed_stability():
    assert repetition_seed(1, 0) == repetition_seed(1, 0)
    assert repetition_seed(1, 0) != repetition_seed(1, 1)
    assert repetition_seed(2, 0) != repetition_seed(1, 0)
    for index in (-1, 2**32):
        with pytest.raises(ValueError, match="repetition index"):
            repetition_seed(1, index)


def _seed_sequence(seed, i):
    return np.random.SeedSequence((seed & 0xFFFF_FFFF_FFFF_FFFF, i)).generate_state(1, np.uint64)[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                      st.integers(-2**70, 2**70)),
       start=st.one_of(st.integers(0, 3000), st.integers(2**32 - 3000, 2**32 - 1)),
       length=st.integers(1, 400), step=st.integers(1, 64))
def test_chunk_seeds_equal_numpy_seed_sequence(seed, start, length, step):
    # each chunk's seeds at once, and each seed alone, are SeedSequence's,
    # for masters of one and two 32-bit words; the rows are cut into chunks
    # at the multiples of step, as a draw cuts them
    stop = min(start + length, 2**32)
    want = np.array([_seed_sequence(seed, i) for i in range(start, stop)], dtype=np.uint64)
    cuts = [start, *range(start - start % step + step, stop, step), stop]
    chunks = [simulation._repetition_seeds(seed, np.arange(a, b, dtype=np.uint32))
              for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(chunks).tobytes() == want.tobytes()
    for i in (start, stop - 1):
        assert repetition_seed(seed, i) == int(want[i - start])


def _count_draws(monkeypatch):
    # counts drawn sample rows through the chunk-fill seam both
    # models.sample and samples_matrix call: one seed per row
    calls = []
    fill = models._fill_uniforms

    def counted(seeds, out):
        calls.extend(seeds)
        return fill(seeds, out)

    monkeypatch.setattr(models, "_fill_uniforms", counted)
    return calls


def test_samples_matrix_shares_one_read_only_draw(beta33, monkeypatch):
    calls = _count_draws(monkeypatch)
    full = samples_matrix(beta33, 3, 6, 20)
    assert len(calls) == 6
    # a smaller request at the same inputs is a prefix of the kept draw,
    # equal bit for bit to the rows drawn one by one
    prefix = samples_matrix(beta33, 3, 4, 20)
    assert len(calls) == 6 and np.shares_memory(prefix, full)
    rows = np.array([models.sample(beta33, repetition_seed(3, i), 20) for i in range(4)])
    assert prefix.tobytes() == rows.tobytes()
    del calls[:]
    # the seed is keyed as repetition_seed reads it, modulo 2**64
    assert samples_matrix(beta33, 3 + 2**64, 2, 20).tobytes() == full[:2].tobytes()
    assert not calls
    with pytest.raises(ValueError, match="read-only"):
        prefix[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        full[-1] = 0.5
    # each call differs from the one before in one input: another seed,
    # another n, more rows, an equal model that is another object
    twin = make_beta(3.0, 3.0)
    for dist, seed, reps, n in ((beta33, 4, 6, 20), (beta33, 4, 6, 21), (beta33, 4, 7, 21),
                                (twin, 4, 7, 21)):
        del calls[:]
        fresh = samples_matrix(dist, seed, reps, n)
        assert len(calls) == reps and not fresh.flags.writeable
    assert samples_matrix(twin, 3, 6, 20).tobytes() == full.tobytes()


_SAMPLED_MODELS = {
    "exponential": make_exponential(2.0),
    "weibull-1": make_weibull_mixture([[1.0, 1.0, 1.0]]),
    "weibull-3": make_weibull_mixture([[0.35, 1.5, 1.5], [0.35, 4.5, 4.5], [0.3, 8.0, 8.0]]),
    "beta": make_beta(3.0, 3.0),
}


def _stacked_rows(dist, seed, n_reps, n):
    # each row drawn alone, without the chunk seeding and re-keying: its own
    # SeedSequence and a fresh Philox generator, then the model's transform
    rows = []
    for i in range(n_reps):
        rng = np.random.Generator(np.random.Philox(key=_seed_sequence(seed, i)))
        rows.append(np.sort(dist._invert(rng.random(dist.uniforms_per_draw * n))))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_SAMPLED_MODELS)), seed=st.integers(0, 2**64 - 1),
       n=st.integers(1, 60), workers=st.sampled_from([1, 2]),
       offset=st.sampled_from([None, -1, 0, 1]))
def test_samples_matrix_equals_the_stacked_rows_bitwise(kind, seed, n, workers, offset):
    # chunked, fanned-out drawing gives every row's bits as drawn alone, at
    # one repetition and at one chunk's rows, one fewer and one more
    dist = _SAMPLED_MODELS[kind]
    step = simulation._draw_chunk_rows(dist, n, workers)
    n_reps = 1 if offset is None else step + offset
    simulation._last_draw = None
    drawn = samples_matrix(dist, seed, n_reps, n, workers)
    assert drawn.shape == (n_reps, n)
    want = _stacked_rows(dist, seed, n_reps, n)
    assert drawn.tobytes() == want.tobytes()
    assert models.sample(dist, repetition_seed(seed, n_reps - 1), n).tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("kind", sorted(_SAMPLED_MODELS))
def test_samples_matrix_draws_rows_larger_than_a_chunk(kind):
    # one row's uniforms alone exceed the chunk budget: one row a chunk
    dist = _SAMPLED_MODELS[kind]
    n = 70_000
    assert dist.uniforms_per_draw * n > estimators._ELEMENT_BUDGET // 4
    assert simulation._draw_chunk_rows(dist, n, 1) == 1
    want = _stacked_rows(dist, 11, 3, n).tobytes()
    for workers in (1, 2):
        simulation._last_draw = None
        assert samples_matrix(dist, 11, 3, n, workers).tobytes() == want


def test_samples_matrix_rejects_nonpositive_counts(beta33):
    samples_matrix(beta33, 3, 5, 20)
    for reps in (0, -1):  # -1 would otherwise slice the kept draw to four rows
        with pytest.raises(ValueError, match="n_reps must be a positive integer"):
            samples_matrix(beta33, 3, reps, 20)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            samples_matrix(beta33, 3, 5, n)


def test_estimators_on_one_seed_draw_once(exp2, beta33, monkeypatch):
    calls = _count_draws(monkeypatch)
    # a normality run fits no object per row: count every fit function and
    # every fitted evaluate
    fits = []
    for name in ("edf_fit", "szasz_fit", "bernstein_fit", "kernel_fit", "hermite_half_fit",
                 "hermite_half_standardized_fit"):
        monkeypatch.setattr(estimators, name,
                            lambda *a, _f=getattr(estimators, name), **k: fits.append(a) or _f(*a, **k))
    evaluate = estimators._Fitted.evaluate
    monkeypatch.setattr(estimators._Fitted, "evaluate",
                        lambda self, x: fits.append(x) or evaluate(self, x))
    # the benchmark's four normality specs at one seed
    for spec in ({"kind": "edf"}, {"kind": "szasz", "m": 252}, {"kind": "kernel", "h": 0.05},
                 {"kind": "hermite_half", "N": 20}):
        normality_experiment(beta33, spec, 0.4, 500, 50, master_seed=9)
    assert len(calls) == 50
    assert fits == []
    fit_from_spec({"kind": "szasz", "m": 5}, [0.5]).evaluate(0.4)  # the counters count
    assert len(fits) == 2
    # criterion 3's trio: the EDF anchor and the Szasz and kernel sweeps
    del calls[:]
    mise_monte_carlo(ExperimentConfig(exp2, "edf", (0,), n=50, M=40, master_seed=5), 0)
    parameter_sweep(ExperimentConfig(exp2, "szasz", (2, 10, 30), n=50, M=40, master_seed=5))
    parameter_sweep(ExperimentConfig(exp2, "kernel", (0.05, 0.2), n=50, M=40, master_seed=5),
                    workers=2)
    assert len(calls) == 40


@pytest.mark.parametrize("workers", [1, 2])
def test_samples_matrix_keeps_one_matrix_alive(beta33, workers):
    # a new draw releases the kept one first, so two draws of different
    # inputs back to back peak at one matrix, not two, chunks in flight
    # on every worker included
    reps, n = 400, 500
    size = reps * n * 8
    tracemalloc.start()
    try:
        samples_matrix(beta33, 1, reps, n, workers)
        tracemalloc.reset_peak()
        samples_matrix(beta33, 2, reps, n, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size, peak / size


def test_shared_draws_are_identical_under_concurrent_clients(exp2):
    # clients on one model and n at different seeds race for the kept draw;
    # a race may redraw but must never hand a client another seed's rows
    def normality(seed):
        return normality_experiment(exp2, {"kind": "szasz", "m": 20}, 0.4, 30, 25, seed).values

    def sweep(seed):
        res = parameter_sweep(ExperimentConfig(exp2, "kernel", (0.05, 0.2), n=30, M=25,
                                               master_seed=seed))
        return np.concatenate([res.mise, res.se])

    def rows(seed):  # many small requests, to crowd the lookup itself
        return samples_matrix(exp2, seed, 1 + seed % 3, 30)

    def fanned(seed):  # chunks of one draw on more threads than cores
        assert simulation._draw_chunk_rows(exp2, 30, 3) < 250
        return samples_matrix(exp2, seed, 700, 30, workers=3)

    clients = [(normality, 1, 6), (sweep, 2, 6), (normality, 3, 6), (sweep, 4, 6),
               (rows, 5, 300), (rows, 6, 300), (fanned, 7, 6)]
    serial = []
    for fn, seed, _ in clients:
        simulation._last_draw = None  # each reference from its own draw
        serial.append(fn(seed).tobytes())
    results = {i: [] for i in range(len(clients))}

    def client(i):
        fn, seed, rounds = clients[i]
        for _ in range(rounds):
            results[i].append(fn(seed).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(serial):
        assert results[i] == [want] * clients[i][2], clients[i]


def test_config_validation(exp2):
    with pytest.raises(ValueError):
        ExperimentConfig(exp2, "nope", (1,), n=10, M=5)
    with pytest.raises(ValueError):
        ExperimentConfig(exp2, "szasz", (), n=10, M=5)
    with pytest.raises(ValueError):
        ExperimentConfig(exp2, "szasz", (3, 2), n=10, M=5)
    with pytest.raises(ValueError):
        ExperimentConfig(exp2, "szasz", (2, 3), n=0, M=5)


@pytest.mark.parametrize("family, grid, message", [
    ("szasz", (0, 3), "order m must be a positive integer"),
    ("bernstein", (0, 3), "order m must be a positive integer"),
    ("kernel", (-0.05, 0.1), "bandwidth must be positive"),
    ("kernel", (0.05, float("nan")), "bandwidth must be positive"),
    ("hermite_half", (-1, 3), "order_max must be an integer >= 0"),
    ("szasz", (2, 2.5), "order m must be a positive integer"),
    ("hermite_half", (2, 2.5), "order_max must be an integer"),
    ("kernel", (0.05, float("inf")), "bandwidth must be positive and finite"),
])
def test_config_rejects_grids_outside_the_family_domain(exp2, family, grid, message):
    # these used to run and return garbage: Szasz m=0 gave NaN (argmin 0),
    # Hermite N=-1 a denormal read from uninitialised memory (argmin -1),
    # kernel h<0 and Bernstein m=0 gave values
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(exp2, family, grid, n=20, M=5)
    # the boundary values the fits accept stay valid
    ExperimentConfig(exp2, family, (1, 3) if family != "hermite_half" else (0, 3), n=20, M=5)
    # the fits and the normality rows take each grid value as the sweep does:
    # the bad one with the same message, the others without error
    key = {"szasz": "m", "bernstein": "m", "kernel": "h", "hermite_half": "N"}[family]
    errors = []
    for p in grid:
        spec, rows = {"kind": family, key: p}, np.array([[0.2, 0.5]])
        got = {_error(lambda: ExperimentConfig(exp2, family, (p,), n=20, M=5)),
               _error(lambda: fit_from_spec(spec, rows[0])),
               _error(lambda: estimators.evaluate_rows(spec, rows, 0.3))}
        assert len(got) == 1, (p, got)
        errors += [e for e in got if e is not None]
    assert len(errors) == 1 and re.search(message, errors[0]), errors


def _error(call):
    # the message of the ValueError call raises, or None
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def test_normality_experiment_edf(beta33):
    res = normality_experiment(beta33, {"kind": "edf"}, 0.4, 500, 5000, master_seed=0)
    assert res.reference_mean == pytest.approx(0.31744, abs=1e-10)
    assert res.reference_sd == pytest.approx(math.sqrt(0.31744 * 0.68256 / 500.0), abs=1e-12)
    assert res.values.shape == (5000,)
    assert np.all((res.values >= 0.0) & (res.values <= 1.0))
    # n Fhat(x) is exactly binomial; at n = 500 the normal approximation
    # holds to a few lattice widths
    assert res.ks_distance < 0.03
    with pytest.raises(ValueError):
        normality_experiment(beta33, {"kind": "edf"}, 1.5, 500, 100, master_seed=0)


_NORMALITY_SPECS = [
    {"kind": "edf"},
    {"kind": "szasz", "m": 252},
    {"kind": "kernel", "h": 0.05},
    {"kind": "hermite_half", "N": 20},
    {"kind": "hermite_half", "N": 12, "standardize": True},
    {"kind": "bernstein", "m": 40},
]


def _per_row_fits(spec, dist, reps, seed):
    rows = samples_matrix(dist, seed, reps, 500)
    return np.array([fit_from_spec(spec, row, dist).evaluate(0.4) for row in rows])


def _assert_matches_fits(spec, got, want):
    # the row-axis formulas give each fit's value bit for bit
    assert got.tobytes() == want.tobytes(), spec


@pytest.mark.parametrize("spec", _NORMALITY_SPECS, ids=lambda s: s["kind"])
def test_normality_values_equal_the_per_row_fits(beta33, spec):
    want = _per_row_fits(spec, beta33, 200, 4)
    got = normality_experiment(beta33, spec, 0.4, 500, 200, master_seed=4).values
    _assert_matches_fits(spec, got, want)


@pytest.mark.parametrize("spec", _NORMALITY_SPECS, ids=lambda s: s["kind"])
def test_normality_chunks_equal_the_per_row_fits(beta33, spec, monkeypatch):
    # seven rows in chunks of 3, 3 and 1: the budget is set from the width
    # the evaluation asks for, which a spy on the chunker records
    want = _per_row_fits(spec, beta33, 7, 6)
    chunker = estimators._in_chunks
    calls = []

    def spy(fn, items, width):
        sizes = []
        calls.append((width, sizes))
        return chunker(lambda block: sizes.append(len(block)) or fn(block), items, width)

    monkeypatch.setattr(estimators, "_in_chunks", spy)
    normality_experiment(beta33, spec, 0.4, 500, 7, master_seed=6)
    (width, sizes), = calls
    assert sizes == [7]
    monkeypatch.setattr(estimators, "_ELEMENT_BUDGET", 3 * width)
    got = normality_experiment(beta33, spec, 0.4, 500, 7, master_seed=6).values
    assert calls[-1] == (width, [3, 3, 1])
    _assert_matches_fits(spec, got, want)


def test_bernstein_rows_equal_the_fits_at_a_large_order(beta33):
    # m = 3000 >> n: the rows take one incomplete beta per distinct order, as
    # the fits do, and keep their bits
    spec = {"kind": "bernstein", "m": 3000}
    want = _per_row_fits(spec, beta33, 200, 4)
    got = normality_experiment(beta33, spec, 0.4, 500, 200, master_seed=4).values
    _assert_matches_fits(spec, got, want)


@pytest.mark.parametrize("dist, spec, error, message", [
    ("exp2", {"kind": "bernstein", "m": 10}, ValueError, "sample values must be <= 1.0"),
    ("beta33", {"kind": "szasz"}, ValueError, "missing 'm'"),
    ("beta33", {"kind": "nope"}, ValueError, "unknown estimator kind"),
    ("beta33", {"kind": "szasz", "m": 0}, ValueError, "order m must be a positive integer"),
    ("beta33", {"kind": "szasz", "m": 2.5}, ValueError, "order m must be a positive integer"),
    ("beta33", {"kind": "kernel", "h": float("inf")}, ValueError, "bandwidth must be positive"),
    ("exp2", {"kind": "szasz", "m": 2 ** 52}, ValueError, r"limit 2\*\*53"),
    ("beta33", {"kind": ["szasz"]}, ValueError, "unknown estimator kind"),
    ("beta33", {"kind": "hermite_half", "N": 3, "clip": True}, ValueError,
     "unknown hermite_half spec keys: 'clip'"),
])
def test_normality_experiment_error_paths(request, dist, spec, error, message):
    # the errors the per-row fits raised, from the one spec parser and checks
    with pytest.raises(error, match=message):
        normality_experiment(request.getfixturevalue(dist), spec, 0.4, 50, 20, master_seed=0)


def test_normality_rejects_a_bad_spec_before_drawing(beta33):
    # the spec is parsed first, so the rejected run neither draws nor
    # replaces the kept matrix
    kept = samples_matrix(beta33, 1, 5, 40)
    with pytest.raises(ValueError, match="unknown edf spec keys: 'clip'"):
        normality_experiment(beta33, {"kind": "edf", "clip": True}, 0.4, 60, 20, master_seed=2)
    assert simulation._last_draw[3] is kept


def test_normality_hermite_memory_is_bounded(beta33):
    # the Hermite basis of a chunk of rows holds values and integrals of
    # every order, 2 x 21 x 500 doubles a row.  Chunked by that width the
    # run peaks at 6.1 MB, 4 MB of it the sample matrix.  Counted at
    # n (N + 1) elements a row under a 4,000,000-element budget, a chunk
    # took 380 rows and 64 MB of basis
    tracemalloc.start()
    try:
        normality_experiment(beta33, {"kind": "hermite_half", "N": 20}, 0.4, 500, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_normality_experiment_rejects_empty_sizes(beta33):
    for n, reps in ((500, 0), (500, -1), (0, 100)):
        with pytest.raises(ValueError, match="[nM] must be a positive integer"):
            normality_experiment(beta33, {"kind": "edf"}, 0.4, n, reps, master_seed=0)


def test_normality_smooth_estimator_centering(beta33):
    # with the order growing like c sqrt(n), the centered scaled estimator
    # concentrates around bS(x) / c
    n, c, reps = 500, 4.0, 3000
    m = round(math.sqrt(n) * c)
    res = normality_experiment(beta33, {"kind": "szasz", "m": m}, 0.4, n, reps, master_seed=0)
    scaled = math.sqrt(n) * (res.values - res.reference_mean)
    predicted = pointwise_coeffs(beta33, 0.4).bS / c
    se = scaled.std(ddof=1) / math.sqrt(reps)
    assert abs(scaled.mean() - predicted) <= 3.0 * se


@pytest.mark.slow
def test_szasz_beats_edf_on_every_table_row(exp2, weibull1, weibull2, weibull3):
    # every model/sample-size pair of the benchmark study, M = 1000
    rows = [(exp2, n) for n in (20, 50, 100, 500)]
    rows += [(w, n) for w in (weibull1, weibull2, weibull3) for n in (50, 200)]
    grid = tuple(range(2, 201))
    for dist, n in rows:
        edf_est, _ = mise_monte_carlo(
            ExperimentConfig(dist, "edf", (0,), n=n, M=1000, master_seed=31), 0)
        res = parameter_sweep(
            ExperimentConfig(dist, "szasz", grid, n=n, M=1000, master_seed=31),
            workers=2)
        assert res.argmin_mise < edf_est, (dist.name, n)


def test_hermite_table_value_and_standardization_gain(exp2):
    # at n=500 the truncated-series minimum sits near 3.73e-3 and rescaling
    # the data to unit standard deviation improves it several-fold
    grid = tuple(range(2, 61))
    plain = parameter_sweep(
        ExperimentConfig(exp2, "hermite_half", grid, n=500, M=400, master_seed=7))
    std = parameter_sweep(
        ExperimentConfig(exp2, "hermite_half", grid, n=500, M=400, master_seed=7,
                         standardize=True))
    assert plain.argmin_mise == pytest.approx(3.73e-3, rel=0.15)
    assert std.argmin_mise < plain.argmin_mise


def test_ks_distance_normal_on_exact_normal_sample():
    rng = np.random.Generator(np.random.Philox(key=123))
    v = rng.normal(3.0, 2.0, size=4000)
    assert ks_distance_normal(v, 3.0, 2.0) < 0.03
    assert ks_distance_normal(v, 3.5, 2.0) > 0.05


def test_ks_distance_normal_takes_numbers_not_strings():
    # ["0.1", "0.2"] used to give 0.5398
    for bad in (["0.1", "0.2"], np.array(["0.1"]), [0.1, b"0.2"]):
        with pytest.raises(ValueError, match="^values must be numeric: a string is no number$"):
            ks_distance_normal(bad, 0.0, 1.0)
    want = ks_distance_normal(np.array([0.1, 0.2, 1.0]), 0.0, 1.0)
    assert ks_distance_normal([0.1, 0.2, 1], 0, 1) == want
    assert ks_distance_normal(np.array([1.0, 0.2, 0.1], dtype=object), 0.0, 1.0) == want
