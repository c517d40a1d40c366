import re

import numpy as np
import pytest

import nsdfm.benchmark
from nsdfm.benchmark import check_fittable, run_cell, run_diagnostics, run_replication
from nsdfm.em import EMOptions
from nsdfm.simulate import MCConfig


def test_replication_record_fields():
    cfg = MCConfig(n=20, T=30, q=1, s=0, tau=0.0, seed=4, replications=2)
    rec = run_replication(cfg, 0, EMOptions(max_iter=20))
    assert rec.error is None
    assert rec.mse_em > 0
    assert set(rec.mse_competitors) == {"pc_levels", "pc_diff_cumulate", "pc_diff_corrected"}
    assert all(v > 0 for v in rec.mse_competitors.values())


def test_replication_fits_at_the_configured_var_order(monkeypatch):
    # the panel's spec is the truth's, a VAR(2); the fit takes the estimator's order config.p
    orders = []
    fit = nsdfm.benchmark.fit
    monkeypatch.setattr(nsdfm.benchmark, "fit", lambda spec, *rest: orders.append(spec.p) or fit(spec, *rest))
    for p in (1, 2, 3):
        rec = run_replication(MCConfig(n=10, T=20, q=1, p=p, tau=0.0, seed=4, replications=1), 0, EMOptions(max_iter=3))
        assert rec.error is None
    assert orders == [1, 2, 3]


def test_cell_aggregation_independent_of_parallelism():
    cfg = MCConfig(n=15, T=25, q=1, s=0, tau=0.0, seed=9, replications=4)
    serial = run_cell(cfg, EMOptions(max_iter=15), jobs=1)
    parallel = run_cell(cfg, EMOptions(max_iter=15), jobs=2)
    a, b = serial.aggregate(), parallel.aggregate()
    for key in a:
        if key == "elapsed_seconds":
            continue
        if isinstance(a[key], float) and np.isfinite(a[key]):
            assert a[key] == b[key], key
        else:
            assert a[key] == b[key]


def test_failed_replication_is_recorded_not_dropped():
    # T = 4 is below the T >= p*q + p + 1 = 7 a VAR(2) prefit on 2 factors needs, so every fit fails
    bad = MCConfig(n=10, T=4, q=2, s=0, p=2, tau=0.0, seed=1, replications=3)
    report = run_cell(bad, EMOptions(max_iter=5), jobs=1)
    assert [rec.error for rec in report.replications] == ["ValueError: T=4 too small for a VAR(2) on 2 factors"] * 3
    agg = report.aggregate()
    assert agg["failed"] == bad.replications == 3 and not agg["valid_cell"]

    cfg = MCConfig(n=10, T=20, q=2, s=0, tau=0.0, seed=1, replications=2)
    rec = run_replication(cfg, 0, EMOptions(max_iter=1, tolerance=1e-12))
    assert rec.error is None  # a short run is not a failure


# each bound of check_fittable: the cell at it, which fits, and the cell one step past it, which no replication
# can fit, with the message check_fittable names it by and the error a replication fails with
@pytest.mark.parametrize("cell, named, fails", [
    (dict(n=8, T=7, q=2, p=2), None, None),
    (dict(n=8, T=6, q=2, p=2), "T must be >= p*q + p + 1 = 7", "too small for a VAR(2) on 2 factors"),
    (dict(n=8, T=4, q=1, s=1, p=1), None, None),
    (dict(n=8, T=3, q=1, s=1, p=1), "T must be >= s*q + s + 2 = 4", "too few periods to fit lagged loadings"),
    (dict(n=4, T=30, q=2, s=1), None, None),
    (dict(n=3, T=30, q=2, s=1), "q*(s+1) must be <= min(n, T-1)", "rank below r=4"),
    (dict(n=10, T=7, q=3, s=1, p=1), None, None),
    (dict(n=10, T=6, q=3, s=1, p=1), "q*(s+1) must be <= min(n, T-1)", "rank below r=6"),
])
def test_check_fittable_bounds_are_the_pipelines(cell, named, fails):
    cfg = MCConfig(tau=0.0, seed=1, replications=1, **cell)
    rec = run_replication(cfg, 0, EMOptions(max_iter=5))
    if named is None:
        check_fittable(cfg)
        assert rec.error is None
    else:
        with pytest.raises(ValueError, match=re.escape(named)):
            check_fittable(cfg)
        assert fails in rec.error


def test_diagnostics_shapes():
    cfg = MCConfig(n=40, T=50, q=2, s=1, tau=0.5, seed=3, replications=3)
    diag = run_diagnostics(cfg, n_grid=(10, 40), horizon=8)
    for n in (10, 40):
        assert diag[n]["tr_pred_over_q"].shape == (8,)
        assert diag[n]["tr_filt_over_q"].shape == (8,)
        assert diag[n]["tr_init_over_q"] > 1.0
    # more series pin the factors better
    assert diag[40]["tr_filt_over_q"][-1] < diag[10]["tr_filt_over_q"][-1]


def test_diagnostics_do_not_depend_on_the_estimators_var_order():
    # the truth is a VAR(2) whatever [mc] p says, and diagnostics run at the truth
    diag = {p: run_diagnostics(MCConfig(n=10, T=30, q=2, p=p, seed=3, replications=2), n_grid=(10,), horizon=5)
            for p in (1, 2, 3)}
    for p in (1, 3):
        assert diag[p][10].keys() == diag[2][10].keys()
        for key, value in diag[2][10].items():
            np.testing.assert_array_equal(diag[p][10][key], value, strict=True)


def test_phi_device_leaves_factor_mse_unaffected():
    # extra latent states behind a tiny measurement variance change the
    # true-parameter factor MSE by less than 10 percent
    traces = {}
    for n1 in (0, 25):
        cfg = MCConfig(n=100, T=100, q=2, s=0, n1=n1, nb=0, tau=0.5, seed=31, replications=30)
        d = run_diagnostics(cfg, n_grid=(100,), horizon=10)[100]
        traces[n1] = d["tr_filt_over_q"][-1]
    rel = abs(traces[25] - traces[0]) / traces[0]
    assert rel < 0.10, traces
