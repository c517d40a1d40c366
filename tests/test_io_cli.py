import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import nsdfm
from nsdfm.benchmark import MC_EM_OPTIONS, METHODS, run_cell
from nsdfm.cli import _parse_cells, main
from nsdfm.em import EMOptions, fit
from nsdfm.metrics import mse_common
from nsdfm.model import Panel, Params
from nsdfm.panel_io import (
    ConfigError,
    load_config,
    mc_config_from_section,
    params_from_dict,
    params_to_dict,
    read_panel,
    read_truth,
    write_panel,
    write_table,
    write_truth,
)
from nsdfm.simulate import MCConfig, simulate_panel
from conftest import random_instance


def test_panel_roundtrip_exact(tmp_path, rng):
    data = rng.standard_normal((4, 9))
    data[1, 3] = np.nan
    data[2, 0] = np.nan
    panel = Panel.from_data(data)
    path = tmp_path / "p.csv"
    write_panel(path, panel, metadata={"seed": 7, "note": "x"})
    back, names, meta = read_panel(path)
    np.testing.assert_array_equal(back.missing_mask, panel.missing_mask)
    # bit-exact float round trip through %.17g
    assert np.array_equal(
        np.where(panel.missing_mask, panel.data, 0.0),
        np.where(back.missing_mask, back.data, 0.0),
    )
    assert meta["seed"] == "7"
    assert names == [f"series_{i}" for i in range(4)]


def test_write_table_equals_per_cell_formatting(tmp_path):
    # floats (numpy's too) print with %.17g, every other cell with str; rows
    # of different cell types share a table, as in the benchmark report
    rows = [
        [0, -0.0, 1e-300, 0.1, "x", True],
        [1, np.float64(0.1), float("nan"), float("-inf"), "", False],
        [10**20, 5e-324, -1.7976931348623157e308, 3, 1.0, None],
        [2, 0.30000000000000004],
        [],
    ]
    path = tmp_path / "t.csv"
    write_table(path, ["i", "a", "b", "c", "d", "e"], rows, metadata={"seed": 3})
    expected = ["# seed=3", "i,a,b,c,d,e"] + [
        ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) for row in rows
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert expected[2] == "0,-0,1e-300,0.10000000000000001,x,True"


def test_write_panel_equals_per_cell_formatting(tmp_path):
    # rows are periods, an observed cell prints with %.17g and a gap is empty;
    # period 2 is fully missing and period 3 fully observed
    data = np.array([
        [-0.0, 1e-300, np.nan, 0.1, 7.0],
        [np.nan, 5e-324, np.nan, -2.5, np.nan],
        [3.0, np.nan, np.nan, 1e300, -1.7976931348623157e308],
    ])
    panel = Panel.from_data(data)
    path = tmp_path / "p.csv"
    write_panel(path, panel, metadata={"seed": 4})
    expected = ["# seed=4", "series_0,series_1,series_2"] + [
        ",".join("%.17g" % data[i, t] if panel.missing_mask[i, t] else "" for i in range(3)) for t in range(5)
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    assert expected[2:5] == ["-0,,3", "1e-300,4.9406564584124654e-324,", ",,"]


def test_params_dict_round_trip_keeps_every_field_in_order(rng):
    spec, params = random_instance(rng, n=5, T=6, q=2, s=1, p=2)
    d = json.loads(json.dumps(params_to_dict(params)))
    assert list(d) == [f.name for f in fields(Params)]
    back = params_from_dict(d)
    assert (len(back.loadings), len(back.var_coeffs)) == (2, 2)
    for f in fields(Params):
        a, b = getattr(params, f.name), getattr(back, f.name)
        if isinstance(a, list):
            assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b)), f.name
        else:
            assert np.array_equal(a, b), f.name


def test_panel_parse_error_reports_position(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="column 2"):
        read_panel(tmp_path / "bad.csv")


@pytest.mark.parametrize("cell, error", [("oops", "bad cell 'oops'"), ("inf", "non-finite cell 'inf'"),
                                         (" nan ", "non-finite cell 'nan'"), ("1,2", "expected 2 cells, got 3")])
def test_panel_errors_name_the_file_line(tmp_path, cell, error):
    # two metadata lines and a blank line precede the header: the bad cell is on line 6
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed=1\n# note=x\n\na,b\n1.0, 2.0\n1.0,{cell}\n")
    where = "row 6" if "expected" in error else "row 6, column 2 (b)"
    with pytest.raises(ValueError, match=re.escape(f"{where}: {error}")):
        read_panel(path)


def test_panel_blank_cells_are_gaps(tmp_path):
    # a blank cell fails the row's one-pass parse, which then reads it cell by cell
    path = tmp_path / "p.csv"
    path.write_text("a,b,c\n1.0, 2.0,\n ,3.0 ,\n")
    panel, _, _ = read_panel(path)
    np.testing.assert_array_equal(panel.missing_mask, [[True, False], [True, True], [False, False]])
    np.testing.assert_array_equal(panel.data[:2], [[1.0, np.nan], [2.0, 3.0]])


def test_fit_after_csv_round_trip_is_bit_identical(tmp_path):
    # a ragged local-trend panel read back from its CSV must fit to the same
    # bits as the panel in memory, which needs read_panel to return C-ordered
    # arrays like any other panel: a transposed layout moves the fit
    sim = simulate_panel(MCConfig(n=20, T=40, q=2, s=0, n1=3, nb=3, tau=0.5, seed=12, replications=1), 0)
    rng = np.random.default_rng(12)
    mask = rng.random(sim.x.shape) >= 0.1
    mask[:6, -3:] = False
    panel = Panel.from_data(np.where(mask, sim.x, np.nan))
    others = sorted(set(range(20)) - sim.i1_set)
    spec = replace(sim.spec, idio_i1=sim.i1_set, local_level=frozenset(), local_trend=frozenset(others[:2]))
    path = tmp_path / "panel.csv"
    write_panel(path, panel, metadata={"seed": 12})
    back, _, _ = read_panel(path)
    assert back.data.flags.c_contiguous and back.missing_mask.flags.c_contiguous
    options = EMOptions(max_iter=8)
    res_csv, res_mem = fit(spec, back, options), fit(spec, panel, options)
    assert np.array_equal(res_csv.chi, res_mem.chi)
    assert np.array_equal(res_csv.loglik_path, res_mem.loglik_path)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mc]\nn = 10\nbanana = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(cfg)
    cfg.write_text("[weird]\nn = 10\n")
    with pytest.raises(ConfigError, match="weird"):
        load_config(cfg)
    for section, key in (("mc", "delta"), ("em", "kappa")):  # keys of earlier versions
        cfg.write_text(f"[{section}]\n{key} = 0.2\n")
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)
    for key in ("n", "T"):  # [model] takes n and T from the panel
        cfg.write_text(f"[model]\n{key} = 5\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(cfg)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.ini").write_text(block, encoding="utf-8")
    mc = load_config(tmp_path / "readme.ini")["mc"]
    assert mc_config_from_section(mc).T == 100
    cells = _parse_cells(mc["cells"], mc)
    assert [(c.n, c.T, c.q) for c in cells] == [(75, 75, 2), (100, 100, 2), (200, 200, 2)]


def test_cells_use_mc_key_names():
    cell = _parse_cells("n=30, q=1, dist=student_t4", {"T": "40"})[0]
    assert (cell.n, cell.T, cell.q, cell.innovation_dist) == (30, 40, 1, "student_t4")
    with pytest.raises(ConfigError, match="innovation_dist"):
        _parse_cells("innovation_dist=student_t4", {})
    with pytest.raises(ConfigError, match="mc.n"):
        _parse_cells("n=ten", {})


def test_mc_config_from_section():
    cfg = mc_config_from_section({"n": "20", "T": "30", "tau": "0", "dist": "student_t4", "seed": "5"})
    assert (cfg.n, cfg.T, cfg.seed, cfg.innovation_dist) == (20, 30, 5, "student_t4")
    with pytest.raises(ConfigError):
        mc_config_from_section({"n": "ten"})


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--n", "10", "--T", "20", "--tau", "0", "--seed", "7"]
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
    panel, names, meta = read_panel(out1 / "panel.csv")
    assert panel.n == 10 and panel.T == 20
    # header + n*T data cells
    body = [l for l in (out1 / "panel.csv").read_text().splitlines() if l and not l.startswith("#")]
    assert len(body) == 21
    assert sum(len(l.split(",")) for l in body[1:]) == 200
    truth = read_truth(out1 / "truth.json")
    assert truth["chi"].shape == (10, 20)


def test_cli_simulate_rejects_single_period(tmp_path, capsys):
    # T < 3 is a configuration error: one line naming T, exit 2, no panel written
    for T in ("1", "2"):
        assert main(["simulate", "--n", "10", "--T", T, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"T={T}" in err
        assert not (tmp_path / "panel.csv").exists()


def test_truth_with_rho_from_older_versions_still_loads(tmp_path):
    # older versions wrote the known idiosyncratic roots as params.rho: 1 on i1_set, 0 elsewhere
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--n", "12", "--T", "30", "--q", "1", "--n1", "3", "--tau", "0",
                 "--seed", "8", "--out-dir", str(sim_dir)]) == 0
    new = json.loads((sim_dir / "truth.json").read_text())
    assert "rho" not in new["params"]
    old = {**new, "params": {**new["params"], "rho": [float(i in new["i1_set"]) for i in range(12)]}}
    (sim_dir / "truth_old.json").write_text(json.dumps(old))

    truth, truth_old = read_truth(sim_dir / "truth.json"), read_truth(sim_dir / "truth_old.json")
    assert params_to_dict(truth_old["params"]) == params_to_dict(truth["params"])
    mse = []
    for name in ("truth.json", "truth_old.json"):
        out = tmp_path / name
        assert main(["estimate", "--input", str(sim_dir / "panel.csv"), "--truth", str(sim_dir / name),
                     "--q", "1", "--max-iter", "5", "--out-dir", str(out)]) in (0, 4)
        mse.append(json.loads((out / "estimate.json").read_text())["mse_common"])
    assert mse[0] == mse[1]


def test_cli_estimate_roundtrip(tmp_path):
    sim_dir = tmp_path / "sim"
    est_dir = tmp_path / "est"
    assert main(["simulate", "--n", "20", "--T", "40", "--q", "2", "--tau", "0",
                 "--seed", "3", "--out-dir", str(sim_dir)]) == 0
    rc = main(["estimate", "--input", str(sim_dir / "panel.csv"),
               "--truth", str(sim_dir / "truth.json"),
               "--q", "2", "--s", "0", "--p", "2",
               "--out-dir", str(est_dir)])
    assert rc == 0
    summary = json.loads((est_dir / "estimate.json").read_text())
    assert summary["converged"]
    assert summary["mse_common"] < 1.0
    # the intercepts and slopes are written once, under params
    assert "trend_alpha" not in summary and "trend_beta" not in summary
    assert {"alpha0", "beta0"} <= set(summary["params"])
    chi, names, meta = read_panel(est_dir / "chi.csv")
    assert chi.data.shape == (20, 40)


def test_cli_estimate_accepts_missing_cells(tmp_path):
    cfg = MCConfig(n=15, T=30, q=1, s=0, tau=0.0, seed=11, replications=1)
    sim = simulate_panel(cfg, 0)
    x = sim.x.copy()
    x[2, 5] = np.nan
    x[7, 20] = np.nan
    write_panel(tmp_path / "p.csv", Panel.from_data(x))
    rc = main(["estimate", "--input", str(tmp_path / "p.csv"), "--q", "1",
               "--out-dir", str(tmp_path / "out")])
    assert rc in (0, 4)
    chi, _, _ = read_panel(tmp_path / "out" / "chi.csv")
    assert np.all(np.isfinite(chi.data))


def test_cli_estimate_rejects_q_geq_n(tmp_path):
    cfg = MCConfig(n=5, T=30, q=1, s=0, tau=0.0, seed=1, replications=1)
    sim = simulate_panel(cfg, 0)
    write_panel(tmp_path / "p.csv", sim.panel)
    rc = main(["estimate", "--input", str(tmp_path / "p.csv"), "--q", "5",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("case, code", [
    ("inf cell", 3),
    ("-INF cell", 3),
    ("NaN cell", 3),
    ("constant series", 0),
    ("T = 3", 2),
    ("n = 1", 2),
    ("q >= n", 2),
])
def test_cli_estimate_exit_code_on_degenerate_panel(tmp_path, capsys, case, code):
    x = simulate_panel(MCConfig(n=12, T=30, q=1, s=0, tau=0.0, seed=4, replications=1), 0).x
    q = 1
    if case == "constant series":
        x[3] = 1.5
    elif case == "T = 3":
        x = x[:, :3]
    elif case == "n = 1":
        x = x[:1]
    elif case == "q >= n":
        x, q = x[:5], 5
    path = tmp_path / "p.csv"
    write_panel(path, Panel.from_data(x))
    if case.endswith(" cell"):  # the text of series 3 at t = 2, which the error calls row 4, column 4
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[3] = case.split()[0]
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    rc = main(["estimate", "--input", str(path), "--q", str(q), "--out-dir", str(tmp_path / "out")])
    assert rc == code
    if code == 3:
        assert "row 4, column 4" in capsys.readouterr().err


def test_cli_benchmark_smoke(tmp_path):
    rc = main(["benchmark", "--n", "20", "--T", "30", "--q", "1", "--tau", "0",
               "--replications", "1", "--seed", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "replications.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    cell = report["cells"][0]
    assert cell["failed"] == 0
    assert cell["mean_rel_mse_pc_levels"] > 0


def test_cli_diagnose_smoke(tmp_path):
    rc = main(["diagnose", "--n", "30", "--T", "40", "--q", "2", "--s", "1",
               "--replications", "3", "--seed", "2", "--n-grid", "10,30",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "diagnose.csv").read_text()
    assert "tr_pred_over_q" in text
    summary = (tmp_path / "diagnose_summary.csv").read_text()
    assert "steady_state_t" in summary


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mc]\nnot_a_key = 3\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_cli_benchmark_only_flags_rejected_elsewhere(tmp_path):
    # only benchmark runs workers or writes a cell table
    for flag, value in (("--jobs", "2"), ("--format", "json")):
        rc = main(["simulate", "--n", "10", "--T", "20", "--tau", "0", flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
    assert not (tmp_path / "panel.csv").exists()
    # the fit draws no random numbers, so estimate takes no seed
    rc = main(["estimate", "--input", str(tmp_path / "p.csv"), "--seed", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_cli_entrypoint_subprocess(tmp_path):
    # console entry through python -m equivalent path, importing the package this process imported
    src = str(Path(nsdfm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nsdfm.cli import main; sys.exit(main(['--version']))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0


def test_cli_benchmark_json_format(tmp_path):
    rc = main(["benchmark", "--n", "15", "--T", "25", "--q", "1", "--tau", "0",
               "--replications", "1", "--seed", "2", "--format", "json",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["cells"][0]["elapsed_seconds"] > 0
    assert not (tmp_path / "report.csv").exists()


def _small_panel(tmp_path):
    """Writes p.csv and truth.json of a 12 x 30 simulated panel; returns the panel's path."""
    sim = simulate_panel(MCConfig(n=12, T=30, q=1, s=0, tau=0.0, seed=4, replications=1), 0)
    write_panel(tmp_path / "p.csv", sim.panel)
    write_truth(tmp_path / "truth.json", sim)
    return tmp_path / "p.csv"


def test_cli_standardize_key_takes_boolean_spellings(tmp_path):
    panel = _small_panel(tmp_path)
    base = ["estimate", "--input", str(panel), "--q", "1", "--max-iter", "5"]

    def loglik(out, *extra):
        assert main(base + ["--out-dir", str(out), *extra]) in (0, 4)
        return json.loads((out / "estimate.json").read_text())["loglik"]

    flagged = loglik(tmp_path / "flag", "--standardize")
    assert flagged != loglik(tmp_path / "plain")
    cfg = tmp_path / "c.ini"
    for spelling in ("yes", "True", "1", "on"):
        cfg.write_text(f"[model]\nstandardize = {spelling}\n")
        assert loglik(tmp_path / spelling, "--config", str(cfg)) == flagged
    cfg.write_text("[model]\nstandardize = maybe\n")
    assert main(base + ["--config", str(cfg), "--out-dir", str(tmp_path / "maybe")]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("io", "format", "xml"),
    ("em", "tolerance", "abc"),
    ("io", "jobs", "two"),
])
def test_cli_bad_config_value_rejected_and_named(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    rc = main(["benchmark", "--n", "15", "--T", "25", "--q", "1", "--tau", "0",
               "--replications", "1", "--seed", "2", "--config", str(cfg),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(cfg)


def test_cli_estimate_echoes_flags(tmp_path):
    panel = _small_panel(tmp_path)
    out = tmp_path / "out"
    main(["estimate", "--input", str(panel), "--q", "1", "--idio-i1", "1,2", "--max-iter", "7",
          "--out-dir", str(out)])
    header = [l for l in (out / "chi.csv").read_text().splitlines() if l.startswith("#")]
    expected = {"model.q": "1", "model.idio_i1": "1,2", "em.max_iter": "7"}
    for key, value in expected.items():
        assert f"# {key}={value}" in header
    config = json.loads((out / "estimate.json").read_text())["config"]
    assert {k: config[k] for k in expected} == expected


def test_cli_estimate_reads_io_t_min(tmp_path):
    panel = _small_panel(tmp_path)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[io]\nt_min = 20\n")
    main(["estimate", "--input", str(panel), "--truth", str(tmp_path / "truth.json"),
          "--q", "1", "--max-iter", "5", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    chi, _, _ = read_panel(tmp_path / "out" / "chi.csv")
    summary = json.loads((tmp_path / "out" / "estimate.json").read_text())
    truth = read_truth(tmp_path / "truth.json")["chi"]
    assert summary["mse_common"] == mse_common(chi.data, truth, 20) != mse_common(chi.data, truth)


DEMOS = sorted(p.name for p in (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_cli_pipeline_runs(tmp_path, demo):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(nsdfm.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # the warnings pyproject.toml turns into errors fail the demo too
    warn = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-W", "error::FutureWarning"]
    proc = subprocess.run([sys.executable, *warn, str(root / "demos" / demo)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # a demo cleans up the temporary files it makes
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, reads, table", [
    ("simulate", {"mc"}, "panel.csv"),
    ("estimate", {"model", "em"}, "chi.csv"),
    ("benchmark", {"mc", "em"}, "report.csv"),
    ("diagnose", {"mc"}, "diagnose.csv"),
])
def test_cli_echoes_only_the_sections_it_reads(tmp_path, command, reads, table):
    # one config file for every command: each echoes the sections it reads, not the others
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nq = 1\nstandardize = yes\n\n[em]\nmax_iter = 5\n\n"
                   "[mc]\nn = 10\nT = 20\nq = 1\ntau = 0\nreplications = 1\nseed = 3\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out-dir", str(out)]
    if command == "estimate":
        argv += ["--input", str(_small_panel(tmp_path))]
    if command == "diagnose":
        argv += ["--n-grid", "10"]
    assert main(argv) in (0, 4)
    keys = [line[2:].partition("=")[0] for line in (out / table).read_text().splitlines() if line.startswith("# ")]
    assert {key.partition(".")[0] for key in keys if "." in key} == reads


def test_cli_benchmark_rows_equal_run_cell(tmp_path):
    # the CLI fits with run_cell's Monte Carlo EM options, its [em] keys laid over them
    cfg = MCConfig(n=10, T=20, q=1, s=0, tau=0.0, seed=6, replications=2)
    argv = ["benchmark", "--n", "10", "--T", "20", "--q", "1", "--s", "0", "--tau", "0",
            "--replications", "2", "--seed", "6"]
    ini = tmp_path / "c.ini"
    ini.write_text("[em]\ntolerance = 1e-12\n")
    for name, options, extra in (("default", None, []),
                                 ("tight", replace(MC_EM_OPTIONS, tolerance=1e-12), ["--config", str(ini)])):
        out = tmp_path / name
        assert main(argv + extra + ["--out-dir", str(out)]) == 0
        lines = [line for line in (out / "replications.csv").read_text().splitlines()
                 if line and not line.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        expected = [
            [rec.replication, rec.mse_em, *[rec.mse_competitors[m] for m in METHODS], rec.converged, rec.iterations]
            for rec in run_cell(cfg, options).replications
        ]
        assert [[int(r[5]), float(r[6]), *map(float, r[7:10]), r[10] == "True", int(r[11])] for r in rows] == expected
    assert expected[0][-1] == MC_EM_OPTIONS.max_iter  # the tight tolerance runs into the iteration cap
