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
from nsdfm.benchmark import DIAGNOSTIC_HORIZON, MC_EM_OPTIONS, METHODS, run_cell
from nsdfm.cli import _parse_cells, build_parser, main
from nsdfm.em import EMOptions, fit
from nsdfm.model import ModelSpec, Panel, Params
from nsdfm.panel_io import (
    SCHEMA,
    load_config,
    mc_config_from_section,
    params_to_dict,
    read_panel,
    read_truth,
    write_panel,
    write_table,
    write_truth,
)
from nsdfm.simulate import MCConfig, simulate_panel
from conftest import random_instance


def _metadata(path) -> dict[str, str]:
    """The ``key=value`` lines a writer puts before a table's header, which ``read_panel`` skips."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {key.strip(): value.strip() for key, _, value in
            (line[1:].partition("=") for line in lines if line.startswith("#"))}


def test_panel_roundtrip_exact(tmp_path, rng):
    data = rng.standard_normal((4, 9))
    data[1, 3] = np.nan
    data[2, 0] = np.nan
    panel = Panel.from_data(data)
    path = tmp_path / "p.csv"
    write_panel(path, panel, metadata={"seed": 7, "note": "x"})
    back, names = read_panel(path)
    np.testing.assert_array_equal(back.missing_mask, panel.missing_mask)
    # bit-exact float round trip through %.17g; both panels hold 0.0 at the gaps
    assert np.array_equal(back.data, panel.data)
    assert _metadata(path) == {"seed": "7", "note": "x"}
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
    assert (len(d["loadings"]), len(d["var_coeffs"])) == (2, 2)
    for f in fields(Params):
        a, b = getattr(params, f.name), d[f.name]
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


@pytest.mark.parametrize("text", ["", "# seed=1\n\n", "a,b\n", "# seed=1\na,b\n\n"],
                         ids=["empty", "metadata_only", "header_only", "header_and_blank"])
def test_panel_without_data_rows_is_rejected(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="panel file has no header or no data rows"):
        read_panel(path)


def test_panel_blank_cells_are_gaps(tmp_path):
    # a blank cell fails the row's one-pass parse, which then reads it cell by cell
    path = tmp_path / "p.csv"
    path.write_text("a,b,c\n1.0, 2.0,\n ,3.0 ,\n")
    panel, _ = read_panel(path)
    np.testing.assert_array_equal(panel.missing_mask, [[True, False], [True, True], [False, False]])
    np.testing.assert_array_equal(panel.data, [[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]])  # a gap holds 0.0


def test_fit_after_csv_round_trip_is_bit_identical(tmp_path):
    # a ragged local-trend panel read back from its CSV must fit to the same
    # bits as the panel in memory, which needs the panel read from the file's
    # transposed rows to be C-ordered like any other: a transposed layout moves the fit
    sim = simulate_panel(MCConfig(n=20, T=40, q=2, s=0, n1=3, nb=3, tau=0.5, seed=12, replications=1), 0)
    rng = np.random.default_rng(12)
    mask = rng.random(sim.x.shape) >= 0.1
    mask[:6, -3:] = False
    panel = Panel.from_data(np.where(mask, sim.x, np.nan))
    others = sorted(set(range(20)) - sim.i1_set)
    spec = replace(sim.spec, idio_i1=sim.i1_set, local_level=frozenset(), local_trend=frozenset(others[:2]))
    path = tmp_path / "panel.csv"
    write_panel(path, panel, metadata={"seed": 12})
    back, _ = read_panel(path)
    assert back.data.flags.c_contiguous and back.missing_mask.flags.c_contiguous
    options = EMOptions(max_iter=8)
    res_csv, res_mem = fit(spec, back, options), fit(spec, panel, options)
    assert np.array_equal(res_csv.chi, res_mem.chi)
    assert np.array_equal(res_csv.loglik_path, res_mem.loglik_path)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mc]\nn = 10\nbanana = 1\n")
    with pytest.raises(ValueError, match="banana"):
        load_config(cfg)
    cfg.write_text("[weird]\nn = 10\n")
    with pytest.raises(ValueError, match="weird"):
        load_config(cfg)
    for section, key in (("mc", "delta"), ("em", "kappa"), ("io", "format"), ("io", "t_min")):  # earlier keys
        cfg.write_text(f"[{section}]\n{key} = 0.2\n")
        with pytest.raises(ValueError, match=key):
            load_config(cfg)
    for key in ("n", "T"):  # [model] takes n and T from the panel
        cfg.write_text(f"[model]\n{key} = 5\n")
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_config(cfg)


def test_config_unreadable_file_rejected(tmp_path):
    # a missing file, a directory and text before any section header each raise one error naming the path
    (tmp_path / "flat.ini").write_text("n = 10\n")
    for path in (tmp_path / "missing.ini", tmp_path, tmp_path / "flat.ini"):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse config {path}: ")):
            load_config(path)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.ini").write_text(block, encoding="utf-8")
    mc = load_config(tmp_path / "readme.ini")["mc"]
    assert mc_config_from_section(mc).T == 100
    cells = _parse_cells(mc["cells"], mc)
    assert [(c.n, c.T, c.q) for c in cells] == [(75, 75, 2), (100, 100, 2), (200, 200, 2)]


def test_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    converged, mse = capsys.readouterr().out.split()
    assert converged == "True" and 0 < float(mse) < np.inf


def test_cells_use_mc_key_names():
    cell = _parse_cells("n=30, q=1, dist=student_t4", {"T": "40"})[0]
    assert (cell.n, cell.T, cell.q, cell.dist) == (30, 40, 1, "student_t4")
    with pytest.raises(ValueError, match="innovation_dist"):
        _parse_cells("innovation_dist=student_t4", {})
    with pytest.raises(ValueError, match="mc.n"):
        _parse_cells("n=ten", {})


def test_mc_config_from_section():
    cfg = mc_config_from_section({"n": "20", "T": "30", "tau": "0", "dist": "student_t4", "seed": "5"})
    assert (cfg.n, cfg.T, cfg.seed, cfg.dist) == (20, 30, 5, "student_t4")
    with pytest.raises(ValueError):
        mc_config_from_section({"n": "ten"})


@pytest.mark.parametrize("mc", [{"n": "10", "T": "20", "seed": "7"},
                                {"n": "10", "T": "20", "dist": "student_t4", "tau": "0", "nb": "3", "seed": "7"}])
def test_simulate_header_is_the_mc_section_of_its_panel(tmp_path, mc):
    # the header names every [mc] key once, and its mc.* lines, read as an [mc] section, draw the same panel
    def simulate(section, out):
        flags = [tok for key, value in section.items() for tok in (f"--{key}", value)]
        assert main(["simulate", *flags, "--replication", "1", "--out-dir", str(out)]) == 0
        panel, _ = read_panel(out / "panel.csv")
        meta = _metadata(out / "panel.csv")
        return {key[3:]: value for key, value in meta.items() if key.startswith("mc.")}, panel.data

    header, x = simulate(mc, tmp_path / "a")
    assert sorted(header) == sorted(set(SCHEMA["mc"]) - {"cells"})
    assert mc_config_from_section(header) == mc_config_from_section(mc)
    again, x_again = simulate(header, tmp_path / "b")
    assert again == header and np.array_equal(x_again, x)


def test_each_config_key_is_its_field_name(tmp_path):
    # a key, its flag and the field it sets share one name, so the sidecars' configs read back as [mc] sections
    assert set(SCHEMA["mc"]) - {"cells"} == {f.name for f in fields(MCConfig)}
    assert set(SCHEMA["em"]) | {"standardize"} == {f.name for f in fields(EMOptions)}  # [model] standardize
    assert set(SCHEMA["model"]) - {"standardize"} <= {f.name for f in fields(ModelSpec)}

    def read_back(config):
        return mc_config_from_section({key: str(value) for key, value in config.items()})

    argv = ["--n", "10", "--T", "20", "--q", "1", "--tau", "0", "--dist", "student_t4", "--seed", "3"]
    cfg = MCConfig(n=10, T=20, q=1, tau=0.0, dist="student_t4", seed=3)
    assert main(["simulate", *argv, "--out-dir", str(tmp_path / "sim")]) == 0
    assert read_back(json.loads((tmp_path / "sim" / "truth.json").read_text())["config"]) == cfg
    assert main(["benchmark", *argv, "--replications", "1", "--max-iter", "2", "--cells", "n=12;dist=gaussian,s=1",
                 "--out-dir", str(tmp_path / "bench")]) in (0, 5)
    report = json.loads((tmp_path / "bench" / "report.json").read_text())
    cells = [replace(cfg, n=12, replications=1), replace(cfg, dist="gaussian", s=1, replications=1)]
    assert [read_back(cell["config"]) for cell in report["cells"]] == cells


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--n", "10", "--T", "20", "--tau", "0", "--seed", "7"]
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
    panel, names = read_panel(out1 / "panel.csv")
    assert panel.n == 10 and panel.T == 20
    # header + n*T data cells
    body = [l for l in (out1 / "panel.csv").read_text().splitlines() if l and not l.startswith("#")]
    assert len(body) == 21
    assert sum(len(l.split(",")) for l in body[1:]) == 200
    assert read_truth(out1 / "truth.json").shape == (10, 20)


def test_cli_simulate_rejects_single_period(tmp_path, capsys):
    # T < 3 is a configuration error: one line naming T, exit 2, no panel written
    for T in ("1", "2"):
        assert main(["simulate", "--n", "10", "--T", T, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"T={T}" in err
        assert not (tmp_path / "panel.csv").exists()


def test_truth_with_rho_from_older_versions_still_loads(tmp_path):
    # only chi is read: older versions also wrote the known idiosyncratic roots as params.rho (1 on
    # i1_set, 0 elsewhere), and later ones the slopes again as the top-level beta0 and as trend = beta0 * t
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--n", "12", "--T", "30", "--q", "1", "--n1", "3", "--nb", "3", "--tau", "0",
                 "--seed", "8", "--out-dir", str(sim_dir)]) == 0
    new = json.loads((sim_dir / "truth.json").read_text())
    assert list(new) == ["config", "replication", "chi", "factors", "xi", "i1_set", "trend_set", "rho2", "params"]
    assert "rho" not in new["params"]
    beta0 = np.array(new["params"]["beta0"])
    assert np.count_nonzero(beta0) == 3
    old = {
        "rho": {**new, "params": {**new["params"], "rho": [float(i in new["i1_set"]) for i in range(12)]}},
        "trend": {**new, "trend": (beta0[:, None] * np.arange(1, 31)).tolist(), "beta0": beta0.tolist()},
        "chi alone": {"chi": new["chi"]},
    }
    mse = []
    for name, sidecar in [("truth.json", None), *old.items()]:
        path = sim_dir / name
        if sidecar is not None:
            path.write_text(json.dumps(sidecar))
        assert np.array_equal(read_truth(path), new["chi"])
        out = tmp_path / f"est {name}"
        assert main(["estimate", "--input", str(sim_dir / "panel.csv"), "--truth", str(path),
                     "--q", "1", "--max-iter", "5", "--out-dir", str(out)]) in (0, 4)
        mse.append(json.loads((out / "estimate.json").read_text())["mse_common"])
    assert mse == mse[:1] * 4


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
    chi, names = read_panel(est_dir / "chi.csv")
    assert chi.data.shape == (20, 40)


def test_cli_estimate_fits_one_factor_and_a_var2_when_model_omits_q_and_p(tmp_path):
    out = tmp_path / "out"
    argv = ["estimate", "--input", str(_small_panel(tmp_path)), "--max-iter", "5", "--out-dir", str(out)]
    assert main(argv) in (0, 4)
    params = json.loads((out / "estimate.json").read_text())["params"]
    assert [np.shape(B) for B in params["loadings"]] == [(12, 1)]
    assert len(params["var_coeffs"]) == 2


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
    chi, _ = read_panel(tmp_path / "out" / "chi.csv")
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
    assert cell["elapsed_seconds"] > 0


def test_a_config_value_continued_on_the_next_line_keeps_to_its_metadata_line(tmp_path):
    # configparser joins a continuation line to its value with a line break; echoed as it is, the
    # bare "n=12,T=20" line would end the '#' block, and read_panel would take it for the header
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mc]\nn = 10\nT = 20\nq = 1\ntau = 0\nreplications = 1\nseed = 3\n"
                   "cells = n=10,T=20;\n  n=12,T=20\n")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "sim")]) == 0
    assert _metadata(tmp_path / "sim" / "panel.csv")["mc.cells"] == "n=10,T=20; n=12,T=20"
    assert main(["estimate", "--input", str(tmp_path / "sim" / "panel.csv"), "--out-dir", str(tmp_path / "est")]) == 0
    assert main(["benchmark", "--config", str(cfg), "--out-dir", str(tmp_path / "bench")]) == 0
    lines = (tmp_path / "bench" / "report.csv").read_text().splitlines()
    k = sum(line.startswith("#") for line in lines)
    assert all(line.startswith("#") for line in lines[:k])
    assert lines[k].split(",")[:2] == ["n", "T"] and len(lines) == k + 3  # the header, then one row per cell


def test_cli_diagnose_smoke(tmp_path):
    rc = main(["diagnose", "--n", "30", "--T", "40", "--q", "2", "--s", "1",
               "--replications", "3", "--seed", "2", "--n-grid", "10,30",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "diagnose.csv").read_text()
    assert "tr_pred_over_q" in text
    summary = (tmp_path / "diagnose_summary.csv").read_text()
    assert "steady_state_t" in summary


def test_cli_diagnose_repeated_size_repeats_its_rows(tmp_path, capsys):
    rc = main(["diagnose", "--T", "30", "--replications", "2", "--seed", "2", "--n-grid", "10,20,10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    table = _read_rows(tmp_path / "diagnose.csv")
    summary = _read_rows(tmp_path / "diagnose_summary.csv")
    printed = capsys.readouterr().out.splitlines()
    h = DIAGNOSTIC_HORIZON
    assert [row[0] for row in table] == ["10"] * h + ["20"] * h + ["10"] * h and table[:h] == table[2 * h:]
    assert [row[0] for row in summary] == ["10", "20", "10"] and summary[0] == summary[2]
    assert [line.split(":")[0] for line in printed] == ["n=10", "n=20", "n=10"] and printed[0] == printed[2]


def _read_rows(path) -> list[list[str]]:
    """The data rows of a table ``write_table`` wrote: no metadata lines, no header."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mc]\nnot_a_key = 3\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_cli_benchmark_only_flags_rejected_elsewhere(tmp_path):
    # only benchmark runs workers or a grid of cells
    for flag, value in (("--jobs", "2"), ("--cells", "n=12")):
        rc = main(["simulate", "--n", "10", "--T", "20", "--tau", "0", flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
    assert not (tmp_path / "panel.csv").exists()
    # the fit draws no random numbers, so estimate takes no seed
    rc = main(["estimate", "--input", str(tmp_path / "p.csv"), "--seed", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark", "diagnose"])
def test_cli_flags_are_the_schema_keys(command):
    # every key of a command's [model], [em] and [mc] sections has a flag; cells and jobs are benchmark's
    args = vars(build_parser().parse_args([command] + (["--input", "p.csv"] if command == "estimate" else [])))
    expected = {f"{section}.{key}" for section in args["reads"] if section != "io" for key in SCHEMA[section]}
    if command == "benchmark":
        expected.add("io.jobs")
    else:
        expected.discard("mc.cells")
    assert {dest for dest in args if "." in dest} == expected


def test_cli_removed_flags_rejected(tmp_path):
    # the cell table is always CSV, and diagnose runs at run_diagnostics' horizon and tolerance
    for argv in (["benchmark", "--format", "json"], ["diagnose", "--horizon", "5"], ["diagnose", "--ss-tol", "1e-5"]):
        assert main(argv + ["--n", "10", "--T", "20", "--replications", "1", "--out-dir", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_cli_entrypoint_subprocess(tmp_path):
    # console entry through python -m equivalent path, importing the package this process imported
    src = str(Path(nsdfm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nsdfm.cli import main; sys.exit(main(['--version']))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0


def _small_panel(tmp_path):
    """Writes p.csv and truth.json of a 12 x 30 simulated panel; returns the panel's path."""
    sim = simulate_panel(MCConfig(n=12, T=30, q=1, s=0, tau=0.0, seed=4, replications=1), 0)
    write_panel(tmp_path / "p.csv", sim.panel)
    write_truth(tmp_path / "truth.json", sim)
    return tmp_path / "p.csv"


def test_cli_standardize_key_takes_boolean_spellings(tmp_path, capsys):
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
    err = capsys.readouterr().err
    assert "bad value for model.standardize: 'maybe' (not one of 1/yes/true/on/0/no/false/off)" in err


@pytest.mark.parametrize("case, named", [
    ("missing", "No such file"),
    ("14 series", "its chi is 14x30, the panel 12x30"),
    ("no chi", "cannot use truth sidecar: no key 'chi'"),
])
def test_cli_estimate_bad_truth_sidecar_writes_nothing(tmp_path, capsys, case, named):
    # the sidecar is read and checked against the panel before the fit runs or any output is written
    panel = _small_panel(tmp_path)
    truth = tmp_path / "truth.json"
    if case == "missing":
        truth.unlink()
    elif case == "14 series":
        write_truth(truth, simulate_panel(MCConfig(n=14, T=30, q=1, s=0, tau=0.0, seed=4), 0))
    else:
        d = json.loads(truth.read_text())
        del d["chi"]
        truth.write_text(json.dumps(d))
    rc = main(["estimate", "--input", str(panel), "--truth", str(truth), "--q", "1",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("em", "tolerance", "abc"),
    ("io", "jobs", "two"),
    # float() reads nan and inf, and a NaN passes every bound check written with <=
    ("mc", "theta", "nan"), ("mc", "tau", "nan"), ("mc", "mu", "inf"),
    ("em", "phi_policy", "nan"), ("em", "tolerance", "nan"), ("em", "tolerance", "-inf"),
])
def test_cli_bad_config_value_rejected_and_named(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    rc = main(["benchmark", "--n", "15", "--T", "25", "--q", "1",
               "--replications", "1", "--seed", "2", "--config", str(cfg),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    with pytest.raises(ValueError) as why:  # the parser's reason closes the line
        SCHEMA[section][key](value)
    assert f"bad value for {section}.{key}: {value!r} ({why.value})\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        load_config(cfg)


@pytest.mark.parametrize("argv, named", [
    (["estimate", "--q", "200"], "q must satisfy"),
    (["estimate", "--detrend", "500"], "detrend contains indices"),
    (["estimate", "--idio-i1", "1,2", "--local-level", "2"], "in both idio_i1 and local_level"),
    (["simulate", "--mu", "1.5"], "mu must be"),
    (["simulate", "--tau", "-2"], "tau must be"),
    (["benchmark", "--replications", "0"], "replications must be"),
    (["diagnose", "--mu", "1"], "mu must be"),
    (["benchmark", "--n", "10", "--T", "20", "--replications", "2", "--p", "0"], "p must be >= 1, got p=0"),
    (["simulate", "--p", "0"], "p must be >= 1"),
    (["simulate", "--n1", "-1"], "n1 must be in [0, n)"),
    (["simulate", "--nb", "-2"], "nb must be in [0, n)"),
    (["simulate", "--n", "10", "--nb", "10"], "nb must be in [0, n)"),
    (["diagnose", "--n-grid", ""], "bad --n-grid"),
    (["diagnose", "--n-grid", ",,"], "bad --n-grid"),
    (["benchmark", "--jobs", "0"], "bad value for io.jobs: '0' (0 is below 1)"),
    (["benchmark", "--jobs", "-3"], "bad value for io.jobs: '-3' (-3 is below 1)"),
    (["simulate", "--n", "0"], "q must satisfy 0 < q < n, got q=2 with n=0"),
    (["diagnose", "--n-grid", "-5"], "q must satisfy 0 < q < n, got q=2 with n=-5"),
    (["simulate", "--n", "8", "--T", "20", "--seed", "-1"], "seed must be >= 0, got seed=-1"),
    (["simulate", "--n", "8", "--T", "20", "--replication", "-1"], "replication must be >= 0, got replication=-1"),
    (["diagnose", "--seed", "-1"], "seed must be >= 0, got seed=-1"),
    (["benchmark", "--n", "8", "--T", "20", "--seed", "-1", "--replications", "2", "--max-iter", "2"],
     "seed must be >= 0, got seed=-1"),
    (["benchmark", "--n", "8", "--T", "4", "--replications", "2", "--max-iter", "2"],
     "T must be >= p*q + p + 1 = 7 to fit a VAR(p) on q factors, got T=4 with p=2, q=2"),
    (["benchmark", "--n", "3", "--T", "30", "--q", "2", "--s", "1", "--replications", "2", "--max-iter", "2"],
     "q*(s+1) must be <= min(n, T-1) for the levels PCA, got q=2, s=1, n=3, T=30"),
    (["benchmark", "--n", "8", "--T", "20", "--q", "1", "--replications", "1", "--cells", "T=20;T=3,s=1,p=1"],
     "T must be >= s*q + s + 2 = 4 to fit lagged loadings, got T=3 with s=1, q=1"),
    (["simulate", "--dist", "cauchy"], "dist must be gaussian or student_t4, got dist='cauchy'"),
    (["estimate", "--phi-policy", "1e-12"],
     "bad value for em.phi_policy: '1e-12' (a fixed phi_policy must be finite and at least 1e-09, got 1e-12)"),
])
def test_cli_rejected_spec_or_cell_writes_nothing(tmp_path, capsys, argv, named):
    # the spec, the options and the cells are built before the output directory is made
    if argv[0] == "estimate":
        argv = argv + ["--input", str(_small_panel(tmp_path))]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and named in err
    assert not (tmp_path / "out").exists()


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
    # the CLI fits with the Monte Carlo EM options MC_EM_OPTIONS, its [em] keys laid over them
    cfg = MCConfig(n=10, T=20, q=1, s=0, tau=0.0, seed=6, replications=2)
    argv = ["benchmark", "--n", "10", "--T", "20", "--q", "1", "--s", "0", "--tau", "0",
            "--replications", "2", "--seed", "6"]
    ini = tmp_path / "c.ini"
    ini.write_text("[em]\ntolerance = 1e-12\n")
    for name, options, extra in (("default", MC_EM_OPTIONS, []),
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
