"""Command-line interface: simulate, estimate, benchmark, diagnose.

Every command accepts ``--config`` (an INI file with sections [model],
[em], [mc], [io]) plus one flag per config key it reads, declared once
with its parser in ``panel_io.SCHEMA``.  Flags win over the file; the
merged text of the sections a command reads is what it parses and what
its outputs echo, and the file's other sections are checked but left out.  Exit
codes: 0 success (estimate: converged), 2 usage/configuration error (a
bad value names its ``section.key``), 3 data error, 4 non-convergence,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import MC_EM_OPTIONS, METHODS, ReplicationResult, run_cell, run_diagnostics
from .em import EMOptions, fit
from .metrics import DEFAULT_T_MIN, mse_common
from .panel_io import (
    SCHEMA,
    ConfigError,
    params_to_dict,
    load_config,
    mc_config_from_section,
    model_spec_from_section,
    parse_boolean,
    parse_section,
    read_panel,
    read_truth,
    write_panel,
    write_table,
    write_truth,
)
from .simulate import MCConfig, simulate_panel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGED = 4
EXIT_NUMERIC = 5

# [mc] keys with a flag on simulate, benchmark and diagnose
_MC_FLAGS = ("n", "T", "q", "s", "d", "n1", "nb", "tau", "theta", "mu", "replications", "dist", "seed")


def _add_command(sub, name: str, handler, reads: tuple[str, ...], help: str) -> argparse.ArgumentParser:
    """A subcommand that runs ``handler(args)`` and reads the config sections ``reads``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, reads=reads)
    p.add_argument("--config", type=str, default=None, help="INI config file")
    p.add_argument("--out-dir", type=str, default=None, help="output directory")
    return p


def _add_keys(p: argparse.ArgumentParser, section: str, keys) -> None:
    """One flag per config key: ``--max-iter EM.MAX_ITER`` sets em.max_iter, kept as text."""
    for key in keys:
        flag = {"action": "store_const", "const": "true"} if SCHEMA[section][key] is parse_boolean else {}
        p.add_argument(f"--{key.replace('_', '-')}", dest=f"{section}.{key}", **flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsdfm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nsdfm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = _add_command(sub, "simulate", cmd_simulate, ("mc", "io"),
                         help="generate a benchmark panel plus its truth sidecar")
    _add_keys(p_sim, "mc", _MC_FLAGS)
    p_sim.add_argument("--replication", type=int, default=0, help="replication index to write")

    p_est = _add_command(sub, "estimate", cmd_estimate, ("model", "em", "io"), help="fit the model to a CSV panel")
    p_est.add_argument("--input", type=str, required=True, help="panel CSV path")
    p_est.add_argument("--truth", type=str, default=None, help="truth sidecar for MSE reporting")
    _add_keys(p_est, "model", SCHEMA["model"])
    _add_keys(p_est, "em", ("max_iter", "tolerance"))

    p_bench = _add_command(sub, "benchmark", cmd_benchmark, ("mc", "em", "io"),
                           help="run Monte Carlo cells against the PC competitors")
    _add_keys(p_bench, "mc", _MC_FLAGS + ("cells",))
    _add_keys(p_bench, "io", ("jobs", "format"))

    p_diag = _add_command(sub, "diagnose", cmd_diagnose, ("mc", "io"),
                          help="filter/smoother MSE traces at true parameters")
    _add_keys(p_diag, "mc", _MC_FLAGS)
    p_diag.add_argument("--n-grid", type=str, default="25,100", help="comma list of panel sizes")
    p_diag.add_argument("--horizon", type=int, default=10)
    p_diag.add_argument("--ss-tol", type=float, default=1e-6, help="steady-state flag tolerance")
    return parser


def _sections(args) -> dict[str, dict[str, str]]:
    """The config file's sections with the flags laid over them, checked but kept as text.

    Only the sections the command reads are returned, so they alone are echoed.
    """
    sections = load_config(args.config) if args.config else {}
    for dest, text in vars(args).items():
        if "." in dest and text is not None:
            section, _, key = dest.partition(".")
            parse_section(section, {key: text})
            sections.setdefault(section, {})[key] = text
    return {sec: kv for sec, kv in sections.items() if sec in args.reads}


def _out_dir(args, sections) -> Path:
    out = args.out_dir or sections.get("io", {}).get("out_dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_echo(sections, extra=None) -> dict:
    echo = {f"{sec}.{k}": v for sec, kv in sections.items() for k, v in kv.items()}
    echo["version"] = __version__
    echo.update(extra or {})
    return echo


def cmd_simulate(args) -> int:
    sections = _sections(args)
    cfg = mc_config_from_section(sections.get("mc", {}))
    out = _out_dir(args, sections)
    sim = simulate_panel(cfg, args.replication)
    meta = _config_echo(sections, {
        **{f"mc.{k}": v for k, v in asdict(cfg).items()},
        "replication": args.replication,
    })
    write_panel(out / "panel.csv", sim.panel, metadata=meta)
    write_truth(out / "truth.json", sim)
    print(f"wrote {out / 'panel.csv'} and {out / 'truth.json'} (seed={cfg.seed})")
    return EXIT_OK


def cmd_estimate(args) -> int:
    sections = _sections(args)
    out = _out_dir(args, sections)
    try:
        panel, names, meta = read_panel(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read panel: {exc}", file=sys.stderr)
        return EXIT_DATA

    spec = model_spec_from_section(sections.get("model", {}), panel.n, panel.T)
    model = parse_section("model", sections.get("model", {}))
    options = EMOptions(detrend=model.get("detrend"), standardize=model.get("standardize", False),
                        **parse_section("em", sections.get("em", {})))

    res = fit(spec, panel, options)

    echo = _config_echo(sections, {"input": args.input})
    write_table(out / "chi.csv", names, res.chi.T.tolist(), metadata=echo)
    write_table(out / "factors.csv", [f"f{j}" for j in range(spec.q)], res.smoothed_means[1:, :spec.q].tolist(),
                metadata=echo)
    write_table(out / "loglik.csv", ["iteration", "loglik"],
                [[i, v] for i, v in enumerate(res.loglik_path)], metadata=echo)
    summary = {
        "converged": res.converged,
        "iterations": res.iterations,
        "loglik": res.loglik_path[-1],
        "params": params_to_dict(res.params),
        "config": echo,
    }
    if args.truth:
        try:
            truth = read_truth(args.truth)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read truth sidecar: {exc}", file=sys.stderr)
            return EXIT_DATA
        t_min = parse_section("io", sections.get("io", {})).get("t_min", DEFAULT_T_MIN)
        summary["mse_common"] = mse_common(res.chi, truth["chi"], t_min)
    (out / "estimate.json").write_text(json.dumps(summary), encoding="utf-8")
    msg = "converged" if res.converged else f"NOT converged after {res.iterations} iterations"
    print(f"estimate: {msg}; loglik={res.loglik_path[-1]:.3f}; outputs in {out}")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _parse_cells(text: str, section: dict[str, str]) -> list[MCConfig]:
    """One MCConfig per ';'-separated cell of 'key=value' pairs laid over the [mc] section."""
    cells = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        cell = dict(section)
        for token in chunk.split(","):
            key, _, value = token.partition("=")
            cell[key.strip()] = value.strip()
        cells.append(mc_config_from_section(cell))
    return cells


def _cell_row(cfg: MCConfig, agg: dict) -> dict:
    """One report.csv row, column name -> value; a competitor's column is named by its last word."""
    row = {"n": cfg.n, "T": cfg.T, "n1": cfg.n1, "nb": cfg.nb, "q": cfg.q, "s": cfg.s,
           "dist": cfg.innovation_dist, "tau": cfg.tau}
    for stat in ("mean", "median"):
        for m in METHODS:
            row[f"{stat}_rel_{m.rsplit('_', 1)[1]}"] = agg[f"{stat}_rel_mse_{m}"]
    row.update(failed=agg["failed"], valid=agg["valid_cell"])
    return row


def _replication_row(cfg: MCConfig, rec: ReplicationResult) -> dict:
    """One replications.csv row, column name -> value."""
    return {
        "n": cfg.n, "T": cfg.T, "n1": cfg.n1, "nb": cfg.nb, "dist": cfg.innovation_dist,
        "replication": rec.replication, "mse_em": rec.mse_em,
        **{f"mse_{m}": rec.mse_competitors.get(m, float("nan")) for m in METHODS},
        "converged": rec.converged, "iterations": rec.iterations, "error": rec.error or "",
    }


def cmd_benchmark(args) -> int:
    sections = _sections(args)
    mc = sections.get("mc", {})
    base = mc_config_from_section(mc)
    cells = _parse_cells(mc.get("cells", ""), mc) or [base]
    out = _out_dir(args, sections)
    io = parse_section("io", sections.get("io", {}))
    jobs, t_min = io.get("jobs", 1), io.get("t_min", DEFAULT_T_MIN)
    em_options = replace(MC_EM_OPTIONS, **parse_section("em", sections.get("em", {})))

    cell_rows = []
    replication_rows = []
    reports = []
    for cfg in cells:
        report = run_cell(cfg, em_options=em_options, jobs=jobs, t_min=t_min)
        agg = report.aggregate()
        reports.append({"config": asdict(cfg), **agg})
        cell_rows.append(_cell_row(cfg, agg))
        replication_rows += [_replication_row(cfg, rec) for rec in report.replications]
    echo = _config_echo(sections, {"seed": base.seed, "jobs": jobs, "t_min": t_min})
    (out / "report.json").write_text(json.dumps({"cells": reports, "config": echo}), encoding="utf-8")
    if io.get("format", "csv") != "json":
        write_table(out / "report.csv", list(cell_rows[0]), [list(row.values()) for row in cell_rows],
                    metadata=echo)
    # the header is named by a blank record, so a cell of no replications still writes it
    write_table(out / "replications.csv", list(_replication_row(base, ReplicationResult(0))),
                [list(row.values()) for row in replication_rows], metadata=echo)
    for row in cell_rows:
        print(f"cell n={row['n']} T={row['T']} n1={row['n1']} nb={row['nb']}: "
              f"mean rel MSE levels={row['mean_rel_levels']:.4f} cumulate={row['mean_rel_cumulate']:.4f} "
              f"corrected={row['mean_rel_corrected']:.4f} (failed {row['failed']})")
    if not all(r["valid_cell"] for r in reports):
        print("error: a cell exceeded the failure budget", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_diagnose(args) -> int:
    sections = _sections(args)
    cfg = mc_config_from_section(sections.get("mc", {}))
    out = _out_dir(args, sections)
    try:
        n_grid = tuple(int(tok) for tok in args.n_grid.split(",") if tok.strip())
    except ValueError:
        print(f"error: bad --n-grid {args.n_grid!r}", file=sys.stderr)
        return EXIT_USAGE
    diag = run_diagnostics(cfg, n_grid=n_grid, horizon=args.horizon, tol=args.ss_tol)
    echo = _config_echo(sections, {"seed": cfg.seed, "horizon": args.horizon})
    rows = []
    for n in n_grid:
        d = diag[n]
        for t in range(args.horizon):
            rows.append([n, t + 1, d["tr_pred_over_q"][t], d["tr_filt_over_q"][t], d["tr_smooth_over_q"][t]])
    write_table(out / "diagnose.csv", ["n", "t", "tr_pred_over_q", "tr_filt_over_q", "tr_smooth_over_q"],
                rows, metadata=echo)
    srows = [[n, diag[n]["tr_init_over_q"], diag[n]["tr_filt_scaled"], diag[n]["tr_smooth_scaled"],
              diag[n]["steady_state_t"] if diag[n]["steady_state_t"] is not None else -1]
             for n in n_grid]
    write_table(out / "diagnose_summary.csv",
                ["n", "tr_init_over_q", "tr_filt_scaled", "tr_smooth_scaled", "steady_state_t"],
                srows, metadata=echo)
    for n in n_grid:
        d = diag[n]
        print(f"n={n}: tr(P00)/q={d['tr_init_over_q']:.1f} pred(t={args.horizon})={d['tr_pred_over_q'][-1]:.6f} "
              f"filt={d['tr_filt_over_q'][-1]:.6f} smooth={d['tr_smooth_over_q'][-1]:.6f} "
              f"steady_state_t={d['steady_state_t']}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
