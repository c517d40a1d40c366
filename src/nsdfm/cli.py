"""Command-line interface: simulate, estimate, benchmark, diagnose.

Every command accepts ``--config`` (an INI file with sections [model],
[em], [mc], [io]) plus one flag per config key it reads, built from
``panel_io.SCHEMA``: every key of its [model], [em] and [mc] sections,
with [mc] cells and [io] jobs on benchmark only.  The flags that mirror
no key are ``--config``, ``--out-dir`` (for [io] out_dir, not echoed),
estimate's ``--input`` and ``--truth``, simulate's ``--replication`` and
diagnose's ``--n-grid``.  Flags win over the file; the
merged text of the sections a command reads is what it parses and what
its outputs echo, and the file's other sections are checked but left out.  Exit
codes: 0 success (estimate: converged), 2 usage/configuration error (a
bad value names its ``section.key`` and why), 3 data error, 4 non-convergence,
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
from .benchmark import (DIAGNOSTIC_HORIZON, MC_EM_OPTIONS, METHODS, ReplicationResult, check_fittable, run_cell,
                        run_diagnostics)
from .em import EMOptions, fit
from .metrics import DEFAULT_T_MIN, mse_common
from .model import ModelSpec
from .panel_io import (
    SCHEMA,
    params_to_dict,
    load_config,
    mc_config_from_section,
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


def _add_command(sub, name: str, handler, reads: tuple[str, ...], help: str) -> argparse.ArgumentParser:
    """A subcommand that runs ``handler(args)``, reads the config sections ``reads`` and
    takes a flag per key of its [model], [em] and [mc] sections but [mc] cells."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, reads=reads)
    p.add_argument("--config", type=str, default=None, help="INI config file")
    p.add_argument("--out-dir", type=str, default=None, help="output directory")
    for section in reads:
        if section != "io":
            _add_keys(p, section, [key for key in SCHEMA[section] if key != "cells"])
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
    p_sim.add_argument("--replication", type=int, default=0, help="replication index to write")

    p_est = _add_command(sub, "estimate", cmd_estimate, ("model", "em", "io"), help="fit the model to a CSV panel")
    p_est.add_argument("--input", type=str, required=True, help="panel CSV path")
    p_est.add_argument("--truth", type=str, default=None, help="truth sidecar for MSE reporting")

    # only benchmark runs a grid of cells or worker processes
    p_bench = _add_command(sub, "benchmark", cmd_benchmark, ("mc", "em", "io"),
                           help="run Monte Carlo cells against the PC competitors")
    _add_keys(p_bench, "mc", ("cells",))
    _add_keys(p_bench, "io", ("jobs",))

    p_diag = _add_command(sub, "diagnose", cmd_diagnose, ("mc", "io"),
                          help="filter/smoother MSE traces at true parameters")
    p_diag.add_argument("--n-grid", type=str, default="25,100", help="comma list of panel sizes")
    return parser


def _sections(args: argparse.Namespace) -> dict[str, dict[str, str]]:
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


def _out_dir(args: argparse.Namespace, sections) -> Path:
    out = args.out_dir or sections.get("io", {}).get("out_dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_echo(sections, extra) -> dict:
    echo = {f"{sec}.{k}": v for sec, kv in sections.items() for k, v in kv.items()}
    echo["version"] = __version__
    echo.update(extra)
    return echo


def cmd_simulate(args: argparse.Namespace) -> int:
    sections = _sections(args)
    cfg = mc_config_from_section(sections.get("mc", {}))
    sim = simulate_panel(cfg, args.replication)  # a bad replication raises here, before the output directory is made
    out = _out_dir(args, sections)
    meta = _config_echo(sections, {**{f"mc.{k}": v for k, v in asdict(cfg).items()}, "replication": args.replication})
    write_panel(out / "panel.csv", sim.panel, metadata=meta)
    write_truth(out / "truth.json", sim)
    print(f"wrote {out / 'panel.csv'} and {out / 'truth.json'} (seed={cfg.seed})")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    sections = _sections(args)
    try:
        panel, names = read_panel(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read panel: {exc}", file=sys.stderr)
        return EXIT_DATA

    model = parse_section("model", sections.get("model", {}))
    standardize = model.pop("standardize", False)  # an EMOptions field; the other [model] keys are ModelSpec's
    spec = ModelSpec(n=panel.n, T=panel.T, **{"q": 1, "p": 2, **model})
    options = EMOptions(standardize=standardize, **parse_section("em", sections.get("em", {})))
    truth_chi = None
    if args.truth:  # checked before anything is fitted or written
        try:
            truth_chi = read_truth(args.truth)
            if truth_chi.shape != (panel.n, panel.T):
                raise ValueError(f"its chi is {'x'.join(map(str, truth_chi.shape))}, the panel {panel.n}x{panel.T}")
        except (OSError, ValueError, KeyError) as exc:
            why = f"no key {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: cannot use truth sidecar: {why}", file=sys.stderr)
            return EXIT_DATA
    out = _out_dir(args, sections)
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
    if truth_chi is not None:
        summary["mse_common"] = mse_common(res.chi, truth_chi)
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
           "dist": cfg.dist, "tau": cfg.tau}
    for stat in ("mean", "median"):
        for m in METHODS:
            row[f"{stat}_rel_{m.rsplit('_', 1)[1]}"] = agg[f"{stat}_rel_mse_{m}"]
    row.update(failed=agg["failed"], valid=agg["valid_cell"])
    return row


def _replication_row(cfg: MCConfig, rec: ReplicationResult) -> dict:
    """One replications.csv row, column name -> value."""
    return {
        "n": cfg.n, "T": cfg.T, "n1": cfg.n1, "nb": cfg.nb, "dist": cfg.dist,
        "replication": rec.replication, "mse_em": rec.mse_em,
        **{f"mse_{m}": rec.mse_competitors.get(m, float("nan")) for m in METHODS},
        "converged": rec.converged, "iterations": rec.iterations, "error": rec.error or "",
    }


def cmd_benchmark(args: argparse.Namespace) -> int:
    sections = _sections(args)
    mc = sections.get("mc", {})
    base = mc_config_from_section(mc)
    cells = _parse_cells(mc.get("cells", ""), mc) or [base]
    for cfg in cells:
        check_fittable(cfg)
    out = _out_dir(args, sections)
    jobs = parse_section("io", sections.get("io", {})).get("jobs", 1)
    em_options = replace(MC_EM_OPTIONS, **parse_section("em", sections.get("em", {})))

    cell_rows = []
    replication_rows = []
    reports = []
    for cfg in cells:
        report = run_cell(cfg, em_options=em_options, jobs=jobs)
        agg = report.aggregate()
        reports.append({"config": asdict(cfg), **agg})
        row = _cell_row(cfg, agg)
        cell_rows.append(row)
        replication_rows += [_replication_row(cfg, rec) for rec in report.replications]
        print(f"cell n={row['n']} T={row['T']} n1={row['n1']} nb={row['nb']}: "
              f"mean rel MSE levels={row['mean_rel_levels']:.4f} cumulate={row['mean_rel_cumulate']:.4f} "
              f"corrected={row['mean_rel_corrected']:.4f} (failed {row['failed']})")
    echo = _config_echo(sections, {"seed": base.seed, "jobs": jobs, "t_min": DEFAULT_T_MIN})
    (out / "report.json").write_text(json.dumps({"cells": reports, "config": echo}), encoding="utf-8")
    write_table(out / "report.csv", list(cell_rows[0]), [list(row.values()) for row in cell_rows], metadata=echo)
    # the header is named by a blank record, so a cell of no replications still writes it
    write_table(out / "replications.csv", list(_replication_row(base, ReplicationResult(0))),
                [list(row.values()) for row in replication_rows], metadata=echo)
    if not all(r["valid_cell"] for r in reports):
        print("error: a cell exceeded the failure budget", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    sections = _sections(args)
    cfg = mc_config_from_section(sections.get("mc", {}))
    try:
        n_grid = tuple(int(tok) for tok in args.n_grid.split(",") if tok.strip())
    except ValueError:
        n_grid = ()
    if not n_grid:
        raise ValueError(f"bad --n-grid {args.n_grid!r}: name at least one panel size")
    diag = run_diagnostics(cfg, n_grid=n_grid)  # a bad size raises here, before the output directory is made
    out = _out_dir(args, sections)
    echo = _config_echo(sections, {"seed": cfg.seed, "horizon": DIAGNOSTIC_HORIZON})
    rows, srows = [], []
    for n in n_grid:  # a repeated size repeats its rows
        d = diag[n]
        rows += [[n, t + 1, d["tr_pred_over_q"][t], d["tr_filt_over_q"][t], d["tr_smooth_over_q"][t]]
                 for t in range(DIAGNOSTIC_HORIZON)]
        srows.append([n, d["tr_init_over_q"], d["tr_filt_scaled"], d["tr_smooth_scaled"],
                      d["steady_state_t"] if d["steady_state_t"] is not None else -1])
        print(f"n={n}: tr(P00)/q={d['tr_init_over_q']:.1f} pred(t={DIAGNOSTIC_HORIZON})={d['tr_pred_over_q'][-1]:.6f} "
              f"filt={d['tr_filt_over_q'][-1]:.6f} smooth={d['tr_smooth_over_q'][-1]:.6f} "
              f"steady_state_t={d['steady_state_t']}")
    write_table(out / "diagnose.csv", ["n", "t", "tr_pred_over_q", "tr_filt_over_q", "tr_smooth_over_q"],
                rows, metadata=echo)
    write_table(out / "diagnose_summary.csv",
                ["n", "tr_init_over_q", "tr_filt_scaled", "tr_smooth_scaled", "steady_state_t"],
                srows, metadata=echo)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
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
