"""File formats: panel CSV, truth sidecar, config files, report tables.

Panel files are UTF-8 comma-separated, one column per series and one row
per time period, first row a header of series names, empty cells marking
missing values.  Every other cell must parse to a finite number: ``inf``
or ``nan`` is rejected, not read as a gap.  Lines starting with '#'
before the header carry ``key=value`` metadata, one line per key
(effective configuration and master seed), so every output file records
how to reproduce it; the reader skips them.  Values are printed with 17
significant digits, which round-trips IEEE doubles exactly.

The truth sidecar and parameter outputs are JSON; benchmark tables are
plain CSV with the same metadata convention.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from pathlib import Path

import numpy as np

from .em import EMOptions
from .model import Panel, Params
from .simulate import MCConfig, SimulatedPanel

__all__ = [
    "write_panel",
    "params_to_dict",
    "read_panel",
    "write_truth",
    "read_truth",
    "write_table",
    "load_config",
]


def write_panel(path, panel: Panel, metadata: dict | None = None) -> None:
    """Write a panel in the wide CSV format (rows = t, columns ``series_0``, ``series_1``, ...).

    A missing cell is written empty; the table is :func:`write_table`'s.
    """
    rows = [
        [v if seen else "" for v, seen in zip(values, mask)]
        for values, mask in zip(panel.data.T.tolist(), panel.missing_mask.T.tolist())
    ]
    write_table(path, [f"series_{i}" for i in range(panel.n)], rows, metadata=metadata)


def read_panel(path):
    """Read a wide-format panel CSV; returns (Panel, names).  '#' lines are skipped like blank ones.

    Raises ValueError naming the file line and the column of a cell that
    is neither empty nor a finite number.
    """
    text = Path(path).read_text(encoding="utf-8")
    rows: list[tuple[int, list[str]]] = []
    header: list[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            continue
        if len(cells) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
        rows.append((lineno, cells))
    if header is None or not rows:
        raise ValueError("panel file has no header or no data rows")
    values = np.empty((len(rows), len(header)))  # one row per period, as in the file
    for t, (lineno, cells) in enumerate(rows):
        try:
            values[t] = [float(c or "nan") for c in cells]  # an empty cell is a gap
        except ValueError:  # a blank or a bad cell: read the row cell by cell
            values[t] = [_panel_cell(c, lineno, i, header) for i, c in enumerate(cells)]
            continue
        for i in np.flatnonzero(~np.isfinite(values[t])):
            if cells[i]:  # not a gap but a literal nan or inf
                _panel_cell(cells[i], lineno, i, header)
    return Panel.from_data(values.T), header


def _panel_cell(cell: str, lineno: int, i: int, header: list[str]) -> float:
    """The value of column i's cell on file line ``lineno``: NaN when blank; raises unless a finite number."""
    cell = cell.strip()
    if cell == "":
        return np.nan
    try:
        value = float(cell)
    except ValueError as exc:
        raise ValueError(f"row {lineno}, column {i + 1} ({header[i]}): bad cell {cell!r}") from exc
    if not np.isfinite(value):
        raise ValueError(f"row {lineno}, column {i + 1} ({header[i]}): non-finite cell {cell!r}")
    return value


def params_to_dict(params: Params) -> dict:
    """Every field of ``params`` as nested lists, keyed in field order."""
    out = {}
    for f in dataclasses.fields(Params):
        value = getattr(params, f.name)
        out[f.name] = [a.tolist() for a in value] if isinstance(value, list) else value.tolist()
    return out


def write_truth(path, sim: SimulatedPanel) -> None:
    """Write the ground-truth sidecar of a simulated panel as JSON; the drawn slopes are ``params.beta0``."""
    payload = {
        "config": dataclasses.asdict(sim.config),
        "replication": sim.replication,
        "chi": sim.chi.tolist(),
        "factors": sim.factors.tolist(),
        "xi": sim.xi.tolist(),
        "i1_set": sorted(sim.i1_set),
        "trend_set": sorted(sim.trend_set),
        "rho2": sim.rho2.tolist(),
        "params": params_to_dict(sim.params),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def read_truth(path) -> np.ndarray:
    """The simulated common component chi of a truth sidecar; its other keys are not read."""
    return np.array(json.loads(Path(path).read_text(encoding="utf-8"))["chi"])


def write_table(path, columns: list[str], rows: list[list], metadata: dict | None = None) -> None:
    """Write a CSV table with the '#' metadata block convention.

    Each metadata value is written on its one '#' line: a value spanning
    lines, such as a config value continued on the next line, has its line
    breaks written as spaces.  A float cell is printed with ``%.17g``, any
    other cell as ``str``.  Each row is formatted by one ``%`` with a
    template per sequence of cell types, built once for all rows that share
    it.
    """
    lines = [f"# {k}={' '.join(str(v).splitlines())}" for k, v in (metadata or {}).items()]
    lines.append(",".join(columns))
    templates: dict[tuple, str] = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join("%.17g" if issubclass(tp, float) else "%s" for tp in types)
        lines.append(template % tuple(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# configuration files ------------------------------------------------------


def parse_index_set(text: str) -> frozenset[int]:
    """Parse a comma-separated list of zero-based series indices."""
    return frozenset(int(tok) for tok in text.split(",") if tok.strip())


def parse_boolean(text: str) -> bool:
    """configparser's spellings: 1/yes/true/on and 0/no/false/off, in any case."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not one of {'/'.join(states)}")
    return states[text.lower()]


def parse_finite(text: str) -> float:
    """The float ``text`` spells, which must be finite: ``float`` also reads ``nan`` and ``inf``."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_positive(text: str) -> int:
    """The integer ``text`` spells, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


# The one config schema: section -> key -> parser of the key's text.  The CLI
# builds its flags from it, one per key a command reads, so a flag and its key
# never differ ([mc] cells and [io] jobs are benchmark's; [io] out_dir is --out-dir).
SCHEMA = {
    "model": {
        "q": int, "s": int, "p": int, "idio_i1": parse_index_set, "local_level": parse_index_set,
        "local_trend": parse_index_set, "detrend": parse_index_set, "standardize": parse_boolean,
    },
    "em": {
        "max_iter": int, "tolerance": parse_finite,
        # checked by EMOptions, so a fixed phi below its bound is a bad value of em.phi_policy
        "phi_policy": lambda text: EMOptions(phi_policy=text if text == "estimated" else parse_finite(text)).phi_policy,
    },
    "mc": {
        "n": int, "T": int, "q": int, "s": int, "d": int, "p": int, "n1": int, "nb": int, "tau": parse_finite,
        "theta": parse_finite, "mu": parse_finite, "replications": int, "dist": str, "seed": int, "cells": str,
    },
    "io": {"out_dir": str, "jobs": parse_positive},
}


def parse_section(name: str, section: dict[str, str]) -> dict:
    """Typed values of one config section; a bad section, key or value raises ValueError.

    A bad value's error names its ``section.key`` and the parser's reason.
    """
    if name not in SCHEMA:
        raise ValueError(f"unknown config section [{name}]")
    out = {}
    for key, text in section.items():
        if key not in SCHEMA[name]:
            raise ValueError(f"unknown key {key!r} in section [{name}]")
        try:
            out[key] = SCHEMA[name][key](text)
        except ValueError as exc:
            raise ValueError(f"bad value for {name}.{key}: {text!r} ({exc})") from exc
    return out


def load_config(path) -> dict[str, dict[str, str]]:
    """Parse an INI-style config with sections [model], [em], [mc], [io].

    Every key and value is checked against :data:`SCHEMA`, but the values
    stay the file's text, so an echo writes what the user wrote.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: [mc] T, not t
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"cannot parse config {path}: {exc}") from exc
    out = {section: dict(parser.items(section)) for section in parser.sections()}
    for name, section in out.items():
        parse_section(name, section)
    return out


def mc_config_from_section(section: dict[str, str]) -> MCConfig:
    """Build an MCConfig from an [mc] section, whose keys are its field names (and ``cells``, which it skips).

    A bad key or value raises ``ValueError`` naming it, as does a value
    ``MCConfig`` rejects.
    """
    values = parse_section("mc", section)
    values.pop("cells", None)
    return MCConfig(**values)
