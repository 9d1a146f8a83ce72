"""Config ingestion, command dispatch, and CSV serialization.

Usage:
    fredkern <command> --config <path> [--lambda re[,im]]
             [--region re0,re1,im0,im1] [--out <dir>]

Commands: solve, det, resolvent, scan, converge, tailnorm.
Exit codes: 0 success, 1 validation or I/O error, 2 numerical obstruction
(characteristic lambda, divergent series).  Each failure writes one
machine-parsable line to stderr.  Every run echoes its fully-defaulted config
next to the outputs so the run can be reproduced bit-identically.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import convergence, fredholm, kernels, quadrature, resolvent
from .errors import (
    BudgetExceededError,
    CharacteristicValueError,
    ConfigError,
    FredkernError,
    NeumannDivergenceError,
    PoleError,
)

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    kernel: kernels.KernelSpec
    truncation: kernels.TruncationScheme
    panels_per_unit: int
    order: int
    blocks: dict
    echo: dict
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# config parsing
#
# A field type is float (a finite number), int (an integer >= 1), complex (a
# finite number or [re, im]), str or bool; a one-item list [t] (a non-empty
# list of t); a tuple of (key, type, default) rows (an object, parsed to a
# dict); a validating dataclass (an object of the dataclass's own fields,
# types and defaults); or a function (value, path) -> parsed value.  Defaults
# are JSON values and are parsed like given ones.  REQUIRED marks a required
# key; it is the dataclasses' own marker for a field without a default.

REQUIRED = MISSING

_EXPECTED = {float: "a finite number", int: "an integer", str: "a string", bool: "a boolean"}


def _parse(kind, value, path):
    """Parse one JSON value as a field type, or raise ConfigError at path."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty list")
        return [_parse(kind[0], v, f"{path}[{j}]") for j, v in enumerate(value)]
    if isinstance(kind, tuple):
        return _fields(kind, value, path)
    if kind in _EXPECTED:
        # bool is an int subclass in Python but not a JSON number.  The abs
        # test rejects NaN, the infinities and integers beyond the float range.
        if (
            isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)
            or kind is float and not abs(value) <= sys.float_info.max
        ):
            raise ConfigError(path, f"expected {_EXPECTED[kind]}")
        if kind is int and value < 1:
            raise ConfigError(path, "must be >= 1")
        return float(value) if kind is float else value
    if kind is complex:
        re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
        return complex(_parse(float, re, path), _parse(float, im, path))
    if is_dataclass(kind):
        return _build(kind, path, **_fields(_dataclass_rows(kind), value, path))
    return kind(value, path)


@functools.cache
def _dataclass_rows(cls):
    """(field name, annotated type, default) rows of a validating dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in fields(cls))


def _fields(rows, value, path):
    """Parse a JSON object (null reads as {}) by its (key, type, default)
    rows into a dict that holds every row's key."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    prefix = f"{path}." if path else ""
    out = {}
    for key, kind, default in rows:
        if key not in value and default is REQUIRED:
            raise ConfigError(prefix + key, "required field is missing")
        out[key] = _parse(kind, value.get(key, default), prefix + key)
    unknown = sorted(set(value) - set(out))
    if unknown:
        raise ConfigError(prefix + unknown[0], "unknown key")
    return out


def _build(cls, path, *args, **kwargs):
    """Construct a validating dataclass; the bare field name of its
    ConfigError gets the config path as prefix."""
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from None


def _rule(kind, ok, message):
    """kind, then a range or membership check on the parsed value."""

    def parse(value, path):
        value = _parse(kind, value, path)
        if not ok(value):
            raise ConfigError(path, message)
        return value

    return parse


def _one_of(kind, options):
    return _rule(kind, lambda v: v in options, f"must be one of {options}")


_TERM = (("coefficient", complex, REQUIRED), ("left", kernels.BasisFn, REQUIRED),
         ("right", kernels.BasisFn, REQUIRED))

# The kernel block's keys after "family" and "label", per family.
_KERNEL_ROWS = {
    kernels.SEPARABLE_SUM: (("hermitian", bool, False), ("terms", [_TERM], REQUIRED)),
    kernels.GAUSS_CAUCHY: (("hermitian", bool, True),),
    kernels.CUSTOM_TABULATED: (("hermitian", bool, False), ("radius", float, REQUIRED),
                               ("values", [[float]], REQUIRED)),
}
_DEFAULT_LABELS = {kernels.GAUSS_CAUCHY: "gauss-cauchy", kernels.CUSTOM_TABULATED: "tabulated"}


def _kernel(value, path):
    family = value.get("family") if isinstance(value, dict) else None
    rows = _KERNEL_ROWS.get(family) if isinstance(family, str) else ()
    if rows is None:
        raise ConfigError(f"{path}.family", f"unknown kernel family {family!r}")
    kd = _fields((("family", str, REQUIRED), ("label", str, "")) + rows, value, path)
    kd["label"] = kd["label"] or _DEFAULT_LABELS.get(family, "")
    return kd


_variant = _one_of(str, kernels.VARIANTS)
_positive = _rule(float, lambda v: v > 0, "must be > 0")
_region = _rule([float], lambda v: len(v) == 4 and v[0] <= v[1] and v[2] <= v[3],
                "expected [re0, re1, im0, im1] with re0 <= re1 and im0 <= im1")

# The command blocks: (block, key, type, default).
FIELDS = (
    ("quadrature", "panels_per_unit", int, 4),
    ("quadrature", "order", _one_of(int, quadrature.SUPPORTED_ORDERS), 8),
    ("det", "n", int, 6),
    ("det", "m_max", _rule(int, lambda v: v <= fredholm.M_MAX, f"must be <= {fredholm.M_MAX}"), 6),
    ("det", "lambda", complex, 0.3),
    ("solve", "n", int, 6),
    ("solve", "lambda", complex, 0.3),
    ("solve", "g", kernels.BasisFn, {"kind": "gauss"}),
    ("resolvent", "n", int, 6),
    ("resolvent", "lambda", complex, 0.3),
    ("resolvent", "eval_radius", _positive, 4.0),
    ("resolvent", "eval_points", _rule(int, lambda v: v >= 2, "must be >= 2"), 33),
    ("resolvent", "variant", _variant, "plain"),
    ("scan", "n", int, 6),
    ("scan", "density", _positive, 4.0),
    ("scan", "region", _region, [0.0, 2.0, -0.5, 0.5]),
    ("converge", "lambda", complex, 0.3),
    ("converge", "n_list", [int], list(range(2, 11))),
    ("converge", "schedule", convergence.ShiftSchedule, {}),
    ("converge", "reference", _one_of(str, convergence.REFERENCES), "neumann_disk"),
    ("converge", "eval_radius", _positive, 6.5),
    ("converge", "variant", _variant, "plain"),
    ("converge", "n_terms", int, 40),
    ("tailnorm", "m", int, 1),
    ("tailnorm", "n_list", [int], list(range(2, 11))),
    ("tailnorm", "variant", _variant, "plain"),
)

# The whole config: the kernel, the truncation scheme, and the blocks above.
_CONFIG = (("kernel", _kernel, REQUIRED), ("truncation", kernels.TruncationScheme, {})) + tuple(
    (block, tuple(row[1:] for row in FIELDS if row[0] == block), {})
    for block in dict.fromkeys(row[0] for row in FIELDS)
)


def _jsonable(value):
    """json.dumps fallback for parsed values: complex numbers as [re, im],
    dataclasses as their fields, which are named like the config keys."""
    return [value.real, value.imag] if isinstance(value, complex) else vars(value)


def parse_config(text: bytes) -> RunConfig:
    """Parse and validate a UTF-8 JSON config, filling documented defaults.

    Unknown keys are rejected with their field path; duplicate keys keep the
    last value and produce a warning line.
    """
    warnings = []

    def hook(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                warnings.append(f"duplicate key {key!r}: last value wins")
            seen[key] = value
        return seen

    try:
        raw = json.loads(text.decode("utf-8"), object_pairs_hook=hook)
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConfigError("config", f"not UTF-8 JSON: {exc}") from None
    for w in warnings:
        logger.warning("config: %s", w)

    blocks = _fields(_CONFIG, raw, "")
    kd = blocks["kernel"]
    terms = tuple((t["coefficient"], t["left"], t["right"]) for t in kd.get("terms", ()))
    kernel = _build(kernels.KernelSpec, "kernel", kd["family"], terms, hermitian=kd["hermitian"],
                    label=kd["label"], table_radius=kd.get("radius", 0.0), table_values=kd.get("values"))
    echo = json.loads(json.dumps(blocks, default=_jsonable))
    quad = blocks["quadrature"]
    cfg = RunConfig(kernel=kernel, truncation=blocks["truncation"], panels_per_unit=quad["panels_per_unit"],
                    order=quad["order"], blocks=blocks, echo=echo, warnings=warnings)
    logger.info("config parsed: %s", json.dumps(echo, sort_keys=True))
    return cfg


# ---------------------------------------------------------------------------
# output


def emit_grid_csv(path, header, rows):
    """Write a rectangular numeric table as CSV: LF line endings, '.' decimal
    separator, floats in scientific notation with 17 significant digits.
    Byte-identical across runs for identical inputs."""
    header = list(header)
    rows = [tuple(r) for r in rows]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(header)}")
    columns = [_text_column(col) for col in zip(*rows)]
    row_format = ",".join(spec for spec, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        # Numbers never need CSV quoting, so each row is one format operation.
        fh.writelines(row_format % row for row in zip(*(cells for _, cells in columns)))


def _text_column(col):
    """A column's printf format and cells: integers in decimal, other numbers
    as 17-digit floats, a column mixing both as preformatted text."""
    kinds = set(map(type, col))
    if any(issubclass(t, (bool, np.bool_)) for t in kinds):
        raise ValueError("boolean cells are not supported")
    ints = {issubclass(t, (int, np.integer)) for t in kinds}
    if ints == {False}:
        return "%.16e", list(map(float, col))
    if ints == {True}:
        return "%d", col
    return "%s", [str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.16e}" for v in col]


# ---------------------------------------------------------------------------
# commands


def _grid(cfg: RunConfig, n: int):
    return quadrature.build_grid(cfg.truncation, n, cfg.panels_per_unit, cfg.order)


# Each command reads its config block (with any --lambda/--region override)
# and returns the file name and named columns of its CSV output, if any.


def _cmd_det(cfg: RunConfig, block):
    n = block["n"]
    m = quadrature.nystrom_matrix(cfg.kernel, cfg.truncation, n, "plain", _grid(cfg, n))
    d = fredholm.det_matrix(m, block["lambda"])
    sys.stdout.write(f"D {d.value.real:.16e} {d.value.imag:.16e}\n")


def _cmd_solve(cfg: RunConfig, block):
    grid = _grid(cfg, block["n"])
    handle = resolvent.make_resolvent(cfg.kernel, cfg.truncation, block["n"], block["lambda"], grid)
    g = block["g"](grid.nodes).astype(complex)
    f = resolvent.solve_equation(handle, g)
    return "solution.csv", {"x": grid.nodes, "f_re": f.real, "f_im": f.imag, "g_re": g.real}


def _cmd_resolvent(cfg: RunConfig, block):
    n = block["n"]
    # The points x points grid may be no larger than an N x N Nystrom matrix at the node ceiling.
    if block["eval_points"] > quadrature.DEFAULT_NODE_CEILING:
        raise BudgetExceededError(
            f"resolvent.eval_points = {block['eval_points']} gives more than "
            f"{quadrature.DEFAULT_NODE_CEILING}^2 grid points"
        )
    handle = resolvent.make_resolvent(
        cfg.kernel, cfg.truncation, n, block["lambda"], _grid(cfg, n), variant=block["variant"]
    )
    pts = np.linspace(-block["eval_radius"], block["eval_radius"], block["eval_points"])
    vals = handle.eval_grid_matrix(pts, pts).ravel()
    s, t = (axis.ravel() for axis in np.meshgrid(pts, pts, indexing="ij"))
    return "resolvent_grid.csv", {"s": s, "t": t, "re": vals.real, "im": vals.imag}


def _cmd_scan(cfg: RunConfig, block):
    n = block["n"]
    result = fredholm.char_scan(
        cfg.kernel, cfg.truncation, n, block["region"], block["density"], _grid(cfg, n)
    )
    zeros = np.array(result.zeros, dtype=complex)
    return "zeros.csv", {"lambda_re": zeros.real, "lambda_im": zeros.imag}


def _cmd_converge(cfg: RunConfig, block):
    r = block["eval_radius"]
    eval_grid = quadrature.grid_on_interval(-r, r, 1, cfg.order)
    report = convergence.resolvent_convergence_diagnostic(
        cfg.kernel, cfg.truncation, block["lambda"], block["schedule"], block["n_list"], eval_grid,
        reference=block["reference"], variant=block["variant"], panels_per_unit=cfg.panels_per_unit,
        order=cfg.order, n_terms=block["n_terms"],
    )
    return "convergence.csv", {
        "n": report.n_values,
        "tau_n": [cfg.truncation.tau(n) for n in report.n_values],
        "sup_T_diff": report.sup_T_diff,
        "sup_row_diff": report.sup_row_diff,
        "sup_col_diff": report.sup_col_diff,
    }


def _cmd_tailnorm(cfg: RunConfig, block):
    n_list = sorted(block["n_list"])
    radius = max(cfg.kernel.tail_radius(), cfg.truncation.tau(max(n_list)) + 1.0)
    disc = quadrature.grid_on_interval(-radius, radius, cfg.panels_per_unit, cfg.order)
    seq = convergence.tail_condition_report(
        cfg.kernel, cfg.truncation, block["m"], n_list, disc, variant=block["variant"]
    )
    taus = [cfg.truncation.tau(n) for n in n_list]
    return "tailnorm.csv", {"n": n_list, "tau_n": taus, "tail_norm": seq}


_DISPATCH = {
    "solve": _cmd_solve,
    "det": _cmd_det,
    "resolvent": _cmd_resolvent,
    "scan": _cmd_scan,
    "converge": _cmd_converge,
    "tailnorm": _cmd_tailnorm,
}
COMMANDS = tuple(_DISPATCH)

# stderr line prefix and exit code per failure, most specific class first.
_FAILURES = (
    (ConfigError, 1, lambda e: f"E_CONFIG {e.path} {e.message}"),
    (CharacteristicValueError, 2, lambda e: f"E_CHARACTERISTIC lambda={e.lam.real:.16e},{e.lam.imag:.16e}"),
    (NeumannDivergenceError, 2, lambda e: (
        f"E_NEUMANN_DIVERGENT lambda={e.lam.real:.16e},{e.lam.imag:.16e} norm={e.norm:.16e}")),
    (PoleError, 2, lambda e: f"E_POLE {e}"),
    (BudgetExceededError, 1, lambda e: f"E_BUDGET {e}"),
    (OSError, 1, lambda e: f"E_IO {e}"),
    (FredkernError, 1, lambda e: f"E_INTERNAL {e}"),
    (Exception, 1, lambda e: f"E_INTERNAL {type(e).__name__}: {e}"),
)


# ---------------------------------------------------------------------------
# argv handling


def _argv_numbers(kind, path):
    """An option value of comma-separated numbers, parsed as config type kind."""

    def parse(text):
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:
            raise ConfigError(path, f"expected comma-separated numbers, got {text!r}") from None
        return _parse(kind, values[0] if len(values) == 1 else values, path)

    return parse


_FLAGS = {
    "--config": str,
    "--out": str,
    "--lambda": _argv_numbers(complex, "argv.lambda"),
    "--region": _argv_numbers(_region, "argv.region"),
}


def _parse_argv(argv):
    command = argv[0] if argv else None
    if command not in COMMANDS:
        raise ConfigError("argv", f"expected a command, one of {', '.join(COMMANDS)}; got {command!r}")
    flags, values = argv[1::2], argv[2::2]
    for flag in flags:
        if flag not in _FLAGS:
            raise ConfigError("argv", f"unknown option {flag!r}")
    if len(values) < len(flags):
        raise ConfigError("argv", f"option {flags[-1]} needs a value")
    opts = {flag[2:]: _FLAGS[flag](value) for flag, value in zip(flags, values)}
    if "config" not in opts:
        raise ConfigError("argv", "--config is required")
    return command, opts


def _apply_thread_cap():
    raw = os.environ.get("FREDKERN_THREADS", "").strip()
    if not raw:
        return
    # Digits read as an int; any other text stays a string, which the int type rejects.
    n = _parse(int, int(raw) if raw.isdigit() else raw, "env.FREDKERN_THREADS")
    # A cap, not a request: never push the pools above machine parallelism.
    n = min(n, os.cpu_count() or 1)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


def run_command(argv) -> int:
    """Run one CLI command; returns the process exit code (0/1/2)."""
    try:
        command, opts = _parse_argv(list(argv))
        _apply_thread_cap()
        try:
            with open(opts["config"], "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("argv.config", f"cannot read config: {exc}") from None
        cfg = parse_config(text)
        out_dir = opts.get("out", ".")
        os.makedirs(out_dir, exist_ok=True)
        # No block has a "config" or "out" key, so opts only overrides lambda/region.
        table = _DISPATCH[command](cfg, {**cfg.blocks[command], **opts})
        if table:
            name, columns = table
            emit_grid_csv(os.path.join(out_dir, name), columns, zip(*columns.values()))
        with open(os.path.join(out_dir, "config_echo.json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(cfg.echo, indent=2, sort_keys=True))
            fh.write("\n")
        return 0
    except Exception as exc:  # keep the exit-code contract even on bugs
        code, line = next((code, line) for cls, code, line in _FAILURES if isinstance(exc, cls))
        sys.stderr.write(line(exc) + "\n")
        return code


def main():
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(message)s")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
