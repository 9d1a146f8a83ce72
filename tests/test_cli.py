"""Config validation, command dispatch, CSV emission, reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredkern as fk
from fredkern.cli import FIELDS, emit_grid_csv, parse_config, run_command
from conftest import gauss_overlap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ECHO = os.path.join(ROOT, "tests", "data", "echo")

RANK1_CONFIG = {
    "kernel": {
        "family": "separable_sum",
        "hermitian": True,
        "label": "rank1-gauss",
        "terms": [
            {
                "coefficient": 1.0,
                "left": {"kind": "gauss", "scale": 1.0, "shift": 0.0},
                "right": {"kind": "gauss", "scale": 1.0, "shift": 0.0},
            }
        ],
    },
    "truncation": {"tau0": 1.0, "growth": "arithmetic", "step": 0.5},
    "quadrature": {"panels_per_unit": 2, "order": 8},
}


def config_bytes(extra=None):
    doc = json.loads(json.dumps(RANK1_CONFIG))
    if extra:
        doc.update(extra)
    return json.dumps(doc).encode()


def write_config(tmp_path, extra=None, name="c.json"):
    path = tmp_path / name
    path.write_bytes(config_bytes(extra))
    return str(path)


def test_parse_minimal_fills_defaults():
    cfg = parse_config(json.dumps({"kernel": RANK1_CONFIG["kernel"]}).encode())
    assert cfg.panels_per_unit == 4
    assert cfg.order == 8
    assert cfg.truncation.tau0 == 1.0
    assert cfg.echo["quadrature"] == {"panels_per_unit": 4, "order": 8}
    assert cfg.echo["det"]["m_max"] == 6


def test_parse_rejects_bad_order():
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"quadrature": {"order": 5}}))
    assert err.value.path == "quadrature.order"


def test_parse_rejects_unknown_keys():
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"bogus": 1}))
    assert err.value.path == "bogus"
    bad_kernel = json.loads(json.dumps(RANK1_CONFIG))
    bad_kernel["kernel"]["wibble"] = True
    with pytest.raises(fk.ConfigError) as err:
        parse_config(json.dumps(bad_kernel).encode())
    assert err.value.path == "kernel.wibble"


def test_parse_rejects_bad_values():
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"truncation": {"tau0": -2.0}}))
    assert err.value.path == "truncation.tau0"
    bad = json.loads(json.dumps(RANK1_CONFIG))
    bad["kernel"]["terms"][0]["left"]["scale"] = 0.0
    with pytest.raises(fk.ConfigError) as err:
        parse_config(json.dumps(bad).encode())
    assert err.value.path == "kernel.terms[0].left.scale"
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"kernel": {"family": "mystery"}}))
    assert err.value.path == "kernel.family"
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"truncation": {"growth": "geometric", "ratio": 0.8}}))
    assert err.value.path == "truncation.ratio"
    bad["kernel"]["terms"][0]["left"]["scale"] = 1.0
    bad["kernel"]["terms"][0]["left"]["shift"] = float("nan")
    with pytest.raises(fk.ConfigError) as err:
        parse_config(json.dumps(bad).encode())
    assert err.value.path == "kernel.terms[0].left.shift"
    ragged = {"family": "custom_tabulated", "radius": 2.0, "values": [[1.0, 0.5], [0.5]]}
    with pytest.raises(fk.ConfigError) as err:
        parse_config(config_bytes({"kernel": ragged}))
    assert err.value.path == "kernel.values"


@pytest.mark.parametrize(
    "command, extra, argv, path",
    [
        ("det", {"det": {"lambda": float("nan")}}, [], "det.lambda"),
        ("det", None, ["--lambda", "nan"], "argv.lambda"),
        ("scan", {"scan": {"density": float("inf")}}, [], "scan.density"),
        ("scan", {"scan": {"region": [0.0, float("inf"), -0.5, 0.5]}}, [], "scan.region[1]"),
        ("scan", None, ["--region", "0,inf,-0.5,0.5"], "argv.region[1]"),
        ("det", {"truncation": {"step": float("inf")}}, [], "truncation.step"),
        ("resolvent", {"resolvent": {"eval_radius": float("inf")}}, [], "resolvent.eval_radius"),
        ("converge", {"converge": {"lambda": float("inf")}}, [], "converge.lambda"),
        ("det", {"converge": {"eval_radius": float("nan")}}, [], "converge.eval_radius"),
        ("scan", {"scan": {"region": [2.0, 0.0, -0.5, 0.5]}}, [], "scan.region"),
        ("scan", None, ["--region", "2,0,-0.5,0.5"], "argv.region"),
        ("converge", {"converge": {"eval_radius": 0}}, [], "converge.eval_radius"),
        ("converge", {"converge": {"eval_radius": -2}}, [], "converge.eval_radius"),
    ],
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, command, extra, argv, path):
    # json.dumps writes NaN and Infinity, which json.loads accepts.  The last
    # four cases are finite: reversed regions and an evaluation radius that
    # is not positive, refused at the same paths.
    config = write_config(tmp_path, extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command([command, "--config", config, "--out", str(tmp_path)] + argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"E_CONFIG {path} ")


@pytest.mark.parametrize(
    "config",
    [
        "demos/config_rank1.json",
        "tests/data/echo/gauss_cauchy_min.json",
        "tests/data/echo/tabulated.json",
        "tests/data/echo/full_override.json",
    ],
)
def test_config_echo_matches_golden(tmp_path, config):
    # The golden files hold the echo written before the field-table parser.
    assert run_command(["det", "--config", os.path.join(ROOT, config), "--out", str(tmp_path)]) == 0
    golden = os.path.join(ECHO, os.path.basename(config).replace(".json", ".echo.json"))
    with open(golden, "rb") as fh:
        assert (tmp_path / "config_echo.json").read_bytes() == fh.read()


BLOCK_KEYS = {"kernel": ["family", "label", "hermitian", "terms", "radius", "values"],
              "truncation": ["tau0", "growth", "step", "ratio"]}
for _block, _key, _, _ in FIELDS:
    BLOCK_KEYS.setdefault(_block, []).append(_key)
# Where a generated value may land: whole blocks, their keys, and the keys of
# the nested objects.
PATHS = (
    [(block,) for block in BLOCK_KEYS]
    + [(block, key) for block, keys in BLOCK_KEYS.items() for key in keys]
    + [("kernel", "terms", 0, key) for key in ("coefficient", "left", "right")]
    + [(*obj, key) for obj in (("kernel", "terms", 0, "left"), ("solve", "g"))
       for key in ("kind", "scale", "shift")]
    + [("converge", "schedule", key) for key in ("kind", "beta0", "ratio")]
)
BASE_KERNELS = [
    RANK1_CONFIG["kernel"],
    {"family": "gauss_cauchy"},
    {"family": "custom_tabulated", "radius": 2.0, "values": [[1.0, 0.5], [0.5, 1.0]]},
]
SCALARS = st.one_of(
    st.sampled_from([0, -1, 2**1024, -(10**400), float("nan"), float("inf"), float("-inf")]),
    st.integers(),
    st.floats(),
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["gauss", "sech", "tilde", "geometric", "harmonic", "largest_n",
                     "separable_sum", "gauss_cauchy", "custom_tabulated"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(sorted({k for ks in BLOCK_KEYS.values() for k in ks}))
                      | st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def configs(draw):
    """A valid config with one or two values replaced by generated ones."""
    doc = {"kernel": json.loads(json.dumps(draw(st.sampled_from(BASE_KERNELS))))}
    for path in draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=2)):
        node = doc
        for key in path[:-1]:
            if isinstance(node, dict):
                node = node.setdefault(key, {})
            elif isinstance(node, list) and isinstance(key, int) and key < len(node):
                node = node[key]
            else:
                break
        else:
            if isinstance(node, dict):
                node[path[-1]] = draw(SCALARS | VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(configs())
def test_parse_returns_or_raises_config_error(doc):
    # json.dumps writes NaN and Infinity for non-finite floats.
    try:
        parse_config(json.dumps(doc).encode())
    except fk.ConfigError:
        pass


def test_parse_malformed_json():
    with pytest.raises(fk.ConfigError):
        parse_config(b"{not json")
    with pytest.raises(fk.ConfigError):
        parse_config(b"\xff\xfe")


def test_parse_duplicate_keys_last_wins():
    text = (
        b'{"kernel": {"family": "gauss_cauchy"},'
        b' "quadrature": {"order": 4, "order": 8}}'
    )
    cfg = parse_config(text)
    assert cfg.order == 8
    assert any("duplicate" in w for w in cfg.warnings)


def test_run_det_stdout(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = run_command(["det", "--config", path, "--lambda", "0.3", "--out", str(tmp_path)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    tag, re_s, im_s = line.split()
    assert tag == "D"
    expected = 1.0 - 0.3 * gauss_overlap(4.0)
    assert float(re_s) == pytest.approx(expected, abs=1e-8)
    assert float(im_s) == pytest.approx(0.0, abs=1e-12)
    assert (tmp_path / "config_echo.json").exists()


def test_run_solve_characteristic_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = run_command(
        ["solve", "--config", path, "--lambda", "0.7978845608", "--out", str(tmp_path)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("E_CHARACTERISTIC lambda=")


def test_run_scan_csv(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "scan_out"
    rc = run_command(
        ["scan", "--config", path, "--region", "0,2,-0.5,0.5", "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "zeros.csv").read_text().splitlines()
    assert rows[0] == "lambda_re,lambda_im"
    assert len(rows) == 2
    re_v, im_v = (float(v) for v in rows[1].split(","))
    assert abs(re_v - 0.7978846) < 1e-4
    assert abs(im_v) < 1e-6


def test_run_solve_writes_solution(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "solve_out"
    rc = run_command(["solve", "--config", path, "--lambda", "0.3", "--out", str(out)])
    assert rc == 0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[0] == "x,f_re,f_im,g_re"
    assert len(rows) > 10


def test_run_converge_csv_schema(tmp_path):
    path = write_config(
        tmp_path,
        {"converge": {"n_list": [2, 3, 4], "reference": "largest_n"}},
    )
    out = tmp_path / "conv_out"
    rc = run_command(["converge", "--config", path, "--lambda", "0.3", "--out", str(out)])
    assert rc == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "n,tau_n,sup_T_diff,sup_row_diff,sup_col_diff"
    taus = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(t > 0 for t in taus)


def test_run_resolvent_grid(tmp_path):
    path = write_config(tmp_path, {"resolvent": {"n": 4, "eval_radius": 2.0, "eval_points": 5}})
    out = tmp_path / "res_out"
    rc = run_command(["resolvent", "--config", path, "--lambda", "0.3", "--out", str(out)])
    assert rc == 0
    rows = (out / "resolvent_grid.csv").read_text().splitlines()
    assert rows[0] == "s,t,re,im"
    assert len(rows) == 1 + 5 * 5
    cells = [float(v) for v in rows[13].split(",")]  # the (0, 0) grid point
    assert cells[0] == 0.0 and cells[1] == 0.0
    assert abs(cells[2] - 1.0 / (1.0 - 0.3 * gauss_overlap(3.0))) < 1e-6


def test_run_converge_neumann_reference(tmp_path):
    path = write_config(
        tmp_path, {"converge": {"n_list": [2, 3], "reference": "neumann_disk", "n_terms": 30}}
    )
    out = tmp_path / "conv_neumann"
    rc = run_command(["converge", "--config", path, "--lambda", "0.3", "--out", str(out)])
    assert rc == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 3
    d2, d3 = (float(r.split(",")[2]) for r in rows[1:])
    assert d3 < d2


def test_run_converge_divergent_series_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path, {"converge": {"n_list": [2, 3], "reference": "neumann_disk"}}
    )
    rc = run_command(
        ["converge", "--config", path, "--lambda", "1.0", "--out", str(tmp_path / "d")]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("E_NEUMANN_DIVERGENT")


def test_run_tailnorm_csv(tmp_path):
    path = write_config(tmp_path, {"tailnorm": {"n_list": [2, 3, 4], "m": 1}})
    out = tmp_path / "tail_out"
    rc = run_command(["tailnorm", "--config", path, "--out", str(out)])
    assert rc == 0
    rows = (out / "tailnorm.csv").read_text().splitlines()
    assert rows[0] == "n,tau_n,tail_norm"
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert vals[0] > vals[-1]


@pytest.mark.parametrize("lam", ["1e160", "1e300"])
def test_run_resolvent_at_huge_lambda_exits_clean(tmp_path, capsys, lam):
    # det(I - lambda*A) overflows at these lambdas; the command still writes
    # finite values and exits 0 without a warning line.
    config = os.path.join(ECHO, "gauss_cauchy_min.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command(["resolvent", "--config", config, "--lambda", lam, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    vals = np.loadtxt(tmp_path / "resolvent_grid.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(vals))


def test_run_rejects_bad_usage(tmp_path, capsys):
    assert run_command([]) == 1
    assert run_command(["frobnicate", "--config", "x"]) == 1
    assert run_command(["det"]) == 1
    assert run_command(["det", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert all(line.startswith("E_CONFIG") for line in err.strip().splitlines())


def test_run_bad_lambda_flag(tmp_path):
    path = write_config(tmp_path)
    assert run_command(["det", "--config", path, "--lambda", "zebra"]) == 1


def test_thread_cap_env(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    monkeypatch.setenv("FREDKERN_THREADS", "2")
    assert run_command(["det", "--config", path, "--out", str(tmp_path)]) == 0
    monkeypatch.setenv("FREDKERN_THREADS", "zero")
    assert run_command(["det", "--config", path, "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_grid_csv(str(path), ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    emit_grid_csv(str(path), ["n", "v"], [(3, 0.5), (4, 1.0 / 3.0)])
    body = path.read_text().splitlines()
    assert body[1] == "3,5.0000000000000000e-01"
    assert body[2].startswith("4,3.333333333333333")
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_emit_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        emit_grid_csv(str(tmp_path / "x.csv"), ["a", "b"], [(1.0,)])


def test_resolvent_grid_at_lambda_zero_matches_subkernel(tmp_path, trunc):
    # Exporting the resolvent at lambda=0 and exporting the subkernel grid
    # produce byte-identical CSV files.
    k = fk.gauss_rank1()
    grid = fk.build_grid(trunc, 6, 2, 8)
    h = fk.make_resolvent(k, trunc, 6, 0.0, grid)
    pts = np.linspace(-3.0, 3.0, 13)
    vals = h.eval_grid_matrix(pts, pts)
    base = np.asarray(fk.subkernel_eval(k, trunc, 6, "plain", pts[:, None], pts[None, :]))
    rows_res = [
        (s, t, vals[i, j].real, vals[i, j].imag)
        for i, s in enumerate(pts)
        for j, t in enumerate(pts)
    ]
    rows_sub = [
        (s, t, base[i, j].real, base[i, j].imag)
        for i, s in enumerate(pts)
        for j, t in enumerate(pts)
    ]
    p1 = tmp_path / "res.csv"
    p2 = tmp_path / "sub.csv"
    emit_grid_csv(str(p1), ["s", "t", "re", "im"], rows_res)
    emit_grid_csv(str(p2), ["s", "t", "re", "im"], rows_sub)
    assert p1.read_bytes() == p2.read_bytes()


def test_reproducible_outputs(tmp_path):
    path = write_config(tmp_path, {"scan": {"n": 4, "density": 3.0}})
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = run_command(["scan", "--config", path, "--out", str(out)])
        assert rc == 0
        outs.append(
            ((out / "zeros.csv").read_bytes(), (out / "config_echo.json").read_bytes())
        )
    assert outs[0] == outs[1]


def test_config_echo_reruns_identically(tmp_path):
    # The echoed config is itself a valid config producing identical output.
    path = write_config(tmp_path)
    out1 = tmp_path / "first"
    assert run_command(["scan", "--config", path, "--out", str(out1)]) == 0
    echo_path = out1 / "config_echo.json"
    out2 = tmp_path / "second"
    assert run_command(["scan", "--config", str(echo_path), "--out", str(out2)]) == 0
    assert (out1 / "zeros.csv").read_bytes() == (out2 / "zeros.csv").read_bytes()


@pytest.mark.parametrize("command, extra", [
    ("det", {"quadrature": {"panels_per_unit": 10**6, "order": 8}}),
    ("tailnorm", {"truncation": {"tau0": 1e6}}),
    ("det", {"truncation": {"growth": "geometric", "ratio": 1.5}, "det": {"n": 5000}}),
    ("resolvent", {"resolvent": {"eval_points": 4097}}),
])
def test_run_node_ceiling_exits_budget(tmp_path, capsys, command, extra):
    # Each config fails the ceiling check itself, before anything is allocated.
    path = write_config(tmp_path, extra)
    assert run_command([command, "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("E_BUDGET ")


SECH_200 = {"kind": "sech", "scale": 200.0, "shift": 0.0}
TABULATED_1E300 = {"family": "custom_tabulated", "radius": 2.0, "values": [[1e300, 1e300], [1e300, 1e300]]}


@pytest.mark.parametrize("command", ["det", "solve", "resolvent", "scan", "converge", "tailnorm"])
def test_run_sech_past_cosh_overflow_exits_clean(tmp_path, capsys, command):
    # cosh overflows far out on a steep sech factor; 1/cosh is 0 there and
    # no warning reaches stderr.
    kernel = {"family": "separable_sum", "terms": [{"coefficient": 1.0, "left": SECH_200, "right": SECH_200}]}
    path = write_config(tmp_path, {"kernel": kernel})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command([command, "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["det", "resolvent"])
def test_run_shift_beyond_float_range_exits_budget(tmp_path, capsys, command):
    # I - lambda*A overflows for these entries at lambda = 1e10.
    path = write_config(tmp_path, {"kernel": TABULATED_1E300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command([command, "--config", path, "--lambda", "1e10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("E_BUDGET ") and err.count("\n") == 1


GOLDEN = os.path.join(ROOT, "tests", "data", "golden", "config_rank1")
GOLDEN_CSV = {"solve": "solution.csv", "resolvent": "resolvent_grid.csv", "scan": "zeros.csv",
              "converge": "convergence.csv", "tailnorm": "tailnorm.csv"}


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), -1)


@pytest.mark.parametrize("command", ["det", *GOLDEN_CSV])
def test_config_rank1_outputs_match_golden(tmp_path, capsys, command):
    # The golden files were written from demos/config_rank1.json by an
    # earlier version.  Headers and row counts must match exactly; values to
    # 1e-13 of each column's largest magnitude, since another CPU's BLAS may
    # round differently.
    config = os.path.join(ROOT, "demos", "config_rank1.json")
    assert run_command([command, "--config", config, "--out", str(tmp_path)]) == 0
    if command == "det":
        with open(os.path.join(GOLDEN, "det.txt"), encoding="utf-8") as fh:
            want = fh.read().split()
        got = capsys.readouterr().out.split()
        assert got[0] == want[0] == "D"
        want_v, got_v = np.array(want[1:], dtype=float), np.array(got[1:], dtype=float)
        assert np.max(np.abs(got_v - want_v)) <= 1e-13 * np.max(np.abs(want_v))
        return
    want_header, want = read_csv(os.path.join(GOLDEN, GOLDEN_CSV[command]))
    got_header, got = read_csv(str(tmp_path / GOLDEN_CSV[command]))
    assert got_header == want_header and got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_installed_entry_point_exit_codes(tmp_path):
    # cli.main sets up logging and exits with run_command's code.
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}

    def run(config):
        return subprocess.run(
            [sys.executable, "-m", "fredkern.cli", "det", "--config", config, "--out", str(tmp_path)],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
        )

    ok = run("demos/config_rank1.json")
    assert ok.returncode == 0 and ok.stdout.startswith("D ")
    missing = run(str(tmp_path / "missing.json"))
    assert missing.returncode == 1 and missing.stderr.startswith("E_CONFIG argv.config")
