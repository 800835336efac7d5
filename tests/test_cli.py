"""End-to-end CLI behavior: exit codes, output formats, environment."""

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st_

import qgraph.cli
import qgraph.couplings
from qgraph import ApproxGraph, STForm, ab_from_st, build_approx_graph, dumps, loads
from qgraph.cli import main
from helpers import (
    make_delta,
    make_delta_prime,
    make_dirichlet,
    make_kirchhoff,
    make_singular_at_tenth,
    random_st,
)


ROOT = Path(__file__).resolve().parent.parent


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else dumps(obj))
    return str(path)


def read_csv_values(text):
    lines = text.strip().splitlines()
    assert lines[0] == "index,lambda"
    out = []
    for index, line in enumerate(lines[1:], start=1):
        first, second = line.split(",")
        assert int(first) == index
        out.append(float(second))
    return out


# -- convert ----------------------------------------------------------------

def test_convert_named_to_st(tmp_path, capsys):
    path = write_doc(tmp_path, "delta.json", '{"kind": "delta", "n": 3, "alpha": 1.0}')
    assert main(["convert", path]) == 0
    text = capsys.readouterr().out
    st = loads(text)
    assert isinstance(st, STForm) and st.n == 3


def test_convert_is_idempotent(tmp_path):
    path = write_doc(tmp_path, "in.json", make_delta_prime(beta=1.0, n=3))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["convert", path, "--out", str(out1)]) == 0
    assert main(["convert", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_convert_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"kind": "kirchhoff", "n": 2}'))
    assert main(["convert", "-"]) == 0
    assert isinstance(loads(capsys.readouterr().out), STForm)


def test_convert_malformed_json_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", "{not json")
    assert main(["convert", path]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_convert_missing_file_exits_1(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_convert_rejects_approx_graph_exits_1(tmp_path, capsys):
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    path = write_doc(tmp_path, "graph.json", g)
    assert main(["convert", path]) == 1
    assert "expected a coupling document" in capsys.readouterr().err


def test_convert_invalid_coupling_exits_2(tmp_path, capsys):
    doc = {
        "n": 2,
        "A": [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
              [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]],
        "B": [[{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
              [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]],
    }
    path = write_doc(tmp_path, "rank.json", json.dumps(doc))
    assert main(["convert", path]) == 2
    err = capsys.readouterr().err
    assert "fails validation" in err
    assert len(err.strip().splitlines()) >= 2  # violations, then the verdict


def test_convert_validates_a_matrix_pair_once(tmp_path, monkeypatch):
    """``convert`` of a delta n = 3 (A, B) document runs validate_coupling
    once: the CLI prints its violations, and normalizing does not check the
    pair again."""
    calls = []
    validate = qgraph.couplings.validate_coupling

    def counted(c):
        calls.append(c)
        return validate(c)

    monkeypatch.setattr(qgraph.couplings, "validate_coupling", counted)
    monkeypatch.setattr(qgraph.cli, "validate_coupling", counted)
    pair = ab_from_st(make_delta())
    path = write_doc(tmp_path, "delta-ab.json", pair)
    out = tmp_path / "st.json"
    assert main(["convert", path, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert isinstance(loads(out.read_text()), STForm)


@pytest.mark.parametrize(
    "doc, code, message",
    [
        (
            {"st": {"m": 1, "perm": [2, 1], "S": [[{"re": 0, "im": 1e308}]],
                    "T": [[{"re": -1, "im": 3}]]}},
            1,
            "S must be Hermitian",
        ),
        (
            {"n": 1, "A": [[{"re": -1, "im": 1e308}]], "B": [[{"re": 2, "im": 2}]]},
            2,
            "A B* is not Hermitian",
        ),
    ],
    ids=["st", "ab"],
)
def test_convert_hermiticity_check_fails_closed_on_overflow(tmp_path, capsys, doc, code, message):
    """S - S* and A B* overflow here; the documents are still rejected as
    not Hermitian, and no RuntimeWarning escapes."""
    path = write_doc(tmp_path, "huge.json", json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["convert", path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Warning" not in captured.err


# -- build ------------------------------------------------------------------

def test_build_writes_schedule(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    assert main(["build", path, "--d", "0.1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 0.1
    assert data["w_vertex"]["1"] == pytest.approx(-21.0, rel=1e-12)
    assert data["w_inner"]["1-2"] == pytest.approx(-120.0, rel=1e-12)
    assert data["a_inner"]["1-2"] == 0.0


def test_build_singular_d_exits_3(tmp_path, capsys):
    path = write_doc(tmp_path, "sing.json", make_singular_at_tenth())
    assert main(["build", path, "--d", "0.1"]) == 3
    err = capsys.readouterr().err
    assert "(1, 2)" in err
    # a nearby d is fine
    assert main(["build", path, "--d", "0.09", "--out", str(tmp_path / "g.json")]) == 0


# -- sweep ------------------------------------------------------------------

def test_sweep_single_d_prints_nan(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    assert main(["sweep", path, "--d", "0.25"]) == 0
    assert capsys.readouterr().out.strip() == "slope=nan residual=nan"


def test_sweep_all_failures_exit_4(tmp_path, capsys):
    path = write_doc(tmp_path, "sing.json", make_singular_at_tenth())
    assert main(["sweep", path, "--d", "0.1"]) == 4
    err = capsys.readouterr().err
    assert "d=0.1: skipped:" in err
    assert "sweep failed at every d value" in err


def test_sweep_range_with_csv(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["sweep", path, "--d-range", "2:5", "--out", str(out1)]) == 0
    line = capsys.readouterr().out.strip()
    slope = float(line.split()[0].split("=")[1])
    assert 0.4 < slope < 1.5
    assert main(["sweep", path, "--d-range", "2:5", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()  # deterministic report
    text = out1.read_text()
    assert text.startswith("d,metric,status\n")
    assert "slope," in text and "residual," in text


def test_sweep_out_into_missing_directory_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    out = tmp_path / "missing" / "report.csv"
    assert main(["sweep", path, "--d", "0.25", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_sweep_hs_far_below_the_spectrum(tmp_path, capsys):
    """At z = -1024 the resolvent is regular; every d is evaluated."""
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    out = tmp_path / "hs.csv"
    argv = ["sweep", path, "--metric", "hs", "--z-re", "-1024", "--d-range", "2:4"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:4]
    assert len(rows) == 3 and all(row.split(",")[2].startswith("ok") for row in rows)


def test_sweep_without_out_writes_no_csv(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    before = set(os.listdir(tmp_path))
    assert main(["sweep", path, "--d-range", "2:5"]) == 0
    assert capsys.readouterr().out.startswith("slope=")
    assert set(os.listdir(tmp_path)) == before


def test_sweep_invalid_metric_parameters_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    assert main(["sweep", path, "--d", "1.5"]) == 2
    assert "(0, 1]" in capsys.readouterr().err
    assert main(["sweep", path, "--metric", "hs", "--L", "0"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options", [["--z-re", "0", "--z-im", "1e-12"], ["--L", "1e-6", "--d-range", "20:30"]]
)
def test_sweep_hs_lost_to_rounding_skips_with_a_reason(tmp_path, capsys, options):
    """Near z = 0, or on short truncations at small d, the closed form's
    terms cancel below their rounding (its square sum read negative at
    most of these d): every d is skipped with the reason, and the sweep
    exits 4 without a traceback."""
    path = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    assert main(["sweep", path, "--metric", "hs", *options]) == 4
    *points, last = capsys.readouterr().err.splitlines()
    assert last == "sweep failed at every d value" and len(points) in (9, 11)
    for line in points:
        assert ": skipped: HS distance lost to rounding: " in line, line


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "x.json", "--metric", "bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "x.json", "--d-range", "5:2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_sweep_has_no_quadrature_option(capsys):
    """The HS metric is evaluated in closed form: there is no quadrature
    to size, and ``--quad-n`` is an unknown option."""
    with pytest.raises(SystemExit) as info:
        main(["sweep", "x.json", "--metric", "hs", "--quad-n", "64"])
    assert info.value.code == 2
    assert "unrecognized arguments: --quad-n 64" in capsys.readouterr().err


# -- budget -----------------------------------------------------------------

def test_budget_without_alpha_prints_optimum(capsys):
    assert main(["budget"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        "optimal alpha = 1/14 (7.14285714285714246e-02), "
        "combined exponent = 1/28 (3.57142857142857123e-02)"
    )


def test_budget_eq29_optimum(capsys):
    assert main(["budget", "--eq29"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("optimal alpha = 1/8 (")
    assert "combined exponent = 1/16 (" in line


def test_budget_with_alpha_writes_json(tmp_path, capsys):
    assert main(["budget", "--alpha", "1/14"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == pytest.approx(1 / 14)
    assert data["exponents"]["combined"] == pytest.approx(1 / 28)
    out = tmp_path / "b.json"
    assert main(["budget", "--alpha", "0.05", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["alpha"] == pytest.approx(0.05)


def test_budget_alpha_out_of_range_exits_2(capsys):
    assert main(["budget", "--alpha", "0.2"]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "{doc}", "--metric", "hs", "--z-re", "0", "--z-im", "0"],
         "z = 0 is not a valid resolvent point"),
        (["budget", "--alpha", "1/13"], "alpha must lie in (0, 1/13), got Fraction(1, 13)"),
    ],
)
def test_library_input_errors_exit_2_with_one_line(tmp_path, capsys, argv, message):
    """main alone maps a library error: exit 2, and its message as the one
    stderr line."""
    doc = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    assert main([arg.format(doc=doc) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


# -- spectrum ---------------------------------------------------------------

def test_spectrum_kirchhoff_two_star(tmp_path, capsys):
    path = write_doc(tmp_path, "k2.json", '{"kind": "kirchhoff", "n": 2}')
    assert main(["spectrum", path, "--count", "4"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    expected = [(m * math.pi / 2.0) ** 2 for m in range(1, 5)]
    assert values == pytest.approx(expected, rel=1e-8)


def test_spectrum_dirichlet_star(tmp_path, capsys):
    path = write_doc(tmp_path, "d3.json", make_dirichlet(3))
    assert main(["spectrum", path, "--count", "4"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    pi_sq = math.pi**2
    assert values == pytest.approx([pi_sq, pi_sq, pi_sq, 4 * pi_sq], rel=1e-8)


def test_spectrum_accepts_approx_graph(tmp_path, capsys):
    g = build_approx_graph(make_kirchhoff(2), 0.25)
    path = write_doc(tmp_path, "g.json", g)
    assert main(["spectrum", path, "--count", "2"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    assert len(values) == 2 and values[0] < values[1]


def test_spectrum_keeps_triple_well_level(tmp_path, capsys):
    """The three inner wells of the delta'_s graph at d = 2^-4 give one
    tunneling-split level: a singlet and, 1.4e-3 above it, a doublet."""
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 2.0**-4)
    path = write_doc(tmp_path, "g.json", g)
    assert main(["spectrum", path, "--L", "1.0", "--count", "4"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    assert values[0] == pytest.approx(-20736.00056041712, rel=1e-10)
    assert values[1:3] == pytest.approx([-20735.9991926692] * 2, rel=1e-10)
    assert values[3] == pytest.approx(2.279060174134756, rel=1e-10)


def test_spectrum_scan_shortfall_exits_5(tmp_path, capsys):
    """The deep wells at d = 0.001 are found; a count beyond every float
    bracket exits 5 with the scanned window instead of a traceback."""
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.001)
    path = write_doc(tmp_path, "deep.json", g)
    assert main(["spectrum", path, "--count", "4"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    assert values == pytest.approx([-2.51001000e11] * 3 + [2.4641161581], rel=1e-10)
    assert main(["spectrum", path, "--count", "1" + "0" * 400]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(scanned window [" in captured.err and "Traceback" not in captured.err


# -- process-level behavior -------------------------------------------------

def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("QGRAPH_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qgraph", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_version_via_module_and_script():
    result = run_cli(["--version"])
    assert result.returncode == 0
    assert result.stdout.startswith("qgraph ")
    # The console script declared in pyproject.toml, called the way the
    # wrapper an install generates calls it; this needs no install.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^qgraph\s*=\s*"([^"]+)"', scripts, re.MULTILINE).group(1)
    module, _, func = target.partition(":")
    wrapper = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'qgraph'\nsys.exit({func}())"
    )
    entry = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"], capture_output=True, text=True
    )
    assert entry.returncode == 0 and entry.stdout == result.stdout
    script = shutil.which("qgraph")
    if script is not None:
        direct = subprocess.run([script, "--version"], capture_output=True, text=True)
        assert direct.returncode == 0 and direct.stdout == result.stdout


# Run qgraph under a 2 GB address-space limit (BLAS on one thread), so that
# a regression fails with a MemoryError instead of exhausting the machine.
_UNDER_2GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qgraph.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "{doc}", "--L", "1e20", "--count", "3"],
        ["spectrum", "{doc}", "--L", "1e300", "--count", "3"],
        ["sweep", "{doc}", "--metric", "eig", "--L", "1e20", "--d", "0.25"],
    ],
)
def test_long_truncation_expands_at_most_count_levels(tmp_path, argv):
    """On a long truncation one leaf of the eigenvalue search holds a jump
    of about sqrt(lambda) L / pi levels; it is expanded to the requested
    count only, in little memory and time."""
    doc = write_doc(tmp_path, "dp.json", make_delta_prime(beta=1.0, n=3))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _UNDER_2GB, *(arg.format(doc=doc) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    if argv[0] == "spectrum":
        assert len(read_csv_values(result.stdout)) == 3


def test_tolerance_env_override(tmp_path):
    doc = {
        "n": 1,
        "A": [[{"re": 1.0, "im": 0.0}]],
        "B": [[{"re": 1.0, "im": 1e-6}]],
    }
    path = write_doc(tmp_path, "close.json", json.dumps(doc))
    strict = run_cli(["convert", path])
    assert strict.returncode == 2
    assert "not Hermitian" in strict.stderr
    relaxed = run_cli(["convert", path], env_extra={"QGRAPH_TOL": "1e-3"})
    assert relaxed.returncode == 0


def test_invalid_tolerance_env_warns_and_falls_back(tmp_path):
    doc = {
        "n": 1,
        "A": [[{"re": 1.0, "im": 0.0}]],
        "B": [[{"re": 1.0, "im": 1e-6}]],
    }
    path = write_doc(tmp_path, "close.json", json.dumps(doc))
    result = run_cli(["convert", path], env_extra={"QGRAPH_TOL": "abc"})
    assert result.returncode == 2  # default 1e-10 still applies
    assert "ignoring invalid QGRAPH_TOL" in result.stderr


# -- fuzzed documents -------------------------------------------------------

_NUMBER = st_.one_of(
    st_.integers(min_value=-3, max_value=3),
    st_.floats(min_value=-1e308, max_value=1e308),
    st_.sampled_from([1e308, -1e308, 1e-308, 0.5]),
)
_JUNK = st_.one_of(
    st_.none(), st_.booleans(), st_.text(max_size=3), st_.just([]), st_.just({"re": 1})
)
_VALUE = st_.one_of(_NUMBER, _NUMBER, _NUMBER, _JUNK)
_C0 = {"re": 0, "im": 0}
_COMPLEX = st_.one_of(
    st_.fixed_dictionaries({"re": _NUMBER, "im": _NUMBER}),
    st_.fixed_dictionaries({"re": _NUMBER, "im": st_.just(0)}),
    st_.fixed_dictionaries({"re": _VALUE, "im": _VALUE}),
    _JUNK,
)


def _size(draw, good):
    """``good`` mostly, sometimes one off or zero."""
    return draw(st_.sampled_from([good] * 6 + [good + 1, max(good - 1, 0), 0]))


def _matrix(draw, rows, cols):
    return [[draw(_COMPLEX) for _ in range(_size(draw, cols))] for _ in range(_size(draw, rows))]


def _perm(draw, n):
    perm = draw(st_.permutations(list(range(1, n + 1))))
    return draw(st_.sampled_from([perm] * 6 + [perm[:-1], [1] * n, [0, *perm[1:]], "1"]))


def _hermitian(draw, m):
    """An m x m Hermitian matrix of {"re", "im"} entries, the diagonal real."""
    s = [[None] * m for _ in range(m)]
    for i in range(m):
        s[i][i] = {"re": draw(_NUMBER), "im": 0}
        for j in range(i + 1, m):
            re, im = draw(_NUMBER), draw(_NUMBER)
            s[i][j], s[j][i] = {"re": re, "im": im}, {"re": re, "im": -im}
    return s


def _ab_from_st(draw, n, m):
    """An admissible coupling document: a Hermitian S and any T put into
    the convention of ab_from_st, B = [[I, T], [0, 0]] and
    A = [[-S, 0], [T*, -I]], with the edges shuffled."""
    s_mat = _hermitian(draw, m)
    t_mat = [[{"re": draw(_NUMBER), "im": draw(_NUMBER)} for _ in range(n - m)] for _ in range(m)]
    zero, one, minus_one = {"re": 0, "im": 0}, {"re": 1, "im": 0}, {"re": -1, "im": 0}
    a = [[{"re": -z["re"], "im": -z["im"]} for z in row] + [zero] * (n - m) for row in s_mat]
    a += [[{"re": t_mat[j][i]["re"], "im": -t_mat[j][i]["im"]} for j in range(m)]
          + [minus_one if k == i else zero for k in range(n - m)] for i in range(n - m)]
    b = [[one if k == i else zero for k in range(m)] + t_mat[i] for i in range(m)]
    b += [[zero] * n for _ in range(n - m)]
    cols = draw(st_.permutations(list(range(n))))
    return {"n": n, "A": [[row[c] for c in cols] for row in a],
            "B": [[row[c] for c in cols] for row in b]}


@st_.composite
def _documents(draw):
    """Coupling, normal-form, named and approx-graph documents: mostly well
    formed, with wrong types, booleans, strings, out-of-range n and m, bad
    permutations, wrong shapes and finite entries up to 1e308 mixed in."""
    n = draw(st_.integers(min_value=1, max_value=4))
    m = draw(st_.integers(min_value=0, max_value=n))
    shape = draw(st_.sampled_from(["ab", "ab_from_st", "st", "named", "approx"]))
    if shape == "ab":
        return {"n": draw(st_.one_of(st_.just(n), _VALUE)),
                "A": _matrix(draw, n, n), "B": _matrix(draw, n, n)}
    if shape == "ab_from_st":
        return _ab_from_st(draw, n, m)
    if shape == "st":
        s_mat = _hermitian(draw, m) if draw(st_.booleans()) else _matrix(draw, m, m)
        return {"st": {"m": draw(st_.sampled_from([m] * 6 + [n + 1, -1, True, 1.0])),
                       "perm": _perm(draw, n), "S": s_mat, "T": _matrix(draw, m, n - m)}}
    if shape == "named":
        kinds = ["delta", "delta_prime_s", "kirchhoff", "dirichlet"]
        doc = {"kind": draw(st_.sampled_from(kinds * 3 + ["custom", "DELTA", None, True, 1, [1]])),
               "n": draw(st_.sampled_from([n] * 6 + [0, -1, True, 2.0, "3"]))}
        for key in draw(st_.sampled_from([(), ("alpha",), ("beta",)] * 2 + [("alpha", "beta")])):
            doc[key] = draw(_VALUE)
        return doc
    keys = [str(j) for j in range(1, n + 1)]
    neighbors = {key: draw(st_.lists(st_.integers(min_value=0, max_value=n + 1), max_size=n))
                 for key in keys}
    pairs = sorted(
        {f"{min(int(j), k)}-{max(int(j), k)}" for j, ks in neighbors.items() for k in ks}
    )
    return {"n": draw(st_.one_of(st_.just(n), _VALUE)), "d": draw(_VALUE),
            "neighbors": neighbors,
            "w_vertex": {key: draw(_VALUE) for key in keys},
            "w_inner": {key: draw(_VALUE) for key in pairs},
            "a_inner": {key: draw(_VALUE) for key in pairs}}


#: An integer beyond the float range as a named coupling's alpha, an
#: approximating graph's d and vertex strength, and a matrix entry.
_HUGE = int("1" * 400)
_HUGE_INTEGER_DOCS = [
    {"kind": "delta", "n": 3, "alpha": _HUGE},
    {"n": 2, "d": _HUGE, "neighbors": {"1": [2], "2": [1]}, "w_vertex": {"1": 1, "2": 1},
     "w_inner": {"1-2": 1}, "a_inner": {"1-2": 1}},
    {"n": 2, "d": 0.5, "neighbors": {"1": [2], "2": [1]}, "w_vertex": {"1": _HUGE, "2": 1},
     "w_inner": {"1-2": 1}, "a_inner": {"1-2": 1}},
    {"n": 1, "A": [[{"re": _HUGE, "im": 0}]], "B": [[_C0]]},
]


#: A named coupling whose kind is a list nested 100,000 deep, as text:
#: ``json.dumps`` of it would exceed the recursion limit too.
_DEEP_DOC = '{"n": 3, "kind": ' + "[" * 100_000 + "]" * 100_000 + "}"


def _run_quietly(argv, text):
    """Exit code, stdout and stderr of ``main(argv)`` reading ``text`` from
    stdin, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), \
            redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_documents())
@example({"kind": [1], "n": 3})
@example({"st": {"m": 2, "perm": [1, 2], "T": [[], []],
                 "S": [[_C0, {"re": 1e308, "im": 1e-308}], [{"re": 1e308, "im": -1e-308}, _C0]]}})
@example({"st": {"m": 2, "perm": [1, 2, 3], "S": [[_C0, _C0], [_C0, _C0]],
                 "T": [[{"re": 1e308, "im": 0}], [{"re": 1e308, "im": 0}]]}})
@example({"st": {"m": 1, "perm": [1, 2], "S": [[_C0]], "T": [[{"re": 1e308, "im": 0}]]}})
@example({"n": 2, "d": 1e-308, "neighbors": {"1": [2], "2": [1]}, "w_vertex": {"1": 1, "2": 1},
          "w_inner": {"1-2": 1}, "a_inner": {"1-2": 1}})
@example({"st": {"m": 1, "perm": [1], "S": [[{"re": 1e308, "im": 0}]], "T": [[]]}})
@example({"st": {"m": 2, "perm": [1, 2], "T": [[], []],
                 "S": [[{"re": 1e308, "im": 0}] * 2, [{"re": 1e308, "im": 0}] * 2]}})
@example(_HUGE_INTEGER_DOCS[0])
@example(_HUGE_INTEGER_DOCS[1])
@example(_HUGE_INTEGER_DOCS[2])
@example(_HUGE_INTEGER_DOCS[3])
@example(_DEEP_DOC)
def test_fuzzed_documents_exit_with_a_documented_code(doc):
    """convert, build, spectrum and a scattering sweep exit with a
    documented code and print no traceback or warning; a converted S is
    Hermitian, and a built graph is a valid document.  The examples: an
    unhashable kind; a pair whose magnetic phase underflows; T columns whose
    overlap overflows; a vertex strength that overflows; an S whose A + ikB
    has a 1-norm beyond the float range; edges so short that their 2/l
    terms overflow the spectrum's reduced matrix; a document nested deeper
    than the JSON parser recurses, given as its text."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    for argv in (["convert", "-"], ["build", "-", "--d", "0.25"], ["spectrum", "-", "--count", "3"],
                 ["sweep", "-", "--metric", "scattering", "--d", "0.25"]):
        code, out, err = _run_quietly(argv, text)
        assert code in range(6), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        if code == 0 and argv[0] == "convert":
            rows = json.loads(out)["st"]["S"]
            s_mat = np.array([[complex(z["re"], z["im"]) for z in row] for row in rows])
            s_mat = s_mat.reshape(len(rows), len(rows))
            with np.errstate(all="ignore"):
                defect = np.linalg.norm(s_mat - s_mat.conj().T, 2) if s_mat.size else 0.0
                scale = max(1.0, np.linalg.norm(s_mat, 2)) if s_mat.size else 1.0
            assert defect <= 1e-10 * scale, (doc, out)
        if code == 0 and argv[0] == "build":
            assert isinstance(loads(out), ApproxGraph), (doc, out)


@pytest.mark.parametrize("doc", _HUGE_INTEGER_DOCS, ids=["alpha", "d", "w_vertex", "matrix-re"])
def test_integer_beyond_the_float_range_exits_1_with_one_line(doc):
    text = json.dumps(doc)
    for argv in (["convert", "-"], ["build", "-", "--d", "0.25"], ["spectrum", "-", "--count", "3"],
                 ["sweep", "-", "--metric", "scattering", "--d", "0.25"]):
        code, _, err = _run_quietly(argv, text)
        assert code == 1 and len(err.splitlines()) == 1, (argv, code, err)
        assert "beyond the float range" in err, err


def test_integer_of_more_digits_than_python_reads_exits_1_with_one_line():
    text = '{"kind": "delta", "n": 3, "alpha": %s}' % ("1" * 5000)
    code, _, err = _run_quietly(["convert", "-"], text)
    assert code == 1 and err.endswith(": an integer has more digits than can be read\n"), err


def test_document_nested_too_deeply_exits_1_with_one_line():
    for argv in (["convert", "-"], ["sweep", "-", "--metric", "hs", "--d", "0.25"]):
        code, _, err = _run_quietly(argv, _DEEP_DOC)
        assert code == 1 and err == "-: the JSON nests too deeply to be read\n", (argv, code, err)


# -- fuzzed eig sweeps ------------------------------------------------------

_EIG_WINDOW_START = st_.one_of(
    st_.integers(min_value=0, max_value=12),
    st_.integers(min_value=20, max_value=60),
    st_.integers(min_value=1015, max_value=1075),
)


def _one_d_row(text: str, d: float, *options: str) -> str:
    """The d,metric,status row of a one-d sweep of ``text`` with the sweep
    ``options``: from its CSV, or, when that d fails (exit 4, no CSV), from
    its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "one.csv")
        code, _, err = _run_quietly(["sweep", "-", *options, "--d", repr(d), "--out", out], text)
        if code == 0:
            return Path(out).read_text().splitlines()[1]
    assert code == 4, err
    status = err.splitlines()[0].split(": ", 1)[1]
    return f"{d:.17e},,{status}"


@settings(max_examples=12, deadline=None)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.integers(min_value=1, max_value=3),
    _EIG_WINDOW_START,
    st_.integers(min_value=0, max_value=3),
)
@example(seed=1, n=3, p0=2, width=3)
@example(seed=2, n=2, p0=1018, width=3)
def test_fuzzed_eig_sweeps_match_one_d_sweeps(seed, n, p0, width):
    """``qgraph sweep --metric eig --d-range p0:p1`` on a random coupling
    with n <= 3 exits with a documented code and no traceback or warning;
    on success every CSV row equals that of a sweep at its d alone.  The
    windows reach from d = 1 past the default grid down to where strengths
    overflow and d underflows to 0 (exit 2).  The lockstep search serves all
    of a window's d values together; each row must read as if it had not."""
    text = dumps(random_st(np.random.default_rng(seed), n=n))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        argv = ["sweep", "-", "--metric", "eig", "--d-range", f"{p0}:{p0 + width}", "--out", out]
        code, stdout, err = _run_quietly(argv, text)
        assert code in range(6), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        if code != 0:
            return
        assert stdout.startswith("slope=")
        rows = Path(out).read_text().splitlines()[1 : 2 + width]
    assert len(rows) == width + 1
    for row in rows:
        assert row == _one_d_row(text, float(row.split(",")[0]), "--metric", "eig")


# -- fuzzed HS sweeps -------------------------------------------------------

_HS_WINDOW_START = st_.one_of(
    st_.integers(min_value=0, max_value=12),
    st_.integers(min_value=17, max_value=24),
    st_.integers(min_value=1071, max_value=1075),
)

# A nonzero part of z, at most 10^11.85 in modulus, so that |z| <= 1e12.
_Z_PART = st_.builds(lambda exponent, sign: sign * 10.0**exponent,
                     st_.floats(min_value=-3.0, max_value=11.85), st_.sampled_from([-1.0, 1.0]))


@settings(max_examples=12, deadline=None)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.integers(min_value=1, max_value=3),
    _HS_WINDOW_START,
    st_.integers(min_value=0, max_value=3),
    _Z_PART,
    st_.one_of(st_.just(0.0), _Z_PART),
)
@example(seed=1, n=3, p0=2, width=3, z_re=-1.0, z_im=0.0)
@example(seed=4, n=3, p0=1, width=2, z_re=-1e12, z_im=5.0)
@example(seed=5, n=2, p0=20, width=2, z_re=-1.0, z_im=0.0)
def test_fuzzed_hs_sweeps_match_one_d_sweeps(seed, n, p0, width, z_re, z_im):
    """``qgraph sweep --metric hs --z-re --z-im --d-range p0:p1`` on a random
    coupling with n <= 3 and |z| up to 1e12 exits with a documented code and
    no traceback or warning; on success every metric it reports is finite
    and nonnegative, and every CSV row equals that of a sweep at its d alone.
    The windows reach from d = 1 past the default grid, down to where
    z = -1 is wrongly reported as on the spectrum (d <= 2^-20), and to where
    d underflows to 0 (exit 2)."""
    text = dumps(random_st(np.random.default_rng(seed), n=n))
    options = ["--metric", "hs", "--z-re", repr(z_re), "--z-im", repr(z_im)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        argv = ["sweep", "-", *options, "--d-range", f"{p0}:{p0 + width}", "--out", out]
        code, stdout, err = _run_quietly(argv, text)
        assert code in range(6), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        if code != 0:
            return
        assert stdout.startswith("slope=")
        rows = Path(out).read_text().splitlines()[1 : 2 + width]
    assert len(rows) == width + 1
    for row in rows:
        d, value, _ = row.split(",", 2)
        if value:
            assert math.isfinite(float(value)) and float(value) >= 0.0, row
        assert row == _one_d_row(text, float(d), *options)


# -- fuzzed scattering sweeps -----------------------------------------------

_MOMENTA = st_.lists(
    st_.builds(lambda exponent: 10.0**exponent, st_.floats(min_value=-2.0, max_value=2.0)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=12, deadline=None)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.integers(min_value=1, max_value=3),
    _EIG_WINDOW_START,
    st_.integers(min_value=0, max_value=3),
    _MOMENTA,
)
@example(seed=1, n=3, p0=2, width=3, k_list=[0.5, 1.0, 2.0])
@example(seed=1, n=3, p0=33, width=3, k_list=[0.01, 1.0, 1.0])
@example(seed=2, n=2, p0=1072, width=3, k_list=[2.0])
def test_fuzzed_scattering_sweeps_match_one_d_sweeps(seed, n, p0, width, k_list):
    """``qgraph sweep --metric scattering --k --d-range p0:p1`` on a random
    coupling with n <= 3 and momenta in [0.01, 100] exits with a documented
    code and no traceback or warning; on success every CSV row equals that
    of a sweep at its d alone.  The windows are the eig fuzz's: from d = 1
    past the default grid, through d where a small momentum leaves the
    vertex system ill-conditioned even at its retry k (1 + 1e-6), down to
    where strengths overflow and d underflows to 0 (exit 2).  The sweep computes the star's S(k) once per
    momentum for all of its d values; each row must read as if it had not."""
    text = dumps(random_st(np.random.default_rng(seed), n=n))
    options = ["--metric", "scattering", "--k", ",".join(map(repr, k_list))]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        argv = ["sweep", "-", *options, "--d-range", f"{p0}:{p0 + width}", "--out", out]
        code, stdout, err = _run_quietly(argv, text)
        assert code in range(6), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        if code != 0:
            return
        assert stdout.startswith("slope=")
        rows = Path(out).read_text().splitlines()[1 : 2 + width]
    assert len(rows) == width + 1
    for row in rows:
        assert row == _one_d_row(text, float(row.split(",")[0]), *options)
