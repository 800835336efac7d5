"""End-to-end CLI behavior: exit codes, output formats, environment."""

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qgraph import STForm, build_approx_graph, dumps, loads
from qgraph.cli import main
from helpers import (
    make_delta_prime,
    make_dirichlet,
    make_kirchhoff,
    make_singular_at_tenth,
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


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "x.json", "--metric", "bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "x.json", "--d-range", "5:2"])
    assert info.value.code == 2
    capsys.readouterr()


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
    triple level; it is an odd-order root, found by bracketing and counted
    from the singular values there."""
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 2.0**-4)
    path = write_doc(tmp_path, "g.json", g)
    assert main(["spectrum", path, "--L", "1.0", "--count", "4"]) == 0
    values = read_csv_values(capsys.readouterr().out)
    assert values[:3] == pytest.approx([-20736.00056041712] * 3, rel=1e-10)
    assert values[3] == pytest.approx(2.2790601697422286, rel=1e-9)


def test_spectrum_scan_shortfall_exits_5(tmp_path, capsys):
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.001)
    path = write_doc(tmp_path, "deep.json", g)
    assert main(["spectrum", path, "--count", "10"]) == 5
    assert "(scanned window [" in capsys.readouterr().err


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
