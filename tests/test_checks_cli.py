import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shiftrank import BINARY, QQ, PrimeField
from shiftrank.checks import SUITES, run_suite
from shiftrank.errors import BadConfig


def _run(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "shiftrank", *args],
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass(suite):
    results = run_suite(suite, BINARY, QQ, seed=7)
    assert results
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_suites_pass_over_f7():
    for suite in ("hom", "oracle", "sylvester"):
        results = run_suite(suite, BINARY, PrimeField(7), seed=11)
        assert all(r.ok for r in results)


def test_unknown_suite():
    with pytest.raises(BadConfig):
        run_suite("nope", BINARY, QQ, seed=0)


def test_cli_towers():
    out = _run("towers", "--level", "0", "--kmax", "3")
    assert out.returncode == 0
    assert out.stdout.splitlines()[:3] == [
        "11  k=1  mu=1/4",
        "101  k=2  mu=1/8",
        "1001  k=3  mu=1/16",
    ]
    assert "tail: 5/16" in out.stdout
    out1 = _run("towers", "--level", "1", "--kmax", "1")
    assert out1.returncode == 0
    assert out1.stdout.splitlines()[0] == "1111  k=1  mu=1/16"


def test_cli_towers_json_deterministic():
    a = _run("towers", "--level", "1", "--kmax", "6", "--json")
    b = _run("towers", "--level", "1", "--kmax", "6", "--json")
    assert a.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["words"][0] == {"level": 1, "k": 1, "content": "1111", "measure": "1/16"}


def test_cli_bad_config_exit_2():
    out = _run("towers", "--system", "bernoulli:2:1/2,1/3")
    assert out.returncode == 2
    assert "config error" in out.stderr
    out = _run("rank", "--expr", "t", "--field", "f:9")
    assert out.returncode == 2
    for args in (("towers", "--level", "-1", "--kmax", "3"),
                 ("rank", "--expr", "chi(0;0)", "--level", "1", "--kmax", "-3"),
                 ("rank", "--expr", "chi(0;0)", "--level", "-1", "--kmax", "4"),
                 ("bratteli", "--from", "-1", "--kmax", "3"),
                 ("check", "--suite", "oracle", "--level", "-5", "--kmax", "-2")):
        out = _run(*args)
        assert out.returncode == 2, args
        assert "config error" in out.stderr and out.stdout == ""


def test_cli_rank_high_degree_returns():
    # every degree-d coefficient of (t+1)^p meets its strip: eps = sum d/2
    for power, eps in ((24, "150"), (40, "410")):
        out = _run("rank", "--json", "--level", "0", "--kmax", "4",
                   "--expr", f"(t+1)^{power}", timeout=10)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["epsilon"] == eps
        assert Fraction(doc["lower"]) <= 1 <= Fraction(doc["upper"])


def test_cli_parse_error_exit_3():
    out = _run("rank", "--expr", "t +")
    assert out.returncode == 3
    assert "parse error" in out.stderr
    out = _run("rank", "--expr", "chi(0;7)")
    assert out.returncode == 3
    out = _run("rank", "--expr", "(t+1)^65")
    assert out.returncode == 3 and "position 5" in out.stderr and out.stdout == ""


def test_cli_rank_expr():
    out = _run("rank", "--expr", "t * t'", "--level", "1", "--kmax", "8", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["upper"] == "1"
    assert doc["dim"] == 1 and doc["field"] == "Q"
    out2 = _run("rank", "--expr", "chi(0;0)", "--level", "1", "--kmax", "12", "--json")
    doc2 = json.loads(out2.stdout)
    assert out2.returncode == 0 and "/" in doc2["lower"]


def test_cli_rank_auto_raises_level():
    out = _run("rank", "--expr", "chi(-2;11)", "--level", "0", "--kmax", "6", "--json")
    assert out.returncode == 0
    assert "raising level" in out.stderr
    doc = json.loads(out.stdout)
    assert doc["level"] == 2


def test_cli_rank_matrix_file(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["t", "1"], ["1", "t'"]]))
    out = _run("rank", "--matrix", str(mfile), "--level", "1", "--kmax", "10", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["dim"] == 2
    from fractions import Fraction

    assert Fraction(doc["lower"]) <= 1 <= Fraction(doc["upper"])
    out2 = _run("rank", "--matrix", str(tmp_path / "missing.json"))
    assert out2.returncode == 2
    out3 = _run("rank", "--expr", "t", "--matrix", str(mfile))
    assert out3.returncode == 2


def test_cli_measure():
    out = _run("measure", "--clopen", "chi(-1;111)")
    assert out.returncode == 0 and out.stdout.strip() == "1/8"
    out = _run("measure", "--clopen", "chi(0;1) * chi(1;0)")
    assert out.returncode == 0 and out.stdout.strip() == "1/4"
    out = _run("measure", "--clopen", "t")
    assert out.returncode == 2
    out = _run("measure", "--clopen", "2 * chi(0;1)")
    assert out.returncode == 2


def test_cli_periodic():
    out = _run("periodic", "--word", "0", "--expr", "t - 1")
    assert out.returncode == 0
    assert "kt-rank 1" in out.stdout and "rho-rank 0" in out.stdout
    out = _run("periodic", "--word", "0", "--expr", "t - 1", "--eval", "2", "--json")
    doc = json.loads(out.stdout)
    assert doc["eval_rank"] == "1"


def test_cli_bratteli():
    out = _run("bratteli", "--from", "0", "--kmax", "6", "--format", "dot")
    assert out.returncode == 0
    assert out.stdout.startswith("digraph")
    out_json = _run("bratteli", "--from", "0", "--kmax", "6", "--format", "json")
    doc = json.loads(out_json.stdout)
    fine = {v["content"] for v in doc["vertices"] if v["level"] == 1}
    indeg = {c: 0 for c in fine}
    for e in doc["edges"]:
        if e["to"]["level"] == 1:
            indeg[e["to"]["content"]] += e["multiplicity"]
    assert all(v >= 1 for v in indeg.values())


def test_cli_check_suite():
    out = _run("check", "--suite", "mass", "--seed", "7")
    assert out.returncode == 0
    assert "suite mass: PASS" in out.stdout
    out = _run("check", "--suite", "hom", "--seed", "7", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"] is True and doc["failures"] == []
    out = _run("check", "--suite", "bogus")
    assert out.returncode == 2


def test_cli_check_deterministic():
    a = _run("check", "--suite", "oracle", "--seed", "3", "--json")
    b = _run("check", "--suite", "oracle", "--seed", "3", "--json")
    assert a.stdout == b.stdout


def test_cli_lamplighter_preset():
    out = _run("towers", "--preset", "lamplighter:1", "--kmax", "4")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0].startswith("1111 ") and lines[1].startswith("1110111 ")


def test_scripts_run():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for script in (["rank_demo.py"], ["tail_decay.py", "--level", "1", "--caps", "4,8"]):
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / script[0]), *script[1:]],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert out.returncode == 0, out.stderr
