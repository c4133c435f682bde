"""Command-line surface: verbs, exit codes, JSON schemas, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ekk
from ekk.adjunction import totalize
from ekk.cli import main
from ekk.dgca import model_s4, semifree_model, toroidify
from ekk.reports import _latex_name, model_from_payload, model_payload


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_pass_exit_zero(capsys):
    code, out = run(capsys, "verify", "--k", "3",
                    "--checks", "chain,cartan,ef,serre,weight")
    assert code == 0
    assert "chain: pass" in out


def test_verify_rejects_bad_inputs(capsys):
    assert main(["verify", "--k", "12"]) == 2
    assert main(["verify", "--k", "3", "--checks", "nope"]) == 2


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parabolic_json_schema(capsys):
    code, out = run(capsys, "parabolic", "--k", "8", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 63, "a": 1, "n": 92, "total": 248}


def test_parabolic_out_of_range(capsys):
    assert main(["parabolic", "--k", "9"]) == 2


def test_derivations_json(capsys):
    code, out = run(capsys, "derivations", "--k", "1", "--mode", "full",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dimension": 5}
    assert main(["derivations", "--k", "2", "--mode", "full"]) == 2


def test_derivations_linear_mode(capsys):
    code, out = run(capsys, "derivations", "--k", "2", "--mode", "linear",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dimension": 5}


def test_roots_counts_and_range(capsys):
    code, out = run(capsys, "roots", "--k", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 120
    assert len(payload["positive"]) == 120
    assert main(["roots", "--k", "9"]) == 2


def test_model_json_roundtrip(capsys):
    code, out = run(capsys, "model", "--k", "2", "--space", "torus",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    payload = report["payload"]
    rebuilt = model_from_payload(payload)
    original = toroidify(model_s4(), 2)
    assert rebuilt.generator_set == original.generator_set
    assert all(rebuilt.diff[g] == original.diff[g]
               for g in original.generators)
    # every rational in the export is an exact p/q string
    for entry in payload["differential"]:
        for term in entry["terms"]:
            assert isinstance(term["coeff"], str)


@pytest.mark.parametrize("corrupt,named", [
    (lambda p: p["generators"].remove({"name": "g4", "degree": 4}), "'g4'"),
    (lambda p: p["generators"].append({"name": "s1w1", "degree": 1}),
     "'s1w1'"),
    (lambda p: p["generators"].append({"name": "4x", "degree": 1}), "'4x'"),
    (lambda p: p["differential"][2]["terms"][0]["monomial"].append("s9g4"),
     "'s9g4'"),
    (lambda p: p["differential"].append({"generator": "s3g7", "terms": []}),
     "'s3g7'"),
    (lambda p: next(e for e in p["generators"]
                    if e["name"] == "s1g4").update(degree=9), "'s1g4'"),
], ids=["no-g4", "decorated-w", "unparseable", "undeclared-factor",
        "undeclared-generator", "wrong-degree"])
def test_model_from_payload_rejects_malformed(corrupt, named):
    payload = model_payload(toroidify(model_s4(), 2))
    corrupt(payload)
    with pytest.raises(ValueError, match=named):
        model_from_payload(payload)


def test_report_determinism_modulo_wall_time(capsys):
    def one():
        _, out = run(capsys, "verify", "--k", "2", "--format", "json")
        data = json.loads(out)
        data.pop("wall_ms")
        return json.dumps(data, sort_keys=False)
    assert one() == one()


GOLDEN_RANK3_LATEX = r"""
d w_{1} &= 0
d w_{2} &= 0
d w_{3} &= 0
d g_{4} &= s_{1} g_{4} \cdot w_{1} + s_{2} g_{4} \cdot w_{2} + s_{3} g_{4} \cdot w_{3}
d s_{1} g_{4} &= -s_{1} s_{2} g_{4} \cdot w_{2} - s_{1} s_{3} g_{4} \cdot w_{3}
d s_{1} s_{2} g_{4} &= s_{1} s_{2} s_{3} g_{4} \cdot w_{3}
d s_{1} s_{2} s_{3} g_{4} &= 0
d s_{1} s_{3} g_{4} &= -s_{1} s_{2} s_{3} g_{4} \cdot w_{2}
d s_{2} g_{4} &= s_{1} s_{2} g_{4} \cdot w_{1} - s_{2} s_{3} g_{4} \cdot w_{3}
d s_{2} s_{3} g_{4} &= s_{1} s_{2} s_{3} g_{4} \cdot w_{1}
d s_{3} g_{4} &= s_{1} s_{3} g_{4} \cdot w_{1} + s_{2} s_{3} g_{4} \cdot w_{2}
d g_{7} &= -\tfrac{1}{2} \, g_{4}^{2} + s_{1} g_{7} \cdot w_{1} + s_{2} g_{7} \cdot w_{2} + s_{3} g_{7} \cdot w_{3}
d s_{1} g_{7} &= g_{4} \cdot s_{1} g_{4} - s_{1} s_{2} g_{7} \cdot w_{2} - s_{1} s_{3} g_{7} \cdot w_{3}
d s_{1} s_{2} g_{7} &= -g_{4} \cdot s_{1} s_{2} g_{4} - s_{1} g_{4} \cdot s_{2} g_{4} + s_{1} s_{2} s_{3} g_{7} \cdot w_{3}
d s_{1} s_{2} s_{3} g_{7} &= g_{4} \cdot s_{1} s_{2} s_{3} g_{4} + s_{1} g_{4} \cdot s_{2} s_{3} g_{4} + s_{1} s_{2} g_{4} \cdot s_{3} g_{4} - s_{1} s_{3} g_{4} \cdot s_{2} g_{4}
d s_{1} s_{3} g_{7} &= -g_{4} \cdot s_{1} s_{3} g_{4} - s_{1} g_{4} \cdot s_{3} g_{4} - s_{1} s_{2} s_{3} g_{7} \cdot w_{2}
d s_{2} g_{7} &= g_{4} \cdot s_{2} g_{4} + s_{1} s_{2} g_{7} \cdot w_{1} - s_{2} s_{3} g_{7} \cdot w_{3}
d s_{2} s_{3} g_{7} &= -g_{4} \cdot s_{2} s_{3} g_{4} - s_{2} g_{4} \cdot s_{3} g_{4} + s_{1} s_{2} s_{3} g_{7} \cdot w_{1}
d s_{3} g_{7} &= g_{4} \cdot s_{3} g_{4} + s_{1} s_{3} g_{7} \cdot w_{1} + s_{2} s_{3} g_{7} \cdot w_{2}
""".strip()


def _normalize(text):
    lines = []
    for line in text.splitlines():
        line = " ".join(line.replace(r"\\", " ").split()).strip()
        if line and not line.startswith(("\\begin", "\\end")):
            lines.append(line)
    return lines


def test_model_latex_golden(capsys):
    code, out = run(capsys, "model", "--k", "3", "--format", "latex")
    assert code == 0
    assert _normalize(out) == _normalize(GOLDEN_RANK3_LATEX)


def test_latex_names_of_odd_base_symbols():
    odd = toroidify(semifree_model(
        "odd", [("x_1", 1), ("yz", 2), ("a10b2", 3)]), 2)
    tot = totalize(toroidify(model_s4(), 2, truncated=False), 2)
    names = {m.name_of(g): _latex_name(g, m)
             for m in (odd, tot) for g in m.generators}
    assert {n: names[n] for n in ["x_1", "yz", "s1yz", "a10b2", "s1s2a10b2",
                                  "w2", "sw2", "s1s2g7"]} == {
        "x_1": "x __{1}",
        "yz": "y z",
        "s1yz": "s_{1} y z",
        "a10b2": "a_{10} b_{2}",
        "s1s2a10b2": "s_{1} s_{2} a_{10} b_{2}",
        "w2": "w_{2}",
        "sw2": "sw_{2}",
        "s1s2g7": "s_{1} s_{2} g_{7}",
    }


def test_cyclic_model_display_names(capsys):
    code, out = run(capsys, "model", "--k", "1", "--space", "cyclic")
    assert code == 0
    assert "d g4 = sg4*w" in out
    assert "w1" not in out.replace("sw1", "")


def test_table1_contents(capsys):
    code, out = run(capsys, "table1", "--kmin", "3", "--kmax", "6",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    by_k = {r["k"]: r for r in rows}
    assert by_k[3]["nilradical"] == 1
    assert by_k[6]["nilradical"] == 21
    assert by_k[6]["levi"] == 35
    assert by_k[6]["det"] == 3
    assert by_k[5]["positive_roots"] == 20
    assert all(r["verified"] for r in rows)


def test_table1_high_rank_cartan_only(capsys):
    code, out = run(capsys, "table1", "--kmin", "10", "--kmax", "10",
                    "--format", "json")
    assert code == 0
    row = json.loads(out)["payload"]["rows"][0]
    assert row["det"] == -1
    assert "positive_roots" not in row
    assert "verified" not in row


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["parabolic", "--k", "5", "--format", "json",
                 "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == \
        {"m": 24, "a": 1, "n": 10, "total": 45}


def test_adjunction_demo(capsys):
    code, out = run(capsys, "adjunction-demo", "--k", "2", "--seed", "3",
                    "--samples", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert len(data["payload"]["samples"]) == 4


def test_model_spaces(capsys):
    code, out = run(capsys, "model", "--k", "0", "--space", "sphere")
    assert code == 0 and "d g7 = -1/2*g4^2" in out
    code, out = run(capsys, "model", "--k", "2", "--space", "loop",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["generators"]) == 8  # no w generators
    assert all(not g["name"].startswith("w")
               for g in payload["generators"])


def test_model_untruncated_flag(capsys):
    code, out = run(capsys, "model", "--k", "4", "--untruncated",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    # the untruncated rank-4 model keeps the degree-0 decoration of g4
    names = {g["name"] for g in payload["generators"]}
    assert "s1s2s3s4g4" in names
    truncated_names = {g.name for g in toroidify(model_s4(), 4).generators}
    assert "s1s2s3s4g4" not in truncated_names


def test_verify_payload_schema(capsys):
    code, out = run(capsys, "verify", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    for entry in data["payload"]["checks"]:
        assert set(entry) == {"k", "check", "status", "failures"}
        assert entry["k"] == 2


@pytest.mark.parametrize("argv", [
    ["model", "--k", "-1"],
    ["model", "--k", "2", "--space", "sphere", "--untruncated"],
    ["model", "--k", "2", "--space", "loop", "--untruncated"],
    ["model", "--k", "1", "--space", "cyclic", "--untruncated"],
    ["model", "--k", "65"],
    ["model", "--k", "12"],
    ["model", "--k", "5", "--space", "sphere"],
    ["model", "--k", "2", "--space", "cyclic"],
    ["verify", "--k", "3", "--checks", ","],
    ["adjunction-demo", "--samples", "0"],
    ["adjunction-demo", "--samples", "-3"],
    ["parabolic", "--k", "5", "--out", "/nonexistent/dir/x.json"],
    ["verify", "--k", "abc"],
    ["verify"],
    ["verify", "--k", "3", "--format", "latex"],
    ["verify", "--k", "3", "--jobs", "2"],
    ["table1", "--kmin", "5", "--kmax", "3"],
    ["adjunction-demo", "--k", "4"],
    ["derivations", "--k", "65"],
    ["derivations", "--k", "12"],
])
def test_model_bad_input_one_line_exit_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_derivations_negative_rank_message(capsys):
    assert main(["derivations", "--k", "-1"]) == 2
    assert capsys.readouterr().err == "derivations supports 0 <= k <= 11\n"


# stdout of each command, captured before the model constructors were merged,
# with the informational top-level "wall_ms" line removed
GOLDEN_CLI = json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text())
_WALL_MS = re.compile(r'^  "wall_ms": .*\n', re.M)


@pytest.mark.parametrize("case", GOLDEN_CLI,
                         ids=[" ".join(c["argv"]) for c in GOLDEN_CLI])
def test_cli_output_matches_golden_capture(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert _WALL_MS.sub("", out) == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN_CLI,
                         ids=[" ".join(c["argv"]) for c in GOLDEN_CLI])
def test_cli_out_file_matches_golden_capture(tmp_path, capsys, case):
    path = tmp_path / "out.txt"
    code = main(case["argv"] + ["--out", str(path)])
    assert code == case["exit"]
    assert capsys.readouterr().out == ""
    assert _WALL_MS.sub("", path.read_text()) == case["stdout"]


def test_python_m_ekk_prints_bare_payload():
    env = dict(os.environ,
               PYTHONPATH=str(Path(ekk.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "ekk", "parabolic", "--k", "8",
         "--format", "json"], capture_output=True, text=True, env=env,
        timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"m": 63, "a": 1, "n": 92, "total": 248}
    assert done.stderr == ""


def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify built an action before checking --out")

    monkeypatch.setattr("ekk.cli.build_action", no_work)
    path = tmp_path / "missing" / "x.json"
    code = main(["verify", "--k", "11", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("cannot write --out")


def test_out_probe_leaves_no_file_on_later_failure(tmp_path, capsys):
    path = tmp_path / "x.json"
    assert main(["verify", "--k", "12", "--out", str(path)]) == 2
    assert not path.exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken\nover two lines")

    monkeypatch.setattr("ekk.cli.build_action", broken)
    code = main(["verify", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: RuntimeError")
    assert "Traceback" not in captured.err
