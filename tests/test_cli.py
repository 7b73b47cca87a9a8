import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tamagawa.families import (
    FAMILIES,
    ThreeTorsionNormalForm,
    four_torsion_curve,
    two_six_curve,
    two_torsion_curve,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "data" / "fixtures.json"


def run_cli(*args, env_fixtures=None):
    env = dict(os.environ)
    env.pop("TAMAGAWA_FIXTURES", None)
    if env_fixtures:
        env["TAMAGAWA_FIXTURES"] = str(env_fixtures)
    proc = subprocess.run(
        [sys.executable, "-m", "tamagawa.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    return proc


def test_localdata_family_curve():
    proc = run_cli("localdata", "--ai", "1,-3,-3,0,0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert {"p": "3", "kodaira": "I4", "cp": 4, "class": "split", "vdelta": 4} in payload["local"]
    assert payload["c_inf"] == 2
    assert payload["c"] == 8


def test_localdata_singular_is_usage_error():
    proc = run_cli("localdata", "--ai", "0,0,0,0,0")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_localdata_single_prime():
    proc = run_cli("localdata", "--ai", "2,0,1,0,0", "--p", "19")
    payload = json.loads(proc.stdout)
    assert payload["local"] == [
        {"p": "19", "kodaira": "I1", "cp": 1, "class": "split", "vdelta": 1}
    ]


def test_localdata_family_flag():
    proc = run_cli("localdata", "--family", "two-six", "--t", "7/3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["c"] % 12 == 0


def test_torsion_subcommand():
    proc = run_cli("torsion", "--ai", "1,0,1,-19,26")
    payload = json.loads(proc.stdout)
    assert payload["shape"] == "Z/2xZ/6" and payload["order"] == 12


def test_dual3():
    proc = run_cli("dual3", "--a", "2")
    payload = json.loads(proc.stdout)
    assert payload["quotient"] == [8, 0, 19, 0, 0]
    assert payload["split_prime"] == 19
    assert payload["ratio_ord3"] == 1

    proc = run_cli("dual3", "--a", "3")
    assert proc.returncode == 2

    proc = run_cli("dual3", "--a", "0")
    payload = json.loads(proc.stdout)
    assert payload["split_prime"] is None
    assert "note" in payload


def test_check_with_fixtures_env():
    proc = run_cli("check", "--ai", "0,1,0,1,0", env_fixtures=FIXTURES)
    payload = json.loads(proc.stdout)
    assert payload["label"] == "48a4"
    assert payload["divides"] is False
    assert proc.returncode == 0


def test_scan_preset_exit_codes():
    proc = run_cli("scan", "--preset", "prop2.2", "--bound", "4", "--jobs", "1", "--summary")
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["exception_classes"] == []

    proc = run_cli(
        "scan", "--preset", "prop2.1-negative-t", "--jobs", "1", "--summary",
        "--fixtures", str(FIXTURES),
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    labels = {c["label"] for c in summary["exception_classes"]}
    assert labels == {"15a8", "21a4", "24a4"}

    proc = run_cli("scan", "--preset", "nope", "--summary")
    assert proc.returncode == 2


def test_scan_deterministic_output():
    args = ("scan", "--preset", "prop2.1-negative-t", "--jobs", "1")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_output_independent_of_hash_seed():
    # byte-identical output even under different hash randomization
    outs = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop("TAMAGAWA_FIXTURES", None)
        proc = subprocess.run(
            [sys.executable, "-m", "tamagawa.cli", "torsion", "--ai", "1,1,1,-5,2"],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_fixtures_subcommand():
    proc = run_cli("fixtures", "--fixtures", str(FIXTURES))
    payload = json.loads(proc.stdout)
    assert payload["count"] >= 20
    assert "19a1" in payload["labels"]

    proc = run_cli("fixtures")
    assert proc.returncode == 2


def test_pretty_flag_changes_format_not_content():
    compact = run_cli("dual3", "--a", "2").stdout
    pretty = run_cli("dual3", "--a", "2", "--pretty").stdout
    assert json.loads(compact) == json.loads(pretty)
    assert compact != pretty


def test_scan_with_incomplete_curve_prints_all_and_exits_3(monkeypatch, capsys):
    from tamagawa import cli
    from tamagawa.verify import Preset, scan_four_torsion

    preset = Preset(
        "tiny-budget",
        lambda fixtures, budget, jobs, bound: scan_four_torsion(
            [(1, -3), (6260003, 15)], fixtures, budget=1
        ),
        lambda rep: True,
        "a four-torsion scan whose second curve outruns its rho budget",
    )
    monkeypatch.setitem(cli.PRESETS, "prop2.2", preset)
    assert cli.main(["scan", "--preset", "prop2.2", "--jobs", "1"]) == cli.EXIT_INCOMPLETE
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line.get("incomplete") for line in lines[:2]] == [False, True]
    assert lines[2]["curves"] == 2


def test_localdata_minimizes_once(monkeypatch, capsys):
    from tamagawa import cli, curves

    calls = []
    real = curves.minimal_model

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    # every binding of the name, so that an import into cli is counted too
    for module in (curves, cli):
        monkeypatch.setattr(module, "minimal_model", counting, raising=False)
    assert cli.main(["localdata", "--ai", "1,-3,-3,0,0"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        '{"c":8,"c_inf":2,"curve":[1,-3,-3,0,0],"local":['
        '{"class":"split","cp":4,"kodaira":"I4","p":"3","vdelta":4},'
        '{"class":"nonsplit","cp":2,"kodaira":"I2","p":"7","vdelta":2}],'
        '"minimal":[1,0,0,-4,-1]}\n'
    )


def test_localdata_splits_the_strong_pseudoprime(monkeypatch, capsys):
    # a^2 - 4b = 318665857834031151167461 = 399165290221 * 798330580441 is a
    # strong pseudoprime to the bases 2..37; each factor is its own bad prime
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    args = ["localdata", "--family", "two-torsion", "--a", "1", "--b", "-79666464458507787791865"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (
        '{"c":576,"c_inf":2,"curve":[0,1,0,-79666464458507787791865,0],"local":['
        '{"class":"additive","cp":3,"kodaira":"IV","p":"2","vdelta":4},'
        '{"class":"split","cp":6,"kodaira":"I6","p":"3","vdelta":6},'
        '{"class":"split","cp":2,"kodaira":"I2","p":"5","vdelta":2},'
        '{"class":"split","cp":2,"kodaira":"I2","p":"11","vdelta":2},'
        '{"class":"split","cp":2,"kodaira":"I2","p":"17","vdelta":2},'
        '{"class":"split","cp":2,"kodaira":"I2","p":"474349721","vdelta":2},'
        '{"class":"split","cp":2,"kodaira":"I2","p":"6652754837","vdelta":2},'
        '{"class":"nonsplit","cp":1,"kodaira":"I1","p":"399165290221","vdelta":1},'
        '{"class":"split","cp":1,"kodaira":"I1","p":"798330580441","vdelta":1}],'
        '"minimal":[0,1,0,-79666464458507787791865,0]}\n'
    )


# one sample per family: its CLI flags and the curve its constructor builds
FAMILY_SAMPLES = {
    "four-torsion": ({"s": "1", "t": "-3"}, lambda: four_torsion_curve(1, -3)),
    "two-six": ({"t": "7/3"}, lambda: two_six_curve(Fraction(7, 3))),
    "two-torsion": ({"a": "1", "b": "-2"}, lambda: two_torsion_curve(1, -2)),
    "three-torsion": ({"a": "2", "b": "4"}, lambda: ThreeTorsionNormalForm(2, 4).curve),
}


def test_every_family_has_a_cli_sample():
    assert set(FAMILY_SAMPLES) == set(FAMILIES)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_flags_give_the_constructor_curve(name, monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    flags, build = FAMILY_SAMPLES[name]
    argv = ["localdata", "--family", name]
    for param, value in flags.items():
        argv += [f"--{param}", value]
    assert cli.main(argv) == cli.EXIT_OK
    by_family = capsys.readouterr().out
    ai = ",".join(str(k) for k in build().ai())
    assert cli.main(["localdata", f"--ai={ai}"]) == cli.EXIT_OK
    assert by_family == capsys.readouterr().out

    for missing in flags:
        partial = [arg for p, v in flags.items() if p != missing for arg in (f"--{p}", v)]
        assert cli.main(["localdata", "--family", name, *partial]) == cli.EXIT_USAGE
        assert f"--family {name} needs --" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["localdata", "torsion", "check"])
def test_ai_takes_a_negative_a1_after_a_space(command):
    # -3,3,-9,0,0 is four_torsion_curve(1, -3); argparse alone reads it as a flag
    by_family = run_cli(command, "--family", "four-torsion", "--s", "1", "--t", "-3")
    by_ai = run_cli(command, "--ai", "-3,3,-9,0,0")
    assert by_family.returncode == by_ai.returncode == 0
    assert by_ai.stdout == by_family.stdout


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_scan_bound_below_one_is_a_usage_error(bound, monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    args = ["scan", "--preset", "prop2.2", "--bound", bound, "--jobs", "1"]
    assert cli.main(args) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "--bound" in json.loads(err)["error"]


def test_four_torsion_rejects_a_rational_t(monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    args = ["localdata", "--family", "four-torsion", "--s", "1", "--t", "7/3"]
    assert cli.main(args) == cli.EXIT_USAGE
    assert "error" in json.loads(capsys.readouterr().err)


def test_fixtures_rejects_a_non_object_record(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    proc = run_cli("fixtures", "--fixtures", str(bad))
    assert proc.returncode == 2
    assert "must be a JSON object" in json.loads(proc.stderr)["error"]
