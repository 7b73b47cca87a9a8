import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa.families import (
    FAMILIES,
    ThreeTorsionNormalForm,
    four_torsion_curve,
    two_six_curve,
    two_torsion_curve,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "data" / "fixtures.json"


def _child_env(**extra) -> dict:
    """The environment of a child interpreter: src first on its path, no fixture file."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **extra)
    env.pop("TAMAGAWA_FIXTURES", None)
    return env


def run_cli(*args, env_fixtures=None):
    env = _child_env()
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


def test_localdata_rejects_a_negative_prime():
    proc = run_cli("localdata", "--ai", "1,-3,-3,0,0", "--p", "-5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "-5 is not prime"}


def test_localdata_family_flag():
    proc = run_cli("localdata", "--family", "two-six", "--t", "7/3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["c"] % 12 == 0


def test_torsion_subcommand():
    proc = run_cli("torsion", "--ai", "1,0,1,-19,26")
    payload = json.loads(proc.stdout)
    assert payload["shape"] == "Z/2xZ/6" and payload["order"] == 12


def test_torsion_needs_no_factored_discriminant(monkeypatch, capsys):
    # the discriminant is 5 times a 106-bit composite that the default rho
    # budget does not split, and torsion never factors it
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main(["torsion", "--ai", "0,0,1,-7,834124757876265"]) == cli.EXIT_OK
    assert capsys.readouterr().out == '{"generators":[],"order":1,"shape":"Z/1"}\n'


def test_dual3():
    proc = run_cli("dual3", "--a", "2")
    payload = json.loads(proc.stdout)
    assert payload["quotient"] == [8, 0, 19, 0, 0]
    assert payload["split_prime"] == 19
    assert payload["ratio_ord3"] == 1

    proc = run_cli("dual3", "--a", "3")
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": "(a=3, b=1) is singular"}

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


def test_scan_into_a_pipe_closed_after_one_line_exits_141():
    # kozuma-table prints far more than a pipe buffer holds, so the child is
    # still writing when the reader goes away, as under `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "tamagawa.cli", "scan", "--preset", "kozuma-table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=REPO,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "params" in first
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_scan_deterministic_output():
    args = ("scan", "--preset", "prop2.1-negative-t", "--jobs", "1")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_output_independent_of_hash_seed():
    # byte-identical output even under different hash randomization
    outs = set()
    for seed in ("0", "1", "31337"):
        env = _child_env(PYTHONHASHSEED=seed)
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


EMITTING = {
    "localdata": ["localdata", "--ai", "1,-3,-3,0,0"],
    "check": ["check", "--ai", "0,1,1,-9,-15", "--fixtures", str(FIXTURES)],
    "dual3": ["dual3", "--a", "2"],
    "fixtures": ["fixtures", "--fixtures", str(FIXTURES)],
    "scan --summary": ["scan", "--preset", "prop2.4", "--summary"],
}


@pytest.mark.parametrize("command", sorted(EMITTING))
def test_output_is_what_json_dumps_wrote(command, monkeypatch, capsys):
    # the golden digests cover compact scan lines only; these are the other
    # commands' bytes, against json.dumps with the arguments the CLI used
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main(EMITTING[command]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
    assert cli.main([*EMITTING[command], "--pretty"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_scan_runs_in_one_process_without_jobs(monkeypatch, capsys):
    import concurrent.futures

    from tamagawa import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan without --jobs started a process pool")

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.main(["scan", "--preset", "prop2.1-negative-t", "--summary"]) == 0
    # the patch sits where a pool is made: --jobs 2 reaches it
    with pytest.raises(AssertionError, match="started a process pool"):
        cli.main(["scan", "--preset", "prop2.1-negative-t", "--summary", "--jobs", "2"])


@pytest.mark.parametrize("cpus, workers", [(64, 23), (3, 3), (None, 1)])
def test_scan_pool_has_no_more_workers_than_curves_or_cpus(cpus, workers, monkeypatch, capsys):
    import concurrent.futures

    from tamagawa import cli, verify

    pools = []

    class InProcessPool:
        """Records what a pool would be given and maps in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            self.items, self.chunksize = len(items), chunksize
            return map(fn, items)

    scan = ["scan", "--preset", "dual-ledger", "--bound", "360", "--summary", "--jobs"]
    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main([*scan, "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli.main([*scan, "5000"]) == 0
    assert capsys.readouterr().out == serial
    # the pool maps chunks: 720 curves, a from -360 to 360 but 3, in 23 chunks of up to 32
    assert verify.CHUNK == 32
    [pool] = pools
    assert (pool.items, pool.max_workers) == (23, workers)
    assert pool.chunksize == max(1, 23 // (4 * workers))


def test_scan_with_incomplete_curve_prints_all_and_exits_3(monkeypatch, capsys, cap_rho):
    from tamagawa import cli
    from tamagawa.verify import Preset, scan_four_torsion

    # a four-torsion scan whose second curve outruns its rho budget
    preset = Preset(
        lambda fixtures, jobs, bound: scan_four_torsion([(1, -3), (6260003, 15)], fixtures),
        lambda rep: True,
    )
    monkeypatch.setitem(cli.PRESETS, "prop2.2", preset)
    cap_rho(1)
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


def test_t_takes_a_negative_rational_after_a_space(monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main(["localdata", "--family", "two-six", "--t=-7/3"]) == cli.EXIT_OK
    joined = capsys.readouterr().out
    assert cli.main(["localdata", "--family", "two-six", "--t", "-7/3"]) == cli.EXIT_OK
    assert capsys.readouterr().out == joined


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_scan_bound_below_one_is_a_usage_error(bound, monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    args = ["scan", "--preset", "prop2.2", "--bound", bound, "--jobs", "1"]
    assert cli.main(args) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "--bound" in json.loads(err)["error"]


def test_scan_refuses_bound_on_a_preset_without_one(monkeypatch, capsys):
    """--bound is a usage error on the three presets that scan a fixed set of
    curves, rather than a flag they ignore, and is used by the other four."""
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    refused = []
    for name in sorted(cli.PRESETS):
        code = cli.main(["scan", "--preset", name, "--bound", "2", "--jobs", "1", "--summary"])
        out, err = capsys.readouterr()
        if code == cli.EXIT_USAGE:
            assert out == "", name
            error = json.loads(err)["error"]
            assert "--bound" in error and name in error, error
            refused.append(name)
        else:
            assert code == cli.EXIT_OK and err == "", name
            assert json.loads(out)["curves"] > 0, name
    assert refused == ["prop2.1-negative-t", "prop2.1-random", "prop2.4"]


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


@pytest.mark.parametrize("command", ["localdata", "torsion", "check"])
def test_two_six_t_with_zero_denominator_is_a_usage_error(command, monkeypatch, capsys):
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main([command, "--family", "two-six", "--t", "1/0"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "zero denominator" in json.loads(err)["error"]


def test_fixture_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[1")
    for args in (["fixtures"], ["check", "--ai", "0,0,1,-1,0"]):
        proc = run_cli(*args, "--fixtures", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "utf-8" in json.loads(proc.stderr)["error"]


def test_fixture_file_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    records = json.loads(FIXTURES.read_text(encoding="utf-8"))
    records[0]["lmfdb"] = "11.a3 \u2013 Cremona 11a3"
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(records, ensure_ascii=False), encoding="utf-8")
    env = _child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "tamagawa.cli", "fixtures", "--fixtures", str(path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == len(records)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_scan_jobs_below_one_is_a_usage_error(jobs, monkeypatch, capsys):
    import concurrent.futures

    from tamagawa import cli, verify

    def no_scan(*args, **kwargs):
        raise AssertionError("a scan with --jobs below 1 ran")

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_scan)
    monkeypatch.setitem(cli.PRESETS, "prop2.2", verify.Preset(no_scan, no_scan))
    assert cli.main(["scan", "--preset", "prop2.2", f"--jobs={jobs}"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "--jobs" in json.loads(err)["error"]


# flat params over the families' parameter names, with every kind of value a
# params dict can hold, and labels that spell the key the sort looks for
_PARAM_VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions().map(str),
    st.booleans(),
    st.none(),
    st.text(),
)
_PARAMS = st.dictionaries(st.sampled_from(["a", "b", "s", "t", "semistable"]), _PARAM_VALUES)
_LABELS = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(['"params":{', '"params":', '"params', 'x"params":{"a":1}']),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PARAMS, _LABELS), max_size=12))
def test_scan_lines_sort_as_json_dumps_of_their_params(items):
    from tamagawa import cli
    from tamagawa.verify import VerdictReport

    reports = [VerdictReport(label=label, params=params) for params, label in items]
    ordered = cli._in_params_order(reports)
    keys = [json.dumps(r.params, sort_keys=True) for _, r in ordered]
    assert keys == sorted(json.dumps(r.params, sort_keys=True) for r in reports)
    for line, r in ordered:
        assert line == json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))


def test_compact_scan_encodes_each_report_once(monkeypatch, capsys):
    from tamagawa import cli

    encoded = []
    real = json.JSONEncoder.iterencode

    def counting(self, o, _one_shot=False):
        encoded.append(o)
        return real(self, o, _one_shot)

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
    assert cli.main(["scan", "--preset", "prop2.4", "--jobs", "1"]) == cli.EXIT_OK
    # prop2.4 has 23 curves: one encoding each, and one for the summary
    assert len(capsys.readouterr().out.splitlines()) == 24
    assert len(encoded) == 24


def test_scan_report_without_params_is_an_error_not_a_usage_error(monkeypatch, capsys):
    from tamagawa import cli
    from tamagawa.verify import Preset, ScanReport, VerdictReport

    stray = VerdictReport(label='"params":{', divides=True)
    reports = [VerdictReport(params={"a": 1}), stray]
    preset = Preset(
        lambda fixtures, jobs, bound: ScanReport("stray", reports, {}, []), lambda rep: True
    )
    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    monkeypatch.setitem(cli.PRESETS, "prop2.4", preset)
    with pytest.raises(RuntimeError, match="scan report without params") as raised:
        cli.main(["scan", "--preset", "prop2.4"])
    assert repr(stray) in str(raised.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args", [["--preset", "prop2.4"], ["--preset", "dual-ledger", "--bound", "5"]]
)
def test_pretty_scan_indents_the_compact_lines_in_their_order(args, monkeypatch, capsys):
    # the golden digests are of compact output; these are --pretty's bytes
    from tamagawa import cli

    monkeypatch.delenv("TAMAGAWA_FIXTURES", raising=False)
    assert cli.main(["scan", *args, "--jobs", "1"]) == cli.EXIT_OK
    compact = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert cli.main(["scan", *args, "--jobs", "1", "--pretty"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    decoder, at, pretty = json.JSONDecoder(), 0, []
    while at < len(out):
        obj, end = decoder.raw_decode(out, at)
        assert out[at:end] == json.dumps(obj, indent=2, sort_keys=True)
        assert out[end] == "\n"
        pretty.append(obj)
        at = end + 1
    assert len(pretty) > 1
    assert pretty == compact
