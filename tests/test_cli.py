import json
import time
import warnings
from pathlib import Path

import pytest

from helpers import relabel, run_python
from kfam import cli, covers
from kfam.cli import run
from kfam.errors import InvariantError
from kfam.fileio import load_family, save_family
from kfam.formulas import fprime3

FIXTURES = Path(__file__).parent / "fixtures"


def _invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def test_construct_then_tau_round_trip(tmp_path, capsys):
    path = str(tmp_path / "c3.fam")
    code, report = _invoke(capsys, ["construct", "c3", "--n", "10", "--k", "4", "-o", path])
    assert code == 0
    assert report["results"]["size"] == 61
    code, report = _invoke(capsys, ["tau", path])
    assert code == 0
    assert report["results"]["tau"] == 3
    assert report["schema"] == "kfam-report/1"


def test_verify_formula_c3(capsys):
    code, report = _invoke(capsys, ["verify", "formula", "--name", "c3", "--n", "10", "--k", "4"])
    assert code == 0
    (check,) = report["checks"]
    assert check["pass"] and check["lhs"] == check["rhs"] == 61


def test_search_cnkt_json(capsys):
    code, report = _invoke(capsys, ["search", "cnkt", "--n", "7", "--k", "3", "--t", "3"])
    assert code == 0
    assert report["results"]["optimum"] == 10
    assert len(report["results"]["witnesses"]) >= 1


def test_report_structure_and_check_sides(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["tau", str(fixtures_dir / "t2_k4.fam"), "--expect", "2"])
    assert code == 0
    assert set(report) == {"schema", "command", "params", "results", "checks", "runtime_ms"}
    assert isinstance(report["runtime_ms"], int)
    (check,) = report["checks"]
    assert {"name", "pass", "lhs", "rhs"} <= set(check)


@pytest.mark.parametrize("argv, message", [
    (["stats", "{dir}"], "Is a directory"),
    (["stats", "{binary}"], "not a text file"),
    (["construct", "c3", "--n", "9", "--k", "4", "-o", "{dir}"], "Is a directory"),
])
def test_unreadable_or_unwritable_path_exits_two(capsys, tmp_path, argv, message):
    binary = tmp_path / "binary.fam"
    binary.write_bytes(bytes(range(256)))
    assert run([a.format(dir=tmp_path, binary=binary) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_failed_check_exits_one(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["tau", str(fixtures_dir / "t2_k4.fam"), "--expect", "5"])
    assert code == 1
    assert report["checks"][0]["pass"] is False
    assert report["checks"][0]["lhs"] == 2
    assert report["checks"][0]["rhs"] == 5


def test_usage_and_domain_errors_exit_two(capsys, tmp_path, fixtures_dir, monkeypatch):
    assert run(["no-such-command"]) == 2
    assert run(["tau", str(tmp_path / "missing.fam")]) == 2
    # Arabic-Indic digits are refused in the header as they are in labels
    arabic = tmp_path / "arabic.fam"
    arabic.write_text("n=\u0661\u0662\n1 2\n")
    assert run(["stats", str(arabic)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: line 1: expected 'n=<ground size>', got 'n=\u0661\u0662'\n")
    assert run(["construct", "c3", "--n", "5", "--k", "4"]) == 2
    assert run(["verify", "grid", "--name", "f-mono", "--ranges", "{bad json"]) == 2
    assert run(["verify", "grid", "--name", "f-mono", "--ranges", '{"k": 5}']) == 2
    assert "--ranges" in capsys.readouterr().err
    assert run(["verify", "grid", "--name", "unknown-grid"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["construct", "c3", "--k", "4"]) == 2
    assert capsys.readouterr().err == "error: construct c3 needs --n\n"
    assert run(["construct", "t2prime", "--n", "8"]) == 2
    assert capsys.readouterr().err == "error: construct t2prime needs --s\n"
    assert run(["verify", "formula", "--name", "kz", "--n", "9"]) == 2
    assert capsys.readouterr().err == "error: verify formula kz needs --a --b\n"
    assert run(["switch", str(fixtures_dir / "switch_small_n9_k5.fam")]) == 2
    assert "n >= 2k" in capsys.readouterr().err
    assert run(["verify", "grid", "--name", "f-mono", "--ranges", '{"q": [4]}']) == 2
    assert capsys.readouterr().err == (
        "error: grid f-mono has no dimension q; its dimensions are k, s, m, z\n")
    # a repeated value would count one point twice
    assert run(["verify", "grid", "--name", "f-mono", "--ranges",
                '{"k": [4], "s": [3], "m": [9], "z": [3, 3]}']) == 2
    assert capsys.readouterr().err == (
        "error: grid f-mono lists z=3 more than once in its ranges\n")
    for ratio in ("abc", "1/0"):
        assert run(["spread", str(fixtures_dir / "t2_k4.fam"), "--r", ratio]) == 2
        assert capsys.readouterr().err.startswith("error: --r must be a ratio")
    # an option the command would ignore is refused, not echoed in the params
    assert run(["construct", "c3", "--n", "9", "--k", "4", "--s", "3"]) == 2
    assert capsys.readouterr().err == "error: construct c3 takes no --s\n"
    assert run(["verify", "formula", "--name", "c3", "--n", "9", "--k", "4", "--z", "3"]) == 2
    assert capsys.readouterr().err == "error: verify formula c3 takes no --z\n"
    assert run(["minimal-tau2", str(fixtures_dir / "c3_n9_k4.fam"), "--m", "6", "--s", "3"]) == 2
    assert "only without a file" in capsys.readouterr().err
    for m, s in (("4", "0"), ("3", "4")):
        assert run(["minimal-tau2", "--m", m, "--s", s]) == 2
        assert capsys.readouterr().err == f"error: need 1 <= s <= m, got m={m} s={s}\n"
    assert run(["minimal-tau2", "--m", "13", "--s", "3"]) == 2
    assert "supported range is s <= 5, m <= 12" in capsys.readouterr().err
    t2_k4 = str(fixtures_dir / "t2_k4.fam")
    for argv, message in (
        (["minimal-tau2"], "need either a family file or both --m and --s"),
        (["hitcount", t2_k4, "--t", "8"], "need 0 <= t <= n, got t=8 n=7"),
        (["hitcount", t2_k4, "--t", "-1"], "need 0 <= t <= n, got t=-1 n=7"),
        (["construct", "star", "--n", "9", "--k", "0"], "need 1 <= k <= n, got n=9 k=0"),
        (["construct", "t2", "--k", "1"], "need k >= 2, got k=1"),
        (["construct", "t2prime", "--s", "0"], "need s >= 1, got s=0"),
    ):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a broken internal guarantee is a bug, told apart from a failed check (1)
    def broken(fam):
        raise InvariantError("exchange shrank the family")
    monkeypatch.setattr(cli, "switch_pipeline", broken)
    assert run(["switch", str(fixtures_dir / "c3_n9_k4.fam")]) == 3
    assert capsys.readouterr().err == "internal error: exchange shrank the family\n"


def test_minimal_tau2_without_representative_exits_three(capsys, fixtures_dir, monkeypatch):
    monkeypatch.setattr(covers, "_rep_pool", lambda members, idx: 0)
    assert run(["minimal-tau2", str(fixtures_dir / "c3_n9_k4.fam")]) == 3
    assert capsys.readouterr().err == (
        "internal error: minimal two-cover subfamily without representatives\n")


def test_invariant_failure_reports_json_error(capsys, fixtures_dir, monkeypatch):
    def broken(args, fam):
        raise InvariantError("tau drifted")
    handler, help_, options = cli.COMMANDS[("tau",)]
    monkeypatch.setitem(cli.COMMANDS, ("tau",), (broken, help_, options))
    path = str(fixtures_dir / "t2_k4.fam")
    assert run(["tau", path, "--expect", "2"]) == 3
    out, err = capsys.readouterr()
    assert err == "internal error: tau drifted\n"
    report = json.loads(out)
    assert set(report) == {"schema", "command", "params", "error", "runtime_ms"}
    assert report["schema"] == "kfam-report/1"
    assert report["command"] == "tau"
    assert report["params"] == {"family": path, "expect": 2}
    assert report["error"] == {"kind": "invariant", "message": "tau drifted"}


def test_stats_fixture(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["stats", str(fixtures_dir / "c3_n9_k4.fam")])
    assert code == 0
    res = report["results"]
    assert res["size"] == 48
    assert res["uniform_k"] == 4
    assert res["intersecting"] is True
    assert res["max_degree_element"] == 1
    assert res["diversity"] == 3


def test_stats_of_empty_family(capsys, tmp_path):
    path = tmp_path / "empty.fam"
    path.write_text("n=5\n")
    code, report = _invoke(capsys, ["stats", str(path)])
    assert code == 0
    res = report["results"]
    assert (res["size"], res["max_degree"], res["max_degree_element"], res["diversity"]) == (
        0, 0, None, 0)
    assert res["members"] == []


def test_duplicate_member_warned_on_stderr_on_every_run(capsys, tmp_path):
    path = tmp_path / "dup.fam"
    path.write_text("n=5\n1 2\n1 2\n")
    runs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report does not depend on the caller's filters
            code = run(["stats", str(path)])
        out, err = capsys.readouterr()
        report = json.loads(out)
        report.pop("runtime_ms")
        runs.append((code, report, err))
    assert runs[0] == runs[1]
    assert runs[0][2] == "warning: duplicate member at line 3 dropped\n"
    assert runs[0][1]["results"]["members"] == [[1, 2]]


def test_formula_fprime3_evaluated_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fprime3", lambda *a: calls.append(a) or fprime3(*a))
    code, report = _invoke(
        capsys, ["verify", "formula", "--name", "fprime3", "--m", "10", "--s", "4", "--k", "4"])
    assert code == 0
    assert calls == [(10, 4, 4)]
    assert report["results"] == {"fprime3": fprime3(10, 4, 4), "gap": 3}


def test_hitcount(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["hitcount", str(fixtures_dir / "t2_k4.fam"), "--t", "2"])
    assert code == 0
    assert report["results"]["count"] == 13


def test_minimal_tau2_census(capsys):
    code, report = _invoke(capsys, ["minimal-tau2", "--m", "6", "--s", "3"])
    assert code == 0
    assert report["results"]["class_count"] == 4
    assert report["checks"][0]["pass"]


def test_minimal_tau2_from_file(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["minimal-tau2", str(fixtures_dir / "t2_k4.fam")])
    assert code == 0
    assert len(report["results"]["subfamily"]) == 3
    assert report["results"]["representative_pools"] == [[5, 6, 7], [2], [1]]


def test_minimal_tau2_from_file_below_two(capsys, tmp_path):
    path = tmp_path / "star.fam"
    path.write_text("n=5\n1 2\n1 3\n")
    code, report = _invoke(capsys, ["minimal-tau2", str(path)])
    assert code == 0
    assert report["params"] == {"family": str(path)}
    assert report["results"] == {"subfamily": None, "note": "covering number below 2"}
    assert report["checks"] == []


def test_shift_subcommand(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["shift", str(fixtures_dir / "t2_k4.fam"), "--i", "1", "--j", "2"])
    assert code == 0
    assert report["results"]["changed"] is False
    assert report["checks"][0]["pass"]


def test_switch_subcommand(capsys, fixtures_dir, tmp_path):
    trace = str(tmp_path / "trace.json")
    code, report = _invoke(
        capsys, ["switch", str(fixtures_dir / "c3_n10_k4.fam"), "--trace", trace]
    )
    assert code == 0
    assert report["results"]["status"] == "converged"
    assert isinstance(json.load(open(trace)), list)


def test_switch_output_written_only_when_converged(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "sw.fam"
    code, report = _invoke(capsys, ["switch", str(fixtures_dir / "c3_n10_k4.fam"), "-o", str(out)])
    assert code == 0
    assert report["results"]["written"] == str(out)
    assert load_family(out).members
    out.unlink()
    code, report = _invoke(
        capsys, ["switch", str(fixtures_dir / "switch_abort_n10_k5.fam"), "-o", str(out)])
    assert code == 1
    assert report["results"]["status"].startswith("aborted")
    assert report["results"]["written"] is None
    assert not out.exists()


def test_peel_subcommand(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["peel", str(fixtures_dir / "c3_n9_k4.fam")])
    assert code == 0
    assert report["results"]["layer_sizes"]["4"] == 3
    assert all(c["pass"] for c in report["checks"])


def test_spread_subcommand(capsys, fixtures_dir):
    code, report = _invoke(capsys, ["spread", str(fixtures_dir / "t2_k4.fam"), "--r", "1"])
    assert code == 0
    code, report = _invoke(capsys, ["spread", str(fixtures_dir / "t2_k4.fam"), "--r", "3/2"])
    assert code == 1
    assert report["results"]["violator"] is not None


def test_spread_refuses_huge_member_before_listing(capsys, tmp_path):
    # one member with 2^40 subsets
    path = tmp_path / "wide.fam"
    path.write_text("n=40\n" + " ".join(str(e) for e in range(1, 41)) + "\n")
    t0 = time.perf_counter()
    assert run(["spread", str(path), "--r", "1"]) == 2
    assert time.perf_counter() - t0 < 5
    assert "subsets" in capsys.readouterr().err


def test_canonical_stats_matches_canonical_construct(capsys, tmp_path, fixtures_dir):
    _, built = _invoke(capsys, ["construct", "c3", "--n", "9", "--k", "4", "--canonical"])
    # c3_n9_k4.fam is c3(9,4); relabel it by e -> 10 - e
    fam = load_family(str(fixtures_dir / "c3_n9_k4.fam"))
    relabeled = str(tmp_path / "c9_relabeled.fam")
    save_family(relabel(fam, {e: 10 - e for e in range(1, 10)}), relabeled)
    code, report = _invoke(capsys, ["stats", relabeled, "--canonical"])
    assert code == 0
    assert report["params"] == {"family": relabeled, "canonical": True}
    assert report["results"]["members"] == built["results"]["members"]
    assert report["results"]["members"] != [list(s) for s in load_family(relabeled).sets()]


def test_verify_grid_subcommand(capsys):
    code, report = _invoke(capsys, ["verify", "grid", "--name", "final-compare"])
    assert code == 0
    assert report["results"]["all_pass"] is True
    assert report["checks"][0]["name"] == "grid-final-compare"


def test_grid_that_checks_nothing_fails(capsys):
    # every k=3 point of f-mono is skipped, and an empty range has no points
    for ranges in ('{"k":[3]}', '{"k":[]}'):
        code, report = _invoke(capsys, ["verify", "grid", "--name", "f-mono", "--ranges", ranges])
        assert code == 1
        assert report["results"]["checked"] == 0
        assert report["results"]["all_pass"] is False


def test_oversized_canonical_form_refused_before_searching(capsys):
    # c3(14,6) has 1,233 members; the search alone would run for minutes
    t0 = time.perf_counter()
    assert run(["construct", "c3", "--n", "14", "--k", "6", "--canonical"]) == 2
    assert time.perf_counter() - t0 < 5
    assert "past the cap" in capsys.readouterr().err


def test_oversized_constructions_refused_before_listing(capsys):
    for which in ("c3", "hm"):
        t0 = time.perf_counter()
        assert run(["construct", which, "--n", "30", "--k", "12"]) == 2
        assert time.perf_counter() - t0 < 5
        assert "too large to list" in capsys.readouterr().err


def test_verify_grid_full_listing(capsys):
    code, report = _invoke(
        capsys, ["verify", "grid", "--name", "f-mono", "--full",
                 "--ranges", json.dumps({"k": [4], "s": [2], "m": [6, 7], "z": [3]})]
    )
    assert code == 0
    assert len(report["results"]["points"]) == 2
    for entry in report["results"]["points"]:
        assert {"point", "lhs", "rhs", "pass"} <= set(entry)


def test_search_lemmin_subcommand(capsys):
    code, report = _invoke(
        capsys, ["search", "lemmin", "--m", "9", "--s", "3", "--k", "4"]
    )
    assert code == 0
    assert report["results"]["best"] == 47
    assert len(report["results"]["argmax_classes"]) == 1


@pytest.mark.parametrize("argv,code", [
    (["construct", "t2", "--k", "3"], 0),
    (["tau", str(FIXTURES / "t2_k4.fam"), "--expect", "5"], 1),
    (["no-such-command"], 2),
])
def test_main_exits_with_the_status_of_run(argv, code):
    proc = run_python("-c", "from kfam.cli import main; main()", *argv)
    assert proc.returncode == code, proc.stderr
    if code < 2:
        assert json.loads(proc.stdout)["schema"] == "kfam-report/1"


def test_reports_deterministic(capsys):
    _, a = _invoke(capsys, ["construct", "t2", "--k", "4", "--canonical"])
    _, b = _invoke(capsys, ["construct", "t2", "--k", "4", "--canonical"])
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b


def _report(capsys, argv):
    code, report = _invoke(capsys, argv)
    report.pop("runtime_ms")
    return code, report


def _alone(argv):
    """The exit status and report, without runtime_ms, of argv run alone in
    a new process."""
    proc = run_python("-c", "from kfam.cli import main; main()", *argv)
    report = json.loads(proc.stdout)
    report.pop("runtime_ms")
    return proc.returncode, report


def test_parser_built_once_across_every_command(capsys, tmp_path):
    t2, c9 = str(FIXTURES / "t2_k4.fam"), str(FIXTURES / "c3_n9_k4.fam")
    calls = [
        ["construct", "t2", "--k", "3", "-o", str(tmp_path / "t2.fam")],
        ["stats", t2],
        ["tau", t2, "--expect", "2"],
        ["hitcount", t2, "--t", "2"],
        ["minimal-tau2", t2],
        ["shift", t2, "--i", "1", "--j", "2"],
        ["switch", str(FIXTURES / "c3_n10_k4.fam")],
        ["peel", c9],
        ["spread", t2, "--r", "1"],
        ["verify", "formula", "--name", "c3", "--n", "9", "--k", "4"],
        ["verify", "grid", "--name", "final-compare"],
        ["search", "cnkt", "--n", "6", "--k", "3", "--t", "3"],
        ["search", "lemmin", "--m", "9", "--s", "3", "--k", "4"],
    ]
    rows = {words for words, (handler, _, _) in cli.COMMANDS.items() if handler is not None}
    assert {tuple(argv[:2]) if argv[0] in ("verify", "search") else (argv[0],)
            for argv in calls} == rows
    cli._build_parser.cache_clear()
    for argv in calls:
        code, report = _invoke(capsys, argv)
        assert code == 0, argv
        assert report["command"] == argv[0]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, flag", [
    (["construct", "c3", "--n", "9", "--k", "4"], "--canonical"),
    (["verify", "grid", "--name", "final-compare"], "--full"),
])
def test_options_do_not_leak_between_calls(capsys, argv, flag):
    with_flag = argv + [flag]
    alone = {tuple(a): _alone(a) for a in (with_flag, argv)}
    assert alone[tuple(with_flag)] != alone[tuple(argv)]
    for a in (with_flag, argv, with_flag):
        assert _report(capsys, a) == alone[tuple(a)]


def test_help_usage_errors_and_other_commands_leave_the_next_report_unchanged(capsys):
    argv = ["construct", "c3", "--n", "9", "--k", "4"]
    alone = _alone(argv)
    for before, code in ((["--help"], 0), (["verify", "grid", "--help"], 0),
                         (["construct", "c3", "--n", "x"], 2), (["tau"], 2),
                         (["verify", "grid", "--name", "final-compare", "--full"], 0)):
        assert run(before) == code
        capsys.readouterr()
        assert _report(capsys, argv) == alone
