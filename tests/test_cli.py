import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qpklab
from qpklab import analysis, cli, schemes
from qpklab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    build_scheme,
    main,
    render,
    round_trip_check,
)
from qpklab.schemes import OwfScheme, PrfsScheme, PrfspdScheme


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- configuration handling -------------------------------------------------


def test_lambda_out_of_range(capsys):
    code, _out, err = run_cli(capsys, "correctness", "--lambda", "0", "--seed", "1")
    assert code == EXIT_CONFIG
    assert "lambda out of range" in err


def test_trials_out_of_range(capsys):
    code, _out, err = run_cli(capsys, "game", "--trials", "0", "--seed", "1")
    assert code == EXIT_CONFIG


def test_missing_seed_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["correctness"])
    assert exc.value.code == 2


def test_unknown_adversary(capsys):
    code, _out, err = run_cli(
        capsys, "game", "--adversary", "nonsense", "--trials", "100", "--seed", "1"
    )
    assert code == EXIT_CONFIG
    assert "nonsense" in err


def test_capacity_is_config_error(capsys):
    code, _out, err = run_cli(capsys, "correctness", "--scheme", "owf",
                              "--lambda", "11", "--n", "11", "--seed", "1")
    assert code == EXIT_CONFIG


def test_negative_owf_width_is_config_error_before_prf_work(capsys, monkeypatch):
    def no_prf(*args, **kwargs):
        raise AssertionError("PRF evaluated before the width check")

    monkeypatch.setattr(schemes, "prf_table", no_prf)
    code, _out, err = run_cli(capsys, "game", "--scheme", "owf", "--lambda", "6",
                              "--n", "-3", "--seed", "1")
    assert code == EXIT_CONFIG
    assert "PRF output width -3 is negative" in err


def test_negative_measured_width_is_config_error(capsys):
    code, _out, err = run_cli(capsys, "correctness", "--scheme", "prfspd", "--m", "-1",
                              "--seed", "1")
    assert code == EXIT_CONFIG
    assert "measured width must be nonnegative, got -1" in err


def test_helstrom_capacity_error(capsys):
    code, _out, err = run_cli(capsys, "analyze", "--check", "helstrom",
                              "--lambda", "10", "--seed", "1")
    assert code == EXIT_CONFIG


def test_random_key_past_the_enumeration_limit_is_config_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--check", "random-key",
                             "--lambda", "5", "--seed", "1")
    assert code == EXIT_CONFIG
    assert "more than 2^20" in err
    assert out == ""


def test_bad_qubit_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("QPKLAB_QMAX", "abc")
    code, _out, err = run_cli(capsys, "analyze", "--check", "helstrom",
                              "--lambda", "2", "--seed", "1")
    assert code == EXIT_CONFIG
    assert "QPKLAB_QMAX" in err and "'abc'" in err


def test_too_few_trials_for_estimator(capsys):
    code, _out, err = run_cli(capsys, "game", "--trials", "10", "--seed", "1",
                              "--scheme", "prfs", "--game", "cpa")
    assert code == EXIT_CONFIG


def test_out_in_missing_directory_fails_before_work(capsys, tmp_path, monkeypatch):
    def no_work(args, rng):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "cmd_analyze", no_work)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "analyze", "--check", "random-key", "--lambda", "1",
                             "--seed", "1", "--out", str(target))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "missing" in err
    assert out == "" and not target.parent.exists()


def test_out_naming_a_directory_fails_before_work(capsys, tmp_path, monkeypatch):
    def no_work(args, rng):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "cmd_analyze", no_work)
    code, out, err = run_cli(capsys, "analyze", "--check", "commuting", "--seed", "1",
                             "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and str(tmp_path) in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_negative_seed_is_config_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--check", "commuting", "--seed", "-1")
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "seed" in err
    assert out == ""


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(qpklab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qpklab", "analyze", "--check", "random-key",
         "--lambda", "1", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "random-key" in proc.stdout


def test_build_scheme_dispatch():
    assert isinstance(build_scheme("owf", 4, 0, 1), OwfScheme)
    assert isinstance(build_scheme("prfspd", 3, 0, 1), PrfspdScheme)
    assert isinstance(build_scheme("prfs", 3, 2, 1), PrfsScheme)


# --- correctness ------------------------------------------------------------


def test_correctness_owf_exact(capsys):
    code, out, _err = run_cli(capsys, "correctness", "--scheme", "owf",
                              "--lambda", "3", "--seed", "9")
    assert code == EXIT_OK
    assert "1.000000" in out and "EXACT" in out


def test_correctness_prfs(capsys):
    code, out, _err = run_cli(capsys, "correctness", "--scheme", "prfs",
                              "--lambda", "3", "--n", "3",
                              "--trials", "200", "--seed", "9")
    assert code == EXIT_OK
    assert "m1-error" in out and "0.125000" in out


def test_correctness_prfs_judged_against_exact_round_trip(capsys, monkeypatch):
    # a decryptor that always answers 0 round-trips half the one-bit messages,
    # far below the exact rate 1 - 2^-(n+1)
    monkeypatch.setattr(PrfsScheme, "decrypt", lambda self, dk, ct, rng=None: "0")
    code, out, _err = run_cli(capsys, "correctness", "--scheme", "prfs", "--n", "3",
                              "--trials", "200", "--seed", "1")
    assert code == EXIT_CHECK_FAILED
    assert "round-trip" in out


def test_correctness_prfspd(capsys):
    code, out, _err = run_cli(capsys, "correctness", "--scheme", "prfspd",
                              "--lambda", "3", "--n", "6",
                              "--trials", "150", "--seed", "9")
    assert code == EXIT_OK
    assert "round-trip" in out


def test_correctness_prfspd_default_judged_against_exact(capsys):
    code, out, _err = run_cli(capsys, "correctness", "--scheme", "prfspd",
                              "--lambda", "3", "--seed", "1")
    assert code == EXIT_OK
    # (1 - 2^-(t+1))^lambda at t = 2
    assert "key-recovery  0.669922  EXACT" in out
    assert "EMPIRICAL" in out


def test_rate_judge_against_wilson_interval():
    def rate_check_failed(successes, trials, exact):
        record = round_trip_check("prfspd", successes, trials, exact)
        assert record.flag == "EMPIRICAL"
        return record.failed

    assert not rate_check_failed(670, 1000, 0.669921875)
    assert rate_check_failed(900, 1000, 0.669921875)
    assert rate_check_failed(400, 1000, 0.669921875)
    # a perfectly correct scheme passes only with no failure at all
    assert not rate_check_failed(1000, 1000, 1.0)
    assert rate_check_failed(999, 1000, 1.0)
    assert not rate_check_failed(0, 1000, 0.0)
    # z = 5 around 0.67 at 1000 trials: about 0.592 to 0.739
    assert not rate_check_failed(670, 1000, 0.735)
    assert rate_check_failed(670, 1000, 0.745)


# --- games ------------------------------------------------------------------


def test_game_random_guess(capsys):
    code, out, _err = run_cli(capsys, "game", "--scheme", "prfs", "--game", "cpa",
                              "--adversary", "random-guess", "--lambda", "3",
                              "--trials", "150", "--seed", "5")
    assert code == EXIT_OK
    assert "random-guess" in out and "win_rate" in out


def test_game_cloning(capsys):
    code, out, _err = run_cli(capsys, "game", "--game", "cloning",
                              "--adversary", "lucky-clone", "--lambda", "3",
                              "--n", "4", "--trials", "150", "--seed", "5")
    assert code == EXIT_OK
    assert "lucky-clone" in out
    assert "# scheme=prfspd" in out  # the cloning game runs the PRFSPD family


def test_game_eo_on_prfs_rejected(capsys):
    code, _out, err = run_cli(capsys, "game", "--scheme", "prfs", "--game", "cpa-eo",
                              "--trials", "100", "--seed", "5")
    assert code == EXIT_CONFIG
    # the game's own CapabilityError, a ValueError, reaches stderr
    assert "scheme 'prfs' does not support the encryption oracle game" in err


def test_game_and_correctness_never_import_scipy():
    src = os.path.dirname(os.path.dirname(qpklab.__file__))
    script = (
        "import sys\n"
        "from qpklab.cli import main\n"
        "assert main('game --scheme owf --game cpa-eo --adversary copy-measure --lambda 3 "
        "--trials 100 --seed 1'.split()) == 0\n"
        "assert main('correctness --scheme prfs --n 2 --lambda 3 --trials 100 "
        "--seed 1'.split()) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the schemes whose keys and ciphertexts each game adversary reads
ADVERSARY_SCHEMES = {
    "random-guess": {"owf", "prfspd", "prfs"},
    "always-zero": {"owf", "prfspd", "prfs"},
    "state-compare": {"prfs"},
    "copy-measure": {"owf"},
    "pad-reuse": {"owf", "prfspd"},
    "key-readout": {"prfspd"},
}
UNPLAYABLE = sorted((scheme, adversary) for adversary, schemes in ADVERSARY_SCHEMES.items()
                    for scheme in {"owf", "prfspd", "prfs"} - schemes)


def test_adversary_class_accepts_exactly_the_schemes_it_reads():
    assert set(ADVERSARY_SCHEMES) == set(cli.ADVERSARIES)
    for adversary, schemes in ADVERSARY_SCHEMES.items():
        for scheme in schemes:
            assert cli.adversary_class(scheme, adversary) is cli.ADVERSARIES[adversary]


@pytest.mark.parametrize("scheme,adversary", UNPLAYABLE)
def test_game_rejects_adversary_that_cannot_play_the_scheme(capsys, scheme, adversary):
    game = "cpa" if scheme == "prfs" else "cpa-eo"
    code, out, err = run_cli(capsys, "game", "--scheme", scheme, "--game", game,
                             "--adversary", adversary, "--lambda", "3", "--trials", "200",
                             "--seed", "2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert adversary in err


def test_readme_commands_parse_and_pair_playable_adversaries():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qpklab "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert len(commands) == 5
    parser = cli.make_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command != "game":
            continue
        if args.game == "cloning":
            assert args.adversary in cli.CLONERS
        else:
            cli.adversary_class(args.scheme, args.adversary)


# --- analysis ---------------------------------------------------------------


def test_analyze_punctured(capsys):
    code, out, _err = run_cli(capsys, "analyze", "--check", "punctured", "--seed", "3")
    assert code == EXIT_OK
    assert "lam=4,p=2" in out and "0.347985273" in out


def test_analyze_all(capsys):
    code, out, _err = run_cli(capsys, "analyze", "--check", "all",
                              "--lambda", "2", "--seed", "3")
    assert code == EXIT_OK
    for name in ("punctured", "commuting", "random-key", "helstrom"):
        assert name in out


def test_analyze_all_names_the_lambda_each_row_ran_at(capsys):
    # `all` clamps random-key to lambda = 2 and helstrom to lambda <= 3
    code, out, _err = run_cli(capsys, "analyze", "--check", "all", "--lambda", "5", "--seed", "1")
    assert code == EXIT_OK
    assert "# lambda=5" in out
    random_key = [line.split()[1] for line in out.splitlines() if line.startswith("random-key")]
    assert random_key == ["lam=2,queries=0", "lam=2,queries=1", "lam=2,queries=3"]
    assert "lam=3,p=1" in out


# each analyze check, the oracle its reference comes from, its tolerance and its row count
ANALYZE_REFERENCES = {
    "punctured": ("punctured_key_distance_explicit", 1e-9, 20),
    "commuting": ("total_variation", 1e-12, 3),
    "random-key": ("total_variation", 1e-12, 3),
}


@pytest.mark.parametrize("check", sorted(ANALYZE_REFERENCES))
@pytest.mark.parametrize("miss,expected", [(0.0, EXIT_OK), (0.5, EXIT_OK),
                                           (2.0, EXIT_CHECK_FAILED)])
def test_analyze_exits_1_when_a_value_misses_its_reference(capsys, monkeypatch, check, miss,
                                                            expected):
    # the patched oracle is off by `miss` times the check's tolerance
    oracle, tolerance, rows = ANALYZE_REFERENCES[check]
    honest = getattr(analysis, oracle)
    monkeypatch.setattr(analysis, oracle, lambda *a, **k: honest(*a, **k) + miss * tolerance)
    code, out, _err = run_cli(capsys, "analyze", "--check", check, "--lambda", "2", "--seed", "1")
    assert code == expected
    assert sum(line.startswith(check + " ") for line in out.splitlines()) == rows


def test_every_analyze_record_carries_a_verdict(capsys):
    args = cli.make_parser().parse_args("analyze --check all --lambda 2 --seed 1".split())
    records = [record for check in cli.ANALYZE_CHECKS.values() for record in check(args)]
    assert [r.failed for r in records] == [False] * 27
    # the helstrom value has no reference yet; a punctured row has none only
    # where its explicit statevector is past the qubit cap
    unreferenced = [r for r in records if r.reference is None]
    assert [r.check for r in unreferenced if r.check != "punctured"] == ["helstrom"]
    assert all(r.details == "explicit=capacity-exceeded"
               for r in unreferenced if r.check == "punctured")
    code, out, _err = run_cli(capsys, "analyze", "--check", "all", "--lambda", "2", "--seed", "1")
    assert code == EXIT_OK
    assert [line.split()[:2] for line in out.splitlines()[6:]] == [[r.check, r.case]
                                                                  for r in records]


def test_analyze_csv_rows_have_the_header_width(capsys):
    code, out, _err = run_cli(capsys, "analyze", "--check", "all", "--lambda", "2",
                              "--seed", "1", "--format", "csv")
    assert code == EXIT_OK
    header, *rows = csv.reader(io.StringIO(
        "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))))
    assert header == ["check", "case", "value", "details"]
    assert len(rows) == 27 and all(len(row) == 4 for row in rows)
    assert ["random-key", "lam=2,queries=0", "0.000e+00", "H3-H4"] in rows


# --- rendering and determinism ----------------------------------------------


def test_render_formats():
    header = {"a": 1}
    columns = ["x", "y"]
    rows = [[1, "two"]]
    table = render(header, columns, rows, "table")
    text = render(header, columns, rows, "text")
    csv = render(header, columns, rows, "csv")
    assert table.startswith("# a=1\n")
    assert "x=1 y=two" in text
    assert "x,y\n1,two" in csv
    assert render({}, columns, [["a,b", 'say "hi"']], "csv") == 'x,y\n"a,b","say ""hi"""\n'
    with pytest.raises(Exception):
        render(header, columns, rows, "yaml")


@pytest.mark.parametrize("fmt", ["table", "text", "csv"])
def test_reports_byte_identical_under_seed(tmp_path, fmt):
    args = ["game", "--scheme", "owf", "--game", "cpa-eo", "--adversary", "random-guess",
            "--lambda", "4", "--trials", "120", "--seed", "77", "--format", fmt]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(p1)]) == EXIT_OK
    assert main(args + ["--out", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ(tmp_path):
    base = ["game", "--scheme", "prfs", "--game", "cpa", "--adversary", "random-guess",
            "--lambda", "3", "--trials", "120", "--format", "csv"]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    main(base + ["--seed", "1", "--out", str(p1)])
    main(base + ["--seed", "2", "--out", str(p2)])
    assert p1.read_bytes() != p2.read_bytes()
