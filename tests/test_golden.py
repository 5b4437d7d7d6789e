"""Report bytes of fixed seeded commands against files captured from earlier code.

A change that alters which random numbers are drawn, or any arithmetic that
reaches a printed digit, changes these reports. Such a change regenerates the
files under `tests/golden/` (the stdout of `qpklab <command>`) and says so.
"""

from pathlib import Path

import pytest

from qpklab.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "correctness_prfs.txt": "correctness --scheme prfs --n 3 --trials 500 --seed 1",
    "correctness_prfspd.txt": "correctness --scheme prfspd --lambda 3 --trials 300 --seed 1",
    "game_prfs_state_compare.txt":
        "game --scheme prfs --game cpa --adversary state-compare --lambda 4 --n 3 "
        "--trials 300 --seed 1",
    "game_owf_copy_measure.txt":
        "game --scheme owf --game cpa-eo --adversary copy-measure --lambda 4 --trials 200 --seed 3",
    "game_owf_cpa_eo_multi_random_guess.txt":
        "game --scheme owf --game cpa-eo-multi --adversary random-guess --lambda 4 --trials 200 "
        "--seed 5",
    "game_prfspd_cpa_eo_key_readout.txt":
        "game --scheme prfspd --game cpa-eo --adversary key-readout --lambda 3 --trials 200 "
        "--seed 4",
    "analyze_all.txt": "analyze --check all --lambda 2 --seed 1",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden_bytes(name, capsys):
    code = main(COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / name).read_bytes()
