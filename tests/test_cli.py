"""The installed `anisoline` command (`anisoline.cli:main`)."""

import json

import pytest

from anisoline.cli import main


def _run(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _check_label_counts(levels):
    """The proposed label histogram and the overridden count of each
    level: they cover the marked cells of a level that refines, and are
    empty on the last."""
    for lev in levels[:-1]:
        assert sum(lev["proposed"].values()) == lev["marked"] > 0
        assert 0 <= lev["overridden"] <= sum(lev["labels"].values())
    assert levels[-1]["proposed"] == {} and levels[-1]["overridden"] == 0


def test_fit_prints_the_report(capsys):
    report = _run(capsys, ["fit", "cone", "--max-levels", "1"])
    assert report["strategy"] == "modified"
    levels = report["levels"]
    assert [lev["level"] for lev in levels] == [0, 1]
    assert levels[0]["dof"] == 36                # 2 x 2 start: 9 vertices x 4
    assert levels[1]["dof"] == levels[0]["dof"] + levels[1]["new_functions"]
    assert all(lev["max_error"] > 0 for lev in levels)
    assert not any("solve_residual" in lev or "bandwidth" in lev for lev in levels)
    _check_label_counts(levels)


def test_solve_prints_the_report(capsys):
    report = _run(capsys, ["solve", "square_sin", "--max-levels", "1"])
    levels = report["levels"]
    assert [lev["level"] for lev in levels] == [0, 1]
    assert levels[0]["dof"] == 36
    assert levels[1]["dof"] == levels[0]["dof"] + levels[1]["new_functions"]
    assert all(lev["h1_error"] > 0 for lev in levels)
    # the linear solve of each level: its relative residual and bandwidth
    assert all(0 <= lev["solve_residual"] <= 1e-10 for lev in levels)
    assert all(isinstance(lev["bandwidth"], int) and 0 < lev["bandwidth"] < lev["dof"]
               for lev in levels)
    _check_label_counts(levels)


@pytest.mark.parametrize("argv", [["fit", "torus"], ["solve", "annulus"],
                                  ["fit", "cone", "--max-levels", "-1"], ["bench"]])
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
