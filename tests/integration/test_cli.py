"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(A)" in out
        assert "Figure 1(B)" in out
        assert "Figure 2" in out

    def test_enumeration(self, capsys):
        assert main(["enumeration"]) == 0
        out = capsys.readouterr().out
        assert "enumeration effort" in out
        assert "prl" in out

    def test_table2_with_custom_seed(self, capsys):
        assert main(["table2", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "P(name)+TS" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


@pytest.mark.slow
class TestCliSlowPaths:
    def test_multijoin(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["multijoin"]) == 0
        out = capsys.readouterr().out
        assert "PrL showcase" in out
        assert "Probe(" in out

    def test_ranking(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["ranking"]) == 0
        out = capsys.readouterr().out
        assert "does the cost model predict the ranking?" in out


def test_transport_report_lists_breaker_transitions(capsys):
    """The report carries transitions as ``"old -> new"`` strings."""
    from repro.cli import _print_transport_report
    from repro.remote import FAULT_PROFILES

    class Transport:
        profile = FAULT_PROFILES["degraded"]

        def report(self):
            return {
                "calls": 2,
                "channel": {"frames_sent": 2},
                "breaker_transitions": ["closed -> open", "open -> half-open"],
            }

    _print_transport_report(Transport())
    out = capsys.readouterr().out
    assert "breaker transitions: closed -> open, open -> half-open" in out
