"""The differential harness's command list (``tests/differential.py``) run
on the current tree: each command exits with its documented code."""

import warnings

from click.testing import CliRunner
from differential import COMMANDS, write_inputs

from gmml.cli import main


def test_differential_commands_exit_with_their_documented_codes(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GMML_SEED", raising=False)
    runner = CliRunner()
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command in COMMANDS:
            result = runner.invoke(main, command.argv)
            if result.exit_code != command.code:
                wrong.append((command.name, result.exit_code, result.output[-300:],
                              repr(result.exception)))
    assert not wrong
