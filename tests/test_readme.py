"""The command examples of README.md are what the program prints: each
`$ toriccode ...` block is run through `cli.main`, with the README's K4
clutter file (the JSON form under "Clutter files") as k4.json, and its
stdout must equal the lines under the command."""

import json
import re
from pathlib import Path

import pytest

from toriccode.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```\n\$ toriccode ([^\n]*)\n(.*?)```", README, re.S)
K4_DOC = json.loads(re.search(r"```json\n(.*?)\n```", README, re.S).group(1))


def test_readme_examples_found():
    assert sorted(argv.split()[0] for argv, _ in BLOCKS) == [
        "ci", "groebner", "mindist", "params"
    ]
    assert K4_DOC["n"] == 4 and len(K4_DOC["edges"]) == 6


@pytest.mark.parametrize("argv,printed", BLOCKS, ids=[a.split()[0] for a, _ in BLOCKS])
def test_readme_example(argv, printed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4.json").write_text(json.dumps(K4_DOC))
    assert main(argv.split()) == EXIT_OK
    assert capsys.readouterr().out == printed
