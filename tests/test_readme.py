"""The command-line examples in README.md, run as shown."""

import shlex
from pathlib import Path

from stlsbb.cli import main
from stlsbb.steps import _KINDS

README = Path(__file__).resolve().parent.parent / "README.md"
# names an input file that README does not provide
LEFT_OUT = "stlsbb profile --costs matrix.csv"


def readme_examples():
    """(command, printed lines) for each '$ ...' line of README's sh
    blocks, in order, with '\\' continuation lines joined.  The printed
    lines are the block's lines after the command up to the next one; none
    means README shows no output."""
    examples = []
    in_sh = False
    shown = None  # the printed lines of the block's last command
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.startswith("```"):
            in_sh, shown = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            shown = []
            examples.append((command, shown))
        elif shown is not None:
            shown.append(line)
    return examples


def test_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert LEFT_OUT in [command for command, _ in examples]
    examples = [e for e in examples if e[0] != LEFT_OUT]
    assert [c.split()[:2] for c, _ in examples] == [
        ["stlsbb", name] for name in
        ("steps", "steps", "quad", "rosenbrock", "bench", "profile")]
    monkeypatch.chdir(tmp_path)  # bench writes the cells.csv profile reads
    for command, shown in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out
        if shown:
            assert out.splitlines() == shown, command


def test_policy_list_names_every_kind():
    # README's list of descriptor forms, read against the table of kinds
    # (as `stlsbb steps --help` is built from it): a kind added to the
    # table fails here until README names it
    text = README.read_text()
    start = text.index("Policies everywhere:")
    paragraph = " ".join(text[start:text.index("\n\n", start)].split())
    for name, own in _KINDS.values():
        form = name if own is None else f"{name}:{own[0].upper()}"
        assert f"`{form}`" in paragraph, form
