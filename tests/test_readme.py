"""The command-line examples in README.md, run as shown."""

import pkgutil
import re
import shlex
from pathlib import Path

import stlsbb
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


def readme_references():
    """Each backticked name README gives under the package, as the dotted
    path below stlsbb: `stlsbb.X.Y`, and `X.Y` where X is a submodule or a
    public name, with a call's arguments dropped, so `kernels.trial_rows(x,
    g, [a])` is kernels.trial_rows and `RunTrace.from_json` a method."""
    heads = {m.name for m in pkgutil.iter_modules(stlsbb.__path__)} | set(stlsbb.__all__)
    refs = []
    for prefix, path in re.findall(r"`(stlsbb\.)?(\w+(?:\.\w+)*)(?:\([^`]*\))?`",
                                   README.read_text()):
        if prefix or ("." in path and path.split(".")[0] in heads):
            refs.append(path)
    return refs


def test_named_references_exist():
    # a name README gives must be one the package has, so a rename or a
    # deletion fails here until README follows
    refs = readme_references()
    assert {"errors", "GRADIENT_TOLERANCE", "quadratic.as_objective",
            "RunTrace.from_json", "kernels.trial_rows"} <= set(refs)
    for path in refs:
        obj = stlsbb
        for name in path.split("."):
            assert hasattr(obj, name), f"README names stlsbb.{path}, which does not exist"
            obj = getattr(obj, name)
