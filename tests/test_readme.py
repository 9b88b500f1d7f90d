"""README examples hold as written: each ``$ k3fm ...`` line of the
console block, run through ``cli.main``, prints the lines that follow it,
and each value commented in the Python API block is what its line
computes (read with the names ``k3fm`` exports)."""

import re
import shlex
from pathlib import Path

import k3fm
from k3fm import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# prose comments in the API block start with the length of the value
NUMBER_WORDS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6}


def _block(language):
    """The lines of README's one fenced block in ``language``."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, language
    return blocks[0].splitlines()


def _console_examples():
    """(argv, expected stdout) for each ``$ k3fm`` line of the console block."""
    examples = []
    for line in _block("console"):
        if line.startswith("$ "):
            command = shlex.split(line[2:])
            assert command[0] == "k3fm", line
            examples.append((command[1:], ""))
        else:
            assert examples, f"output before any command: {line}"
            argv, out = examples[-1]
            examples[-1] = (argv, out + line + "\n")
    return examples


def test_readme_console_examples(capsys):
    examples = _console_examples()
    assert len(examples) >= 10
    for argv, expected in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_readme_python_api_values():
    namespace = {}
    checked = 0
    for line in _block("python"):
        code, _, comment = line.partition("  # ")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if not comment or re.match(r"\w+ = ", code):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        word = comment.split()[0].rstrip(",")
        if word in NUMBER_WORDS:
            assert len(value) == NUMBER_WORDS[word], line
        else:
            # a value may name what the block does not import, as HTClass
            assert value == eval(comment, {**vars(k3fm), **namespace}), line
        checked += 1
    assert checked == 7
