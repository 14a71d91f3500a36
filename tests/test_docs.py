"""README's command lines stay valid ``a2w`` invocations: every ``a2w`` line of
a fenced ``bash`` block parses with the CLI's own parser, and a ``train`` or
``ablate`` line's config passes the rule table. Nothing runs."""

import re
import shlex
from pathlib import Path

import pytest

from a2w.cli import _resolve_config, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each ``a2w`` line in README's ``bash`` blocks, with
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["a2w"]:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_command():
    assert {words[0] for words in COMMANDS} == {"synth", "train", "decode", "score", "ablate", "inspect-ckpt"}


@pytest.mark.parametrize("words", COMMANDS, ids=[" ".join(words) for words in COMMANDS])
def test_readme_command_parses(words):
    args = build_parser().parse_args(words)
    if args.command in ("train", "ablate"):
        _resolve_config(args)
