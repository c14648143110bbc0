"""README's command lines and worked example stay in step with the code."""

import re
import shlex
from pathlib import Path

import pytest

from modroute import load_edge_list
from modroute.cli import _unread_flags, build_parser

from _fixtures import eight_node_graph

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _first_block(heading: str, lang: str) -> str:
    """The body of the first ``lang`` code block after README's ``heading``."""
    start = README.index(f"\n{heading}\n")
    return re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start).group(1)


def _commands() -> list[str]:
    """Every ``modroute ...`` line of the "Command line" block, continuation lines joined."""
    joined = re.sub(r"\\\n\s*", " ", _first_block("## Command line", "sh"))
    return [line for line in joined.splitlines() if line.startswith("modroute ")]


def test_command_line_block_lists_commands():
    assert len(_commands()) == 6


@pytest.mark.parametrize("line", _commands())
def test_every_command_line_parses_and_reads_every_flag(line):
    argv = shlex.split(line)[1:]
    args = build_parser().parse_args(argv)
    assert _unread_flags(args, argv) == []


def test_worked_example_graph_is_the_tested_eight_node_graph():
    block = _first_block("### Worked example", "text")
    assert load_edge_list(block).edges() == eight_node_graph().edges()
