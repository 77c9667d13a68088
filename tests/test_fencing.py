import random
import re

import pytest

from revent.errors import ReplyParseError
from revent.fencing import extract_fenced_block

# The fence grammar as one lazy regex: extract_fenced_block scans for the
# fences itself and must agree with this reference on every input.
_REFERENCE = re.compile(r"```(?:[a-zA-Z0-9_-]+\n)?(.*?)```", re.DOTALL)


def _reference(raw):
    match = _REFERENCE.search(raw)
    return None if match is None else match.group(1).strip()


def _extracted(raw):
    try:
        return extract_fenced_block(raw)
    except ReplyParseError:
        return None


_EDGE_CASES = [
    "",
    "no fence at all",
    "```never closed",
    "text ```json\nnever closed",
    "``` ``",
    "````",
    "`````",
    "``````",
    "``````x",
    "```json```",
    "```json\n```",
    "```\n```",
    "``````json\nbody```",
    "````json\nbody````",
    "```json body```",
    "```json-2_x\nbody\n```",
    "```json\r\nbody```",
    "```\njson\nbody```",
    "```  \n  ```",
    "Sure, here it is:\n```json\n{\"a\": 1}\n```\nAnything else?",
    "prose ```Key = [1]``` more ```Key = [2]```",
    "```python\n```Key = 1```",
]


@pytest.mark.parametrize("raw", _EDGE_CASES)
def test_fence_edge_cases_agree_with_the_reference_regex(raw):
    assert _extracted(raw) == _reference(raw)


def test_random_replies_agree_with_the_reference_regex():
    rng = random.Random(1701)
    pieces = ["`", "``", "```", "````", "json", "Key", "-", "_", "7", "\n", " ", "a b", "=", "é"]
    for _ in range(20_000):
        raw = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 14)))
        assert _extracted(raw) == _reference(raw), repr(raw)


def test_missing_fence_is_a_parse_error():
    with pytest.raises(ReplyParseError, match="no triple-backtick fence"):
        extract_fenced_block("```never closed")
