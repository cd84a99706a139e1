"""Tolerant JSON extraction from model output (prose and code fences allowed)."""

from __future__ import annotations

import json
import re
from typing import Any, Optional

_DECODER = json.JSONDecoder()
_OPENER = re.compile(r"[{\[]")


def extract_first_json(text: str) -> Optional[Any]:
    """Return the first JSON object or array embedded in `text` that decodes,
    or None. Decoding is tried at each `{` or `[` in turn, so surrounding
    prose and ```json fences are ignored."""
    match = _OPENER.search(text)
    end = None
    while match is not None:
        start = match.start()
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            pass  # invalid, unclosed or nested too deep here
        if end is None:
            # no value starts after the last closer, so a long unclosed run
            # such as "[" * 4000 ends the search at once
            end = max(text.rfind("}"), text.rfind("]"))
        match = _OPENER.search(text, start + 1, end)
    return None
