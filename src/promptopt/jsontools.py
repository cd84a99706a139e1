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
        nxt = start + 1
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            pass  # invalid or unclosed here
        except RecursionError:
            # nested too deep here. Each later `[` of the same run nests one
            # level less, so the openers that overflow are a prefix of the
            # run: binary-search for the first one that does not, rather than
            # decode to the recursion limit at each of them. Every decode is
            # tried from this frame, so the limit is the same for all.
            lo = start
            while nxt < len(text) and text[nxt] == "[":
                nxt += 1
            while nxt - lo > 1:
                mid = (lo + nxt) // 2
                try:
                    _DECODER.raw_decode(text, mid)
                except RecursionError:
                    lo = mid
                    continue
                except json.JSONDecodeError:
                    pass
                nxt = mid
        if end is None:
            # no value starts after the last closer, so a long unclosed run
            # such as "[" * 4000 ends the search at once
            end = max(text.rfind("}"), text.rfind("]"))
        match = _OPENER.search(text, nxt, end)
    return None
