"""Machine speed, measured with a fixed piece of work.

Shared 2-vCPU virtual machines switch between a fast and a contended state,
about 2x slower, within tens of milliseconds, and spend from none to most of
a half-minute contended. A wall time of CPU work therefore follows the
machine. The benchmark times `reference_loop`, work of the program's kind
(regex search, JSON parsing, string formatting), at points spread through
each training run, in this process and in the HTTP stub's, and just before
and after each set-up. It scales the CPU part of their wall times to the
speed at which that work takes REF_NOMINAL_S: times are reported in
reference seconds.
"""

from __future__ import annotations

import json
import re
import time

REF_ITERATIONS = 120
REF_NOMINAL_S = 0.001
_REPLY = ('Here is the result.\n```json\n{"PER": {"Ada Moreno": [[12, 22]], '
          '"Liu Wei": [[30, 37]]}, "LOC": {"Osaka": [[40, 45]]}}\n```')
_JSON = re.compile(r"\{.*\}", re.S)


def reference_loop() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        doc = json.loads(_JSON.search(_REPLY).group(0))
        "Input %d: %s" % (i, " ".join(doc))
        {label: sorted(spans) for label, spans in doc.items()}
    return time.perf_counter() - t0


def to_reference(probes) -> float:
    """Factor from seconds at the speed the probes saw to reference seconds.
    Pool the probes of a whole run: one probe is a coin toss between the
    machine's states, and what a long wall time follows is the share of time
    spent in each."""
    probes = list(probes)
    return REF_NOMINAL_S * len(probes) / sum(probes)
