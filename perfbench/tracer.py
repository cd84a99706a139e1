"""Outside-in tracer: wraps the program's functions at the names their
callers look them up by, records spans in memory, and turns them into
per-layer metrics. Nothing in the program changes; every patch is undone by
`restore`.

`engine`, `evaluation` and `operators` bind their imports with
`from ... import`, so the patch targets are names such as
`promptopt.engine.evaluate` or `promptopt.evaluation.render`, not the
defining modules. The one private target, `_Trainer._checkpoint`, gives
the checkpoint time. A target that no longer exists is listed in
`Tracer.missing`, and the benchmark then fails the traced run rather than
report its metrics as zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

import promptopt.engine
import promptopt.evaluation
import promptopt.msgd_rl
import promptopt.operators

from promptopt.evaluation import FORMAT_FAILURE
from promptopt.backend import BackendError


class Tracer:
    """Spans are (id, parent id, name, start, end); a name is
    "<layer>:<function>". Spans opened on a worker thread with no open span
    of their own take the innermost open span of the main thread as parent,
    so a batch's per-request spans hang under the batch."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._open: dict[int, str] = {}

    def name_of(self, sid: int):
        """Name of a span that is still open, else None."""
        return self._open.get(sid)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span. after(sid, parent, args, kwargs,
        result) runs when fn returns; raised exceptions are counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            tracer._open[sid] = name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                del tracer._open[sid]
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(sid, parent, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        own = attr in vars(owner)  # False for a method looked up on an instance
        setattr(owner, attr, self.wrap(orig, name, after))
        self._patches.append((owner, attr, orig, own))

    def restore(self) -> None:
        for owner, attr, orig, own in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def install(tracer: Tracer, backend, oracle, test_set) -> dict:
    """Patch every traced name for one training run. Returns the dict the
    hooks fill with request sizes and evaluation keys."""
    c = tracer.counts
    state = {"batch": {}, "seen_requests": set(), "seen_evals": set(),
             "iterating": False, "test_first": test_set[0] if test_set else None}
    eng, ev, ops, rl = promptopt.engine, promptopt.evaluation, promptopt.operators, promptopt.msgd_rl

    def note_requests(sid, reqs, results):
        state["batch"][sid] = len(reqs)
        c["backend.requests"] += len(reqs)
        for req in reqs:
            key = req.messages
            if key in state["seen_requests"]:
                c["backend.dup_requests"] += 1
            state["seen_requests"].add(key)
        c["backend.errors"] += sum(isinstance(r, BackendError) for r in results)

    def after_batch(sid, parent, args, kwargs, result):
        note_requests(sid, list(args[0]), result)

    def after_generate(sid, parent, args, kwargs, result):
        # a generate inside a batch was already counted by the batch
        if not (tracer.name_of(parent) or "").startswith("backend:"):
            note_requests(sid, [args[0]], [result])

    def after_select(sid, parent, args, kwargs, result):
        state["iterating"] = True
        c["engine.pairs"] += len(result)

    def after_evaluate(sid, parent, args, kwargs, result):
        cand, examples = args[0], args[1]
        c["evaluation.calls"] += 1
        c["evaluation.examples"] += len(examples)
        key = (cand.fingerprint, examples[0].id, len(examples))
        if key in state["seen_evals"]:
            c["evaluation.reevals"] += 1
        state["seen_evals"].add(key)
        if state["iterating"] and examples[0] is not state["test_first"]:
            c["engine.edit_evals"] += 1

    def after_parse(sid, parent, args, kwargs, result):
        c["evaluation.parses"] += 1
        c["evaluation.format_failures"] += result is FORMAT_FAILURE

    def after_apply(sid, parent, args, kwargs, result):
        c["operators.noops"] += result.kind == "noop"

    def after_op_parse(sid, parent, args, kwargs, result):
        c["operators.parses"] += 1
        c["operators.parse_failures"] += not result.parse_ok

    def after_retain(sid, parent, args, kwargs, result):
        c["engine.iterations"] += 1

    tracer.patch(eng, "train", "engine:train")
    tracer.patch(eng, "initialize_candidates", "engine:initialize_candidates")
    tracer.patch(eng, "retain", "engine:retain", after_retain)
    tracer.patch(getattr(eng, "_Trainer", None), "_checkpoint", "engine:checkpoint")
    tracer.patch(eng, "evaluate", "evaluation:evaluate", after_evaluate)
    tracer.patch(eng, "select_pairs", "matrix:select_pairs", after_select)
    tracer.patch(rl, "select_pairs", "matrix:select_pairs", after_select)
    tracer.patch(eng, "save_matrix", "matrix:save_matrix")
    tracer.patch(eng, "msgd_update", "msgd:msgd_update")
    tracer.patch(eng, "norm_delta", "msgd:norm_delta")
    tracer.patch(eng, "rl_epoch", "msgd_rl:rl_epoch")
    tracer.patch(rl, "apply_sarsa_updates", "msgd_rl:apply_sarsa_updates")
    tracer.patch(eng, "load_experience", "msgd_rl:load_experience")
    tracer.patch(eng, "candidate_to_dict", "prompt_model:candidate_to_dict")
    tracer.patch(eng, "reorder", "prompt_model:reorder")
    tracer.patch(ev, "render", "prompt_model:render")
    tracer.patch(ev, "parse_prediction", "evaluation:parse_prediction", after_parse)
    tracer.patch(ev, "score", "evaluation:score")
    tracer.patch(ev, "extract_first_json", "jsontools:extract_first_json")
    tracer.patch(ops, "extract_first_json", "jsontools:extract_first_json")
    tracer.patch(ops, "apply_operator", "operators:apply_operator", after_apply)
    tracer.patch(ops, "build_request", "operators:build_request")
    tracer.patch(ops, "parse_operator_response", "operators:parse_operator_response",
                 after_op_parse)
    tracer.patch(backend, "generate_batch", "backend:generate_batch", after_batch)
    tracer.patch(backend, "generate", "backend:generate", after_generate)
    if oracle is not None:
        tracer.patch(oracle, "answer", "oracle:answer")
    return state


def _union(intervals) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> Counter:
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover (children on worker threads may overlap)."""
    children = defaultdict(list)
    for sid, parent, name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = Counter()
    for sid, parent, name, t0, t1 in spans:
        out[name.split(":", 1)[0]] += (t1 - t0) - _union(children.get(sid, ()))
    return out


def tail_percentile(n: int) -> float:
    """Highest of a few standard percentiles with at least ten samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def layer_metrics(tracer: Tracer, state: dict, wall_s: float, latency_s: float,
                  slots: int, oracle_s=None) -> dict:
    """Per-layer metrics of one traced training run. oracle_s overrides the
    oracle time when the oracle ran in another process."""
    spans = tracer.spans
    c = tracer.counts
    by_id = {s[0]: s for s in spans}
    self_s = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    for sid, parent, name, t0, t1 in spans:
        total[name] += t1 - t0
        calls[name] += 1

    def layer_of(sid):
        span = by_id.get(sid)
        return span[2].split(":", 1)[0] if span else None

    # round trips: backend spans not nested in another backend span
    trips = units = 0
    wait_s = 0.0
    req_ms = []
    per_request_spans = False
    for sid, parent, name, t0, t1 in spans:
        if name == "backend:generate" and layer_of(parent) == "backend":
            req_ms.append((t1 - t0) * 1e3)
            per_request_spans = True
        if not name.startswith("backend:") or layer_of(parent) == "backend":
            continue
        n = state["batch"].get(sid, 0)
        trips += 1
        units += math.ceil(n / slots)
        wait_s += t1 - t0
    if not per_request_spans:
        # requests of a batch served in-process all complete with the batch
        for sid, parent, name, t0, t1 in spans:
            if name.startswith("backend:") and layer_of(parent) != "backend":
                req_ms.extend([(t1 - t0) * 1e3] * state["batch"].get(sid, 0))

    def mean_us(name, scale=1e6):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    requests = c["backend.requests"]
    iterations = c["engine.iterations"]
    oracle_time = total["oracle:answer"] if oracle_s is None else oracle_s
    p50 = percentile(req_ms, 50.0)
    if latency_s > 0:
        per_request = latency_s
    elif per_request_spans:
        per_request = p50 / 1e3
    else:
        per_request = ratio(oracle_time, requests)
    bound = requests * per_request / slots
    client_cpu = self_s["evaluation"] + self_s["jsontools"] + self_s["prompt_model"]
    return {
        "backend.round_trips": trips,
        "backend.round_trips_per_iter": ratio(trips, iterations),
        "backend.critical_units": units,
        "backend.batch_size_mean": ratio(requests, trips),
        "backend.wait_s": wait_s,
        "backend.wall_over_bound": ratio(wall_s, bound),
        "backend.req_ms_p50": p50,
        "backend.req_ms_tail": percentile(req_ms, tail_percentile(len(req_ms))),
        "backend.requests": requests,
        "backend.errors": c["backend.errors"],
        "backend.dup_request_ratio": ratio(c["backend.dup_requests"], requests),
        "engine.self_s": self_s["engine"],
        "engine.init_s": total["engine:initialize_candidates"],
        "engine.retain_s": total["engine:retain"],
        "engine.checkpoint_s": total["engine:checkpoint"],
        "engine.iterations": iterations,
        "engine.pairs": c["engine.pairs"],
        "engine.useful_edit_ratio": ratio(c["engine.edit_evals"], c["engine.pairs"]),
        "evaluation.calls": c["evaluation.calls"],
        "evaluation.examples": c["evaluation.examples"],
        "evaluation.reeval_ratio": ratio(c["evaluation.reevals"], c["evaluation.calls"]),
        "evaluation.self_s": self_s["evaluation"],
        "evaluation.parse_us": mean_us("evaluation:parse_prediction"),
        "evaluation.score_ms": mean_us("evaluation:score", 1e3),
        "evaluation.format_failure_ratio": ratio(c["evaluation.format_failures"],
                                                 c["evaluation.parses"]),
        "jsontools.calls": calls["jsontools:extract_first_json"],
        "jsontools.extract_us": mean_us("jsontools:extract_first_json"),
        "jsontools.self_s": self_s["jsontools"],
        "prompt_model.render_calls": calls["prompt_model:render"],
        "prompt_model.render_us": mean_us("prompt_model:render"),
        "prompt_model.self_s": self_s["prompt_model"],
        "operators.calls": calls["operators:apply_operator"],
        "operators.self_s": self_s["operators"],
        "operators.noop_ratio": ratio(
            c["operators.noops"] + c["operators:apply_operator.raised"],
            calls["operators:apply_operator"]),
        "operators.parse_fail_ratio": ratio(c["operators.parse_failures"],
                                            c["operators.parses"]),
        "matrix.select_us": mean_us("matrix:select_pairs"),
        "msgd.update_us": mean_us("msgd:msgd_update"),
        "msgd_rl.update_us": mean_us("msgd_rl:apply_sarsa_updates"),
        "msgd_rl.align_ms": mean_us("msgd_rl:load_experience", 1e3),
        "oracle.self_s": oracle_time,
        "share.backend_wait": ratio(wait_s, wall_s),
        "share.client_cpu": ratio(client_cpu, wall_s),
    }


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
