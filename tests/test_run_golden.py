"""Whole-run goldens: one small `train` per task against a deterministic
backend whose evaluation replies repeat across prompts.

Each run pins its request and token counts, its per-iteration bests, its
test objective and the sha256 of every byte of its run directory. A change
that claims to leave training exactly as it was (a cache, a one-pass
rewrite of a scorer) must leave these values as they are.

The training sets have 100 examples, so every scoring of two or more
prompts races, on rungs of 25 and 33 examples before any wave cut. The
reply to an evaluation request depends only on the example and on whether
the prompt gets it right, so most edits repeat most replies. An operator's
reply carries a digest of its request, so anything that reaches an operator
request (a bad case, its order, the repr of a prediction) moves the run
directory's digest."""

import hashlib
import json

import pytest

from promptopt.backend import GenerationResponse, MockBackend
from promptopt.engine import RunConfig, train
from promptopt.errors import BackendTimeout
from promptopt.evaluation import ExampleRecord
from promptopt.prompt_model import MetaPrompt, Section

INPUT_OPEN = "<<<INPUT\n"
INPUT_CLOSE = "\nINPUT>>>"


def draw(*parts) -> float:
    """Deterministic draw in [0, 1) from the given parts."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def fence(ex_id: str, payload: str) -> str:
    """The payload as this example's replies always wrap it."""
    u = draw("wrap", ex_id)
    if u < 0.3:
        return "```json\n" + payload + "\n```"
    if u < 0.6:
        return "Here is the answer.\n" + payload + "\nHope this helps."
    return payload


# ---------------------------------------------------------------------------
# data: ids "000".. ; inputs are distinct

def cls_examples(n, offset=0):
    return [ExampleRecord("%03d" % i, "CLS", "item %03d reads like %s" % (i, "ABC"[i % 3] * 3),
                          "ABC"[i % 3]) for i in range(offset, offset + n)]


def ner_examples(n, offset=0):
    out = []
    for i in range(offset, offset + n):
        words = ["w%03d_%02d" % (i, j) for j in range(14)]
        text = " ".join(words)
        # 0 to 7 spans: 0 gives empty gold; 5 to 7 in one label is where a
        # frozenset's layout depends on how it was built
        k = i % 8
        gold: dict = {}
        for j in range(k):
            label = "PER" if k >= 5 or j % 2 == 0 else "LOC"
            s = 8 * (2 * j)
            gold.setdefault(label, set()).add((s, s + 7))
        out.append(ExampleRecord("%03d" % i, "NER", text,
                                 {label: frozenset(spans) for label, spans in gold.items()}))
    return out


def mrc_examples(n, offset=0):
    out = []
    for i in range(offset, offset + n):
        if i % 9 == 0:
            gold = "..."  # no tokens once punctuation is stripped
        elif i % 5 == 0:
            gold = ("the %03d harbour" % i, "harbour %03d" % i)
        else:
            gold = "answer number %03d" % i
        text = "Question: where is %03d?\nContext: it is near the %03d harbour." % (i, i)
        out.append(ExampleRecord("%03d" % i, "MRC", text, gold))
    return out


def ner_payload(ex, right: bool) -> str:
    spans = {label: sorted(group) for label, group in sorted(ex.gold.items())}
    if not right:
        if draw("ner-miss", ex.id) < 0.5:
            spans = {label: group[:-1] for label, group in spans.items()}
        spans.setdefault("LOC", []).append((1, 4))
    doc = {label: {ex.input[s:e]: [[s, e]] for s, e in group} for label, group in spans.items()}
    if not doc and draw("ner-empty", ex.id) < 0.5:
        doc = {"PER": {}}  # an empty label list is the same as no label
    return json.dumps(doc)


def cls_payload(ex, right: bool) -> str:
    if right:
        return json.dumps({"label": ex.gold})
    return json.dumps({"label": "ABC"[("ABC".index(ex.gold) + 1) % 3]})


def mrc_payload(ex, right: bool) -> str:
    gold = ex.gold if isinstance(ex.gold, str) else ex.gold[-1]
    return json.dumps({"answer": gold if right else "the %s quay" % ex.id})


PAYLOADS = {"CLS": cls_payload, "NER": ner_payload, "MRC": mrc_payload}


class Repeating(MockBackend):
    """A prompt's accuracy level p is a draw from its text outside the
    input; an example is answered right when its own fixed draw is below p.
    So a reply depends only on the example and on right or wrong, and it
    repeats across every prompt with the same outcome. A fixed share of
    examples answer a miss with prose that does not parse, and a few
    (prompt, example) requests time out. Operator requests get a body named
    after a digest of their text and of how often that text came before, so
    the identical requests of pool initialization give distinct bodies."""

    def __init__(self, task, examples):
        super().__init__([])
        self.task = task
        self.by_input = {ex.input: ex for ex in examples}
        self.seen: dict[str, int] = {}

    def _reply(self, text: str) -> str:
        start = text.find(INPUT_OPEN)
        end = text.find(INPUT_CLOSE, start + 1)
        ex = self.by_input.get(text[start + len(INPUT_OPEN):end]) if start >= 0 else None
        if ex is None:
            n = self.seen[text] = self.seen.get(text, -1) + 1
            digest = hashlib.sha256(("%d\x1f%s" % (n, text)).encode("utf-8")).hexdigest()[:10]
            return json.dumps({"Improved description": "Variant %s of the part." % digest})
        skeleton = text[:start] + text[end:]
        if draw("timeout", skeleton, ex.id) < 0.02:
            raise BackendTimeout("timed out on %s" % ex.id)
        right = draw("u", ex.id) < 0.35 + 0.5 * draw("p", skeleton)
        # an MRC answer with no tokens is missed only with prose
        if not right and (draw("prose", ex.id) < 0.2 or ex.gold == "..."):
            return "I could not find a clear answer for this one."
        return fence(ex.id, PAYLOADS[self.task](ex, right))

    def generate(self, req):
        text = req.messages[-1][1]
        reply = self._reply(text)
        out = GenerationResponse(text=reply, prompt_tokens=len(text.split()),
                                 completion_tokens=len(reply.split()))
        self.usage.add(out)
        return out


def template(task: str) -> MetaPrompt:
    sections = (
        Section(id="task_description", name="task_description",
                body="Solve the %s task for the input." % task, position=0),
        Section(id="rules", name="rules", body="Read the whole input before answering.",
                position=1),
        Section(id="few_shot", name="few_shot", body="", position=2),
        Section(id="output_format", name="output_format",
                body="Answer in JSON.\n" + INPUT_OPEN + "{{Input}}" + INPUT_CLOSE,
                editable=False, position=3),
    )
    return MetaPrompt(sections=sections)


CASES = {
    "NER": (ner_examples, dict(optimizer="msgd", beam_init=3, pairs_per_epoch=3,
                               operators=("reflect", "cot", "diff_evolution", "few_shot"))),
    "CLS": (cls_examples, dict(optimizer="msgd_rl", beam_init=4, pairs_per_epoch=4,
                               cls_average="macro",
                               operators=("reflect", "rewrite", "cot", "self_consistency"))),
    "MRC": (mrc_examples, dict(optimizer="msgd", beam_init=2, pairs_per_epoch=3,
                               operators=("reflect", "refine", "merge"))),
}

# computed when a run first drew its pairs and survivors from one seeded
# random.Random and added its float means with math.fsum, so every supported
# Python gives these values; never edit these to make a change pass. They
# are pinned for the race at eta = 3 (engine.RACE_ETA), which sets what
# each scoring sends, and for each iteration's operator requests riding the
# raced finish batch before it, planned on the finisher's record on its
# last rung's prefix (see engine._Trainer._plan_ahead)
GOLDEN = {
    "CLS": {
        "requests": 770, "tokens": 32472,
        "bests": [0.831574262619934, 0.831574262619934, 0.831574262619934],
        "test": 0.9487179487179486,
        "run_dir_sha256":
            "0b27ecd69c21b84084f4ce14dd6e0d527140024da80578587a29a0d56eac3751",
    },
    "MRC": {
        "requests": 527, "tokens": 22741,
        "bests": [0.76, 0.84, 0.84],
        "test": 0.9833333333333334,
        "run_dir_sha256":
            "4f6dcaa5403d3f4c5b3163fbdec6e1e5a754ab032d2c5c01ed42b209ff200a03",
    },
    "NER": {
        "requests": 574, "tokens": 53530,
        "bests": [0.9528023598820059, 0.9528023598820059, 0.9528023598820059],
        "test": 0.9936305732484078,
        "run_dir_sha256":
            "54af1a3aa93e590d6b21fc0b5cd3e41b01cc5197a1bed88ab2143d49da6e132c",
    },
}


def run_golden(task: str, tmp_path) -> dict:
    make, overrides = CASES[task]
    train_set, test_set = make(100), make(20, offset=100)
    cfg = RunConfig(task=task, iterations=3, top_k=2, anneal_count=1, seed=7,
                    output_dir=str(tmp_path), **overrides)
    run_dir = tmp_path / "run"
    backend = Repeating(task, train_set + test_set)
    _, report, _ = train(cfg, train_set, test_set, template(task), backend, run_dir=run_dir)
    digest = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return {
        "requests": report.usage["requests"],
        "tokens": report.usage["total_tokens"],
        "bests": [row["best"] for row in report.iterations],
        "test": report.final_test_objective,
        "run_dir_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("task", sorted(CASES))
def test_run_matches_golden(task, tmp_path):
    assert run_golden(task, tmp_path) == GOLDEN[task]
