"""Training loop: candidate initialization, per-iteration operator
application and evaluation, top-k retention with simulated-annealing
survivors, matrix updates via the configured optimizer, convergence
detection, checkpoints, and reports.

Both optimizers share one edit pipeline. Every pair of an iteration edits
the same base candidate, so an iteration makes at most four backend round
trips: one batch with every pair's operator requests in pair order, then the
evaluation of the distinct edited prompts. Every scoring of a set of prompts,
the initial pool's included, is a race when there are at least two of them
and the training set has at least RACE_MIN_SET examples: successive halving
(as in ProTeGi and APE) at eta = RACE_ETA = 3, as Hyperband runs it (Li et
al., 2018), over three rungs, each eta times longer than the one before: a
first prefix of n / 9 examples, but at least RACE_MIN_PREFIX, then n / 3,
then the whole set, in at most three batches. The first rung keeps the best
third of the field, rounded up, and the second its best prompt alone, so
one prompt finishes, as the last round of successive halving (Jamieson and
Talwalkar, 2016) ends with one arm. The first prefix is then cut back to
the longest whose batch of the k prompts fills whole waves of the backend's
max_parallel requests (see first_rung), which can take it below
RACE_MIN_PREFIX, and the second is cut the same way for the prompts still
live, always to past the first; so at max_parallel 1 they are the uncut
first prefix and the first third. Otherwise one batch scores them on the
whole set. An edit raced out never reaches the next iteration: the parents
that merge and diff_evolution take are the pool's. Every evaluation request
of an iteration goes out in its scoring, so every live prompt has been sent
the same prefix, and no (prompt, example) request is sent twice.

Every evaluation batch is a list of (candidate, start, stop) segments of the
training set, whose layout `evaluation` owns: `eval_requests` lists their
requests and `judge_replies` splits the replies back per segment. Each
prompt's judgements go into one running tally, each once, in example
order, and its objective on a rung's prefix is read off the tally. A prompt
that finishes keeps its judgements in example order, so its objective on
any prefix can be compared with that of a prompt raced out on it. The
trainer keeps one memo slot per training example, its last reply with that
reply's prediction and judgement, so a repeated reply is neither parsed nor
judged again.

Each scoring returns one record per scored prompt: its scores and the
prefix they were taken on (the whole set for a prompt that finishes). The
initial pool and each iteration's edits take their scores from it; an
iteration builds its edits, one per pair that did not fail, in one dict by
pair index and reads it back in pair order."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import msgd_rl
from . import operators as ops
from .backend import Backend
from .errors import (
    BackendError,
    ConfigError,
    DuplicatePlaceholder,
    EmptyDataset,
    MissingPlaceholder,
    ZeroMass,
)
from .evaluation import (
    BadCase,
    ExampleRecord,
    MetricReport,
    Tally,
    eval_requests,
    evaluate,
    judge_replies,
    reply_memo,
    sample_bad_cases,
)
from .fileio import write_text_atomic
from .matrix import (
    GradientObservation,
    SelectionPair,
    TransitionMatrix,
    init_uniform,
    save_matrix,
    select_pairs,
)
from .msgd import msgd_update, norm_delta
from .msgd_rl import (
    ExperienceStore,
    load_experience,
    rl_epoch,  # noqa: F401  not called here; perfbench/tracer.py patches this name
    save_experience,
)
from .prompt_model import (
    TASK_KINDS,
    Candidate,
    MetaPrompt,
    candidate_to_dict,
    render,
    reorder,  # noqa: F401  not called here; perfbench/tracer.py patches this name
)
from .rng import Random, choice_distinct
from .settings import from_fields

log = logging.getLogger(__name__)

CONVERGENCE_EPS = 1e-4
CONVERGENCE_WINDOW = 3
# racing: successive halving at eta = RACE_ETA. A training set of n >=
# RACE_MIN_SET examples races over the first max(n // RACE_ETA ** 2,
# RACE_MIN_PREFIX) examples, then the first n // RACE_ETA, then the whole
# set: each rung but the last keeps the best ceil(live / RACE_ETA) prompts,
# and only the best prompt on the last one goes on. So the uncut first rung
# is at most a quarter of the set and shorter than the second. Each of the
# first two rungs is then cut back to fill whole waves of the backend's
# max_parallel requests for the prompts still live (see first_rung), and that
# cut can take the first below RACE_MIN_PREFIX: 12 examples at n = 100, 5
# prompts and 64 slots. A smaller set does not race: each scoring is one
# batch on the whole set. RACE_ETA is not a config key
RACE_ETA = 3
RACE_MIN_PREFIX = 25
RACE_MIN_SET = 4 * RACE_MIN_PREFIX


def first_rung(uncut: int, k: int, parallel: int, seen: int = 0) -> int:
    """A racing rung's prefix length for k live prompts, each already sent
    its first `seen` examples, with seen < uncut. `uncut` is any rung's
    uncut prefix, as in _Trainer.rungs.

    With nothing sent, it is F: the longest prefix of at most `uncut`
    examples whose batch of k * F requests fits in the whole waves of
    `parallel` requests that k * uncut fills, so no last wave goes out
    part-full; `uncut` itself when k * uncut is under one wave, and at
    parallel 1. With examples sent, F is `uncut` when that cut would not
    go past `seen`, and the requests still due, k * (F - seen), are cut
    the same way: it is the longest prefix of at most F whose unsent
    requests, k * (prefix - seen), fit in the whole waves (at least one)
    that those due requests fill, but at least seen + 1. So a rung always
    goes past the one before it: seen < cut <= uncut."""
    if k * uncut < parallel:
        cut = uncut
    else:
        cut = k * uncut // parallel * parallel // k
    if not seen:
        return cut
    if cut <= seen:
        cut = uncut
    room = max(1, k * (cut - seen) // parallel) * parallel
    return min(cut, seen + max(1, room // k))


@dataclass
class RunConfig:
    iterations: int = 10
    beam_init: int = 6
    top_k: int = 3
    anneal_count: int = 2
    anneal_temperature_start: float = 1.0
    anneal_temperature_decay: float = 0.9
    optimizer: str = "msgd"  # msgd | msgd_rl
    learning_rate_alpha: float = 1.0
    msgd_update_mode: str = "multiplicative"  # or "additive"
    sarsa_alpha: float = 0.5
    sarsa_gamma: float = 0.5
    reward_mode: str = "mean"  # mean | per_pair
    pairs_per_epoch: int = 0  # 0 -> optimizer default (2 msgd / 5 msgd_rl)
    objective: str = "f1"
    seed: int = 0
    model: str = "default"
    operator_temperature: float = 0.7
    operators: tuple[str, ...] = ()
    eval_fraction: float = 1.0
    few_shot_k: int = 3
    few_shot_strategy: str = "uniform"
    experience_in: Optional[str] = None
    experience_out: Optional[str] = None
    output_dir: str = "runs"
    task: str = "CLS"
    cls_average: str = "micro"

    def effective_pairs_per_epoch(self) -> int:
        if self.pairs_per_epoch > 0:
            return self.pairs_per_epoch
        return 5 if self.optimizer == "msgd_rl" else 2

    def effective_operators(self) -> tuple[str, ...]:
        return tuple(self.operators) or ops.OPERATOR_IDS

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.anneal_count < 0:
            raise ConfigError("anneal_count must be >= 0")
        if not self.anneal_temperature_start > 0:
            raise ConfigError("anneal_temperature_start must be positive")
        if not 0 < self.anneal_temperature_decay <= 1:
            raise ConfigError("anneal_temperature_decay must be in (0, 1]")
        if self.beam_init < 1:
            raise ConfigError("beam_init must be >= 1")
        if self.optimizer not in ("msgd", "msgd_rl"):
            raise ConfigError("optimizer must be msgd or msgd_rl")
        if self.objective not in ("f1", "precision", "recall"):
            raise ConfigError("objective must be one of f1/precision/recall")
        if not 0 < self.eval_fraction <= 1:
            raise ConfigError("eval_fraction must be in (0, 1]")
        if not 0 < self.learning_rate_alpha < math.inf:
            raise ConfigError("learning_rate_alpha must be positive and finite")
        if not 0 <= self.operator_temperature < math.inf:
            raise ConfigError("operator_temperature must be >= 0 and finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0 < self.sarsa_alpha <= 1:
            raise ConfigError("sarsa_alpha must be in (0, 1]")
        if not 0 <= self.sarsa_gamma <= 1:
            raise ConfigError("sarsa_gamma must be in [0, 1]")
        if self.reward_mode not in ("mean", "per_pair"):
            raise ConfigError("reward_mode must be mean or per_pair")
        if self.msgd_update_mode not in ("multiplicative", "additive"):
            raise ConfigError("msgd_update_mode must be multiplicative or additive")
        if self.few_shot_strategy not in ("uniform", "stratified", "hard_case"):
            raise ConfigError("few_shot_strategy must be uniform, stratified or hard_case")
        if self.few_shot_k < 0:
            raise ConfigError("few_shot_k must be >= 0")
        if self.pairs_per_epoch < 0:
            raise ConfigError("pairs_per_epoch must be >= 0")
        operators = self.effective_operators()
        for i, op in enumerate(operators):
            if op not in ops.OPERATOR_IDS:
                raise ConfigError("unknown operator %r" % op)
            if op in operators[:i]:
                raise ConfigError("duplicate operator %r" % op)
        if self.task not in TASK_KINDS:
            raise ConfigError("task must be NER/CLS/MRC")
        if self.cls_average not in ("micro", "macro"):
            raise ConfigError("cls_average must be micro or macro")


def config_from_dict(doc: dict) -> RunConfig:
    return from_fields(RunConfig, doc)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = asdict(cfg)
    doc["operators"] = list(doc["operators"])
    return doc


def run_id_for(cfg: RunConfig, inputs: Optional[str] = None) -> str:
    """12 hex digits naming the run directory. `inputs` is a digest of the
    run's input files, so runs that differ only in their data get their own
    directory; without it the id depends on the config alone."""
    doc = config_to_dict(cfg)
    if inputs is not None:
        doc = {"config": doc, "inputs": inputs}
    canon = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunReport:
    iterations: list = field(default_factory=list)
    final_test_objective: Optional[float] = None
    usage: dict = field(default_factory=dict)
    init_eval_requests: int = 0  # the requests that scored the initial pool
    wall_clock_s: float = 0.0

    def to_dict(self) -> dict:
        # wall clock is excluded from checkpoint files so identical runs
        # produce byte-identical artifacts
        return {
            "iterations": self.iterations,
            "final_test_objective": self.final_test_objective,
            "usage": self.usage,
            "init_eval_requests": self.init_eval_requests,
        }


# ---------------------------------------------------------------------------
# pool management

def _latest(cand: Candidate, objective: str) -> float:
    s = cand.latest_score(objective)
    return s if s is not None else 0.0


def _best(pool: Sequence[Candidate], objective: str) -> Candidate:
    # ties go to the shorter lineage, then to the earlier candidate
    return max(pool, key=lambda c: (_latest(c, objective), -len(c.lineage)))


def _distinct(cands: Iterable[Optional[Candidate]]) -> list[Candidate]:
    """The first candidate of each fingerprint, in order, skipping None."""
    first: dict[str, Candidate] = {}
    for cand in cands:
        if cand is not None:
            first.setdefault(cand.fingerprint, cand)
    return list(first.values())


def retain(candidates: Sequence[Candidate], top_k: int, anneal_count: int,
           temperature: float, rng: Random,
           objective: str = "f1") -> list[Candidate]:
    """Keep the top_k candidates by objective plus up to anneal_count
    lower-scoring survivors sampled with weight exp((score - best)/T). The
    best candidate always survives. When fewer weights than survivors to
    draw are above zero (a temperature so small that they underflow), the
    leading ones in rank order survive, the limit as T goes to 0."""
    if not candidates:
        return []

    def sort_key(c: Candidate):
        return (-_latest(c, objective), len(c.lineage), c.fingerprint)

    ordered = sorted(candidates, key=sort_key)
    survivors = ordered[:top_k]
    rest = ordered[top_k:]
    if rest and anneal_count > 0:
        best_score = _latest(ordered[0], objective)
        t = max(temperature, 1e-9)
        weights = [math.exp((_latest(c, objective) - best_score) / t) for c in rest]
        n_extra = min(anneal_count, len(rest))
        if sum(1 for w in weights if w > 0) < n_extra:
            # the weights fall with rank, so the positive ones lead
            picked = range(n_extra)
        else:
            picked = choice_distinct(rng, weights, n_extra)
        survivors.extend(rest[i] for i in sorted(picked))
    return survivors


def initialize_candidates(template: MetaPrompt, backend: Backend, beam_init: int,
                          seed: int, model: str = "default",
                          temperature: float = 0.9) -> list[Candidate]:
    """Seed the candidate pool: generate beam_init variant bodies per
    editable section (refine at elevated temperature) and assemble the i-th
    candidate from the i-th variant of every section. A variant whose reply
    does not parse, or failed with a backend error, keeps the template's
    body, and so does one that breaks the template's contract (see
    _contract_breach); an AuthError ends the run. Duplicate fingerprints are
    collapsed with a warning."""
    prompts = [template] * beam_init
    if beam_init > 1:
        jobs = [
            ("refine", ops.OperatorContext(target_section=section, prompt=template, model=model,
                                           temperature=temperature, rng_seed=seed))
            for section in template.editable_sections()
            for _ in range(beam_init)
        ]
        edits = ops.apply_operators(jobs, backend)
        for k, ((_, ctx), edit) in enumerate(zip(jobs, edits)):
            if isinstance(edit, MetaPrompt):
                sid = ctx.target_section.id
                breach = _contract_breach(template, edit)
                if breach:
                    log.warning("refine on %s keeps the template's body: %s", sid, breach)
                else:
                    i = k % beam_init
                    prompts[i] = prompts[i].with_body(sid, edit.section_by_id(sid).body)
    pool = [Candidate(prompt=prompt) for prompt in prompts]
    distinct = _distinct(pool)
    if len(distinct) < len(pool):
        log.warning(
            "initial pool collapsed from %d to %d distinct candidates",
            len(pool), len(distinct),
        )
    return distinct


def update_matrix(m: TransitionMatrix, observations: Sequence[GradientObservation],
                  cfg: RunConfig) -> TransitionMatrix:
    """The configured optimizer's update for one iteration's observations:
    one msgd update per observation, in pair order, or one Sarsa epoch."""
    if cfg.optimizer == "msgd_rl":
        # through the module, where perfbench/tracer.py patches it to time it
        return msgd_rl.apply_sarsa_updates(
            m, observations, cfg.sarsa_alpha, cfg.sarsa_gamma, reward_mode=cfg.reward_mode,
        )
    for obs in observations:
        if obs.score_prev > 0:
            norm = norm_delta(obs.score_prev, obs.score_cur)
        else:
            # zero baseline: fall back to the absolute score change
            norm = obs.gradient
        m = msgd_update(m, obs.pair, norm, alpha=cfg.learning_rate_alpha,
                        mode=cfg.msgd_update_mode)
    return m


# ---------------------------------------------------------------------------
# training

def _contract_breach(base: MetaPrompt, edited: MetaPrompt) -> str:
    """Why `edited` breaks the contract of `base`, or "" when it keeps it:
    it must render, with its input placeholder exactly once, and keep the
    body of every section that `base` marks non-editable."""
    try:
        render(edited, "")
    except (MissingPlaceholder, DuplicatePlaceholder) as e:
        return str(e)
    bodies = {s.id: s.body for s in edited.sections}
    changed = [s.id for s in base.sections if not s.editable and bodies.get(s.id) != s.body]
    if changed:
        return "non-editable section %s changed" % ", ".join(changed)
    return ""


class _Trainer:
    def __init__(self, cfg: RunConfig, train_set, test_set, template: MetaPrompt,
                 backend: Backend, run_dir=None):
        cfg.validate()
        # fail before any request is sent and before the run directory is
        # made: a template that does not render fails every evaluation, and
        # the experience is written only after the last one
        render(template, "")
        if cfg.experience_out:
            out = Path(cfg.experience_out)
            if not out.parent.is_dir():
                raise FileNotFoundError("experience_out %s: directory %s does not exist"
                                        % (out, out.parent))
            if out.is_dir():
                raise IsADirectoryError("experience_out %s is a directory" % out)
        self.cfg = cfg
        self.backend = backend
        self.template = template
        self.rng = random.Random(cfg.seed)
        self.train_set = self._slice(train_set)
        if not self.train_set:
            raise EmptyDataset("the training set is empty")
        self.test_set = list(test_set)
        self.run_dir = Path(run_dir) if run_dir else Path(cfg.output_dir) / run_id_for(cfg)
        self.report = RunReport()
        n = len(self.train_set)
        # the rungs before they are cut to whole waves (see first_rung)
        self.rungs: tuple[int, ...] = (
            (max(n // RACE_ETA ** 2, RACE_MIN_PREFIX), n // RACE_ETA) if n >= RACE_MIN_SET else ())
        # each prompt that finished, by fingerprint, until it leaves the
        # pool: its report, its bad cases and its judgements of train_set,
        # in example order
        self.scored: dict[str, tuple[MetricReport, list[BadCase], tuple]] = {}
        # the last reply to each training example, its prediction and its
        # judgement: most edits change few predictions, so most replies
        # repeat and are neither parsed nor judged again
        self.replies = reply_memo(n)
        self.eval_requests = 0
        sections = tuple(s.id for s in template.ordered_sections())
        operators = cfg.effective_operators()
        if cfg.experience_in:
            self.matrix = load_experience(
                cfg.experience_in, sections, operators, task_kind=cfg.task
            )
        else:
            self.matrix = init_uniform(sections, operators)
        editable_ids = {s.id for s in template.editable_sections()}
        editable = [sid in editable_ids for sid in sections]
        self.eligible = [[ok] * len(operators) for ok in editable]
        cells = [x for row, ok in zip(self.matrix.q, editable) if ok for x in row]
        # select_pairs normalizes the matrix and draws each iteration's pairs
        # from the editable cells: with no mass there (or anywhere, for a
        # template without them) it fails, so fail before any request
        drawn = cells or [x for row in self.matrix.q for x in row]
        if not any(x > 0 for x in drawn):
            raise ZeroMass("the matrix has no mass on the editable sections' cells")
        # each iteration draws this many distinct cells with mass, and no cell
        # gains or loses mass in a run: a cell without it is never drawn, and
        # every update clamps at Q_FLOOR
        self.n_pairs = min(cfg.effective_pairs_per_epoch(),
                           sum(1 for x in cells if x > 0))

    def _slice(self, examples) -> tuple[ExampleRecord, ...]:
        examples = tuple(examples)
        n = max(1, int(round(len(examples) * self.cfg.eval_fraction)))
        return examples[:n]

    def _requests(self, segments: Sequence[tuple[Candidate, int, int]]) -> list:
        """The segments' requests on train_set (see eval_requests), counted
        in eval_requests."""
        reqs = eval_requests(segments, self.train_set, self.cfg.model)
        self.eval_requests += len(reqs)
        return reqs

    def _tally(self) -> Tally:
        # the examples' task, as `evaluate` scores
        return Tally(self.train_set[0].task, self.cfg.objective, self.cfg.cls_average)

    def _objective_on(self, fingerprint: str, cut: int) -> float:
        """The objective of a finished prompt on train_set[:cut]."""
        tally = self._tally()
        tally.add(enumerate(self.scored[fingerprint][2][:cut]))
        return tally.objective_value()

    def _score(self, cands: Sequence[Candidate], iteration: int
               ) -> dict[str, tuple[dict[str, float], int]]:
        """Score distinct candidates, given in pair order, on the training
        set and record each one that finishes in `scored`.

        With at least two candidates and a training set long enough to have
        rungs, they race: at each rung every live candidate is sent the
        examples of the rung's prefix that it has not been sent, the same
        ones for each, and the live ones are ranked by objective on the
        prefix, ties going to the earlier pair. Successive halving at eta =
        RACE_ETA: on each rung but the last the best ceil(k / eta) of the k
        live ones go on; on the last only the first ranked does, so at most
        one candidate finishes. Each rung is cut to whole waves for the
        prompts still live and the examples already sent, always past the
        rung before it (see first_rung). Once one is left it is finished on
        the rest of the set in one batch. Otherwise one batch scores them on
        the whole set.

        Returns a record for every candidate, by fingerprint: (scores,
        scored_on). A candidate that finishes has its precision, recall and
        f1 on the whole set and scored_on = len(train_set). One raced out
        has its objective on the prefix it lost on and that prefix's length.

        Each candidate has one tally, and each of its judgements is added
        to it once, in example order."""
        live = list(range(len(cands)))
        tallies = [self._tally() for _ in cands]
        predictions = [[] for _ in cands]
        judgements = [[] for _ in cands]
        sent = 0  # the prefix every live candidate has been sent

        def send(stop: int) -> None:
            # each live candidate's examples from `sent` to `stop`, one batch
            nonlocal sent
            segments = [(cands[i], sent, stop) for i in live]
            if segments and stop > sent:
                results = self.backend.generate_batch(self._requests(segments))
                for i, (preds, judgs) in zip(live, judge_replies(
                        segments, self.train_set, results, self.replies)):
                    predictions[i] += preds
                    judgements[i] += judgs
                    tallies[i].add(enumerate(judgs, sent))
            sent = stop

        records = {}
        for r, uncut in enumerate(self.rungs):
            if len(live) < 2:
                break
            # send the rung's prefix, then keep the best third of the field,
            # or on the last rung its best prompt alone
            cut = first_rung(uncut, len(live), self.backend.max_parallel, sent)
            send(cut)
            objectives = {i: tallies[i].objective_value() for i in live}
            ranked = sorted(live, key=lambda i: (-objectives[i], i))
            keep = 1 if r == len(self.rungs) - 1 else math.ceil(len(live) / RACE_ETA)
            live = sorted(ranked[:keep])
            for i in ranked[len(live):]:
                records[cands[i].fingerprint] = ({self.cfg.objective: objectives[i]}, cut)
        send(len(self.train_set))
        for i in live:
            report = tallies[i].report()
            bad_cases = sample_bad_cases(self.train_set, predictions[i], tallies[i].misses,
                                         seed=self.cfg.seed + iteration)
            self.scored[cands[i].fingerprint] = (report, bad_cases, tuple(judgements[i]))
            records[cands[i].fingerprint] = (
                {"precision": report.precision, "recall": report.recall, "f1": report.f1},
                len(self.train_set))
        return records

    def _context(self, pair: SelectionPair, base: Candidate, iteration: int,
                 pool: Sequence[Candidate], pair_index: int) -> ops.OperatorContext:
        report, bad_cases, _ = self.scored[base.fingerprint]
        return ops.OperatorContext(
            target_section=base.prompt.section_by_id(pair.section),
            prompt=base.prompt,
            sibling_candidates=tuple(pool),
            bad_cases=tuple(bad_cases),
            dataset=self.train_set,
            rng_seed=self.cfg.seed * 1_000_003 + iteration * 101 + pair_index,
            model=self.cfg.model,
            temperature=self.cfg.operator_temperature,
            objective=self.cfg.objective,
            metric_report=report,
            few_shot_k=self.cfg.few_shot_k,
            few_shot_strategy=self.cfg.few_shot_strategy,
        )

    @staticmethod
    def _edited(base: Candidate, edited: Optional[MetaPrompt], pair: SelectionPair,
                iteration: int) -> Optional[Candidate]:
        """The candidate the operator's edited prompt makes of the base, or
        None for a no-op: the one place that judges an edit. An edit that
        leaves the prompt as it was, by fingerprint, is a no-op, and so is
        one that breaks the prompt's contract (see _contract_breach)."""
        if edited is None or edited.fingerprint() == base.prompt.fingerprint():
            return None
        breach = _contract_breach(base.prompt, edited)
        if breach:
            log.warning("%s on %s is a no-op: %s", pair.operator, pair.section, breach)
            return None
        return replace(base, prompt=edited).with_edit(iteration, pair.section, pair.operator)

    def run(self) -> tuple[Candidate, RunReport, ExperienceStore]:
        cfg = self.cfg
        start = time.monotonic()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        pool = initialize_candidates(
            self.template, self.backend, cfg.beam_init, cfg.seed,
            model=cfg.model, temperature=max(cfg.operator_temperature, 0.9),
        )
        records = self._score(pool, 0)
        pool = [cand.with_score(0, records[cand.fingerprint][0]) for cand in pool
                if cand.fingerprint in self.scored]
        self.report.init_eval_requests = self.eval_requests
        stall = 0
        prev_best = max(_latest(c, cfg.objective) for c in pool)
        for iteration in range(1, cfg.iterations + 1):
            pool = self._iteration(iteration, pool)
            best = max(_latest(c, cfg.objective) for c in pool)
            self._checkpoint(iteration, pool)
            stall = stall + 1 if best - prev_best < CONVERGENCE_EPS else 0
            prev_best = max(prev_best, best)
            if best >= 1 - 1e-12 or stall >= CONVERGENCE_WINDOW:
                log.info("converged at iteration %d (best=%.5f)", iteration, best)
                break

        best_cand = _best(pool, cfg.objective)
        if self.test_set:
            test_report, _ = evaluate(
                best_cand, self.test_set, self.backend, objective=cfg.objective,
                bad_case_cap=0, seed=cfg.seed, model=cfg.model, cls_average=cfg.cls_average,
            )
            self.report.final_test_objective = test_report.objective_value()
        self.report.usage = self.backend.usage.snapshot()
        self.report.wall_clock_s = time.monotonic() - start
        self._write_report()
        store = ExperienceStore.new(self.matrix, cfg.task, len(self.report.iterations))
        if cfg.experience_out:
            save_experience(store, cfg.experience_out)
        return best_cand, self.report, store

    def _iteration(self, iteration: int, pool: list[Candidate]) -> list[Candidate]:
        cfg = self.cfg
        n = len(self.train_set)
        base = _best(pool, cfg.objective)
        base_score = _latest(base, cfg.objective)
        pairs = select_pairs(self.matrix, self.n_pairs, self.rng, eligible=self.eligible)
        jobs = [(pair.operator, self._context(pair, base, iteration, pool, k))
                for k, pair in enumerate(pairs)]
        eval_requests = self.eval_requests
        # round trip 1: every backend operator's requests, in pair order
        results = ops.apply_operators(jobs, self.backend)
        # every pair's edit that did not fail, by pair index in pair order,
        # by which the race breaks ties
        edits: dict[int, Optional[Candidate]] = {}
        failed = []
        for k, (pair, result) in enumerate(zip(pairs, results)):
            if isinstance(result, BackendError):
                # infrastructure noise, not prompt quality: no observation
                log.warning("operator %s on %s failed: %s", pair.operator, pair.section, result)
                failed.append({"section": pair.section, "operator": pair.operator,
                               "error": type(result).__name__})
            else:
                edits[k] = self._edited(base, result, pair, iteration)

        # round trips 2 to 4: the edited prompts, once each
        records = self._score(_distinct(edits.values()), iteration)
        observations: list[GradientObservation] = []
        selections = []
        new_candidates: list[Candidate] = []
        for k, cand in edits.items():
            pair = pairs[k]
            prev = cur = base_score  # a no-op edit cannot move the score
            scored_on = 0  # the training examples behind the gradient
            if cand is not None:
                scores, scored_on = records[cand.fingerprint]
                cur = scores[cfg.objective]
                if scored_on < n:
                    # compare like with like: both scores on the prefix it lost on
                    prev = self._objective_on(base.fingerprint, scored_on)
                else:
                    new_candidates.append(cand.with_score(iteration, scores))
            obs = GradientObservation(pair, prev, cur)
            observations.append(obs)
            selections.append({"section": pair.section, "operator": pair.operator,
                               "gradient": obs.gradient,
                               "raced_out": cand is not None and scored_on < n,
                               "scored_on": scored_on})
        if observations:
            self.matrix = update_matrix(self.matrix, observations, cfg)

        # a prompt already in the pool keeps its pool entry; one reached by
        # several edits of this iteration keeps the last of them
        merged = {c.fingerprint: c for c in new_candidates}
        merged.update((c.fingerprint, c) for c in pool)
        temperature = cfg.anneal_temperature_start * (
            cfg.anneal_temperature_decay ** (iteration - 1)
        )
        pool = retain(
            list(merged.values()), cfg.top_k, cfg.anneal_count, temperature,
            self.rng, objective=cfg.objective,
        )
        # only a pool prompt's record is read again, when it is the base
        self.scored = {c.fingerprint: self.scored[c.fingerprint] for c in pool}
        pool_scores = [_latest(c, cfg.objective) for c in pool]
        self.report.iterations.append({
            "iteration": iteration,
            "best": max(pool_scores),
            "mean": math.fsum(pool_scores) / len(pool_scores),
            "selections": selections,
            "failed": failed,
            "eval_requests": self.eval_requests - eval_requests,
            "pool_size": len(pool),
        })
        return pool

    def _checkpoint(self, iteration: int, pool: list[Candidate]):
        it_dir = self.run_dir / ("iter_%03d" % iteration)
        it_dir.mkdir(parents=True, exist_ok=True)
        _write_json(it_dir / "candidates.json", [candidate_to_dict(c) for c in pool])
        save_matrix(self.matrix, it_dir / "matrix.json")
        _write_json(it_dir / "report.json", self.report.to_dict())

    def _write_report(self):
        _write_json(self.run_dir / "report.json", self.report.to_dict())
        op_ids = list(self.cfg.effective_operators())
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "best", "mean"] + ["count_%s" % o for o in op_ids])
        for row in self.report.iterations:
            counts = {o: 0 for o in op_ids}
            for sel in row["selections"]:
                counts[sel["operator"]] += 1
            writer.writerow(
                [row["iteration"], "%.6f" % row["best"], "%.6f" % row["mean"]]
                + [counts[o] for o in op_ids]
            )
        write_text_atomic(self.run_dir / "report.csv", buf.getvalue())


def _write_json(path, doc):
    write_text_atomic(path, json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n")


def train(cfg: RunConfig, train_set: Sequence[ExampleRecord],
          test_set: Sequence[ExampleRecord], template: MetaPrompt,
          backend: Backend, run_dir=None,
          ) -> tuple[Candidate, RunReport, ExperienceStore]:
    """Run the full optimization loop and return the best candidate, the run
    report, and the learned experience."""
    return _Trainer(cfg, train_set, test_set, template, backend, run_dir=run_dir).run()
