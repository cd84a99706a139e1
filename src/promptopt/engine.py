"""Training loop: candidate initialization, per-iteration operator
application and evaluation, top-k retention with simulated-annealing
survivors, matrix updates via the configured optimizer, convergence
detection, checkpoints, and reports.

Both optimizers share one edit pipeline. Every pair of an iteration edits
the same base candidate, so an iteration makes at most four backend round
trips: one batch with every pair's operator requests in pair order, then the
evaluation of the distinct edited prompts. Every scoring of a set of prompts,
the initial pool's included, is a race when there are at least two of them
and the training set has at least RACE_PREFIX_DIVISOR * RACE_MIN_PREFIX
examples: successive halving (as in ProTeGi and APE) over three rungs, the
first quarter of the training set, the first half, then the whole set, in at
most three batches. Otherwise one batch scores them on the whole set. Each
prompt's judgements go into one running tally as their batches return, each
once, and its objective on a rung's prefix is read off the tally when the
examples added reach that rung, whether it raced there or skipped it. The
trainer keeps one memo slot per training example, its last reply with that
reply's prediction and judgement, so a repeated reply is neither parsed nor
judged again."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import operators as ops
from .backend import Backend
from .errors import BackendError, ConfigError, EmptyDataset
from .evaluation import (
    BadCase,
    ExampleRecord,
    MetricReport,
    Tally,
    evaluate,
    predict_many,
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
    apply_sarsa_updates,
    load_experience,
    rl_epoch,  # noqa: F401  not called here; perfbench/tracer.py patches this name
    save_experience,
)
from .prompt_model import (
    Candidate,
    MetaPrompt,
    candidate_to_dict,
    reorder,  # noqa: F401  not called here; perfbench/tracer.py patches this name
)
from .settings import from_fields

log = logging.getLogger(__name__)

CONVERGENCE_EPS = 1e-4
CONVERGENCE_WINDOW = 3
# racing: the rungs are the first len(train_set) // RACE_PREFIX_DIVISOR
# examples, then the first half, then the whole set, so the evaluation budget
# doubles from one rung to the next as the field halves. A training set whose
# first rung is shorter than RACE_MIN_PREFIX keeps the single full evaluation
# batch, so runs on under 100 examples send the batches they sent before
# racing existed
RACE_PREFIX_DIVISOR = 4
RACE_MIN_PREFIX = 25


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
        if self.task not in ("NER", "CLS", "MRC"):
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


def retain(candidates: Sequence[Candidate], top_k: int, anneal_count: int,
           temperature: float, rng: np.random.Generator,
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
        weights = np.array(
            [math.exp((_latest(c, objective) - best_score) / t) for c in rest]
        )
        n_extra = min(anneal_count, len(rest))
        if np.count_nonzero(weights) < n_extra:
            # the weights fall with rank, so the positive ones lead
            picked = range(n_extra)
        else:
            picked = rng.choice(len(rest), size=n_extra, replace=False,
                                p=weights / weights.sum())
        survivors.extend(rest[i] for i in sorted(picked))
    return survivors


def initialize_candidates(template: MetaPrompt, backend: Backend, beam_init: int,
                          seed: int, model: str = "default",
                          temperature: float = 0.9) -> list[Candidate]:
    """Seed the candidate pool: generate beam_init variant bodies per
    editable section (refine at elevated temperature) and assemble the i-th
    candidate from the i-th variant of every section. A variant whose reply
    does not parse, or failed with a backend error, keeps the template's
    body; an AuthError ends the run. Duplicate fingerprints are collapsed
    with a warning."""
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
                i = k % beam_init
                prompts[i] = prompts[i].with_body(sid, edit.section_by_id(sid).body)
    pool = [Candidate(prompt=prompt) for prompt in prompts]
    deduped: dict[str, Candidate] = {}
    for cand in pool:
        deduped.setdefault(cand.fingerprint, cand)
    if len(deduped) < len(pool):
        log.warning(
            "initial pool collapsed from %d to %d distinct candidates",
            len(pool), len(deduped),
        )
    return list(deduped.values())


def update_matrix(m: TransitionMatrix, observations: Sequence[GradientObservation],
                  cfg: RunConfig) -> TransitionMatrix:
    """The configured optimizer's update for one iteration's observations:
    one msgd update per observation, in pair order, or one Sarsa epoch."""
    if cfg.optimizer == "msgd_rl":
        return apply_sarsa_updates(
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

class _Trainer:
    def __init__(self, cfg: RunConfig, train_set, test_set, template: MetaPrompt,
                 backend: Backend, run_dir=None):
        cfg.validate()
        self.cfg = cfg
        self.backend = backend
        self.template = template
        self.rng = np.random.default_rng(cfg.seed)
        self.train_set = self._slice(train_set)
        if not self.train_set:
            raise EmptyDataset("the training set is empty")
        self.test_set = list(test_set)
        self.run_dir = Path(run_dir) if run_dir else Path(cfg.output_dir) / run_id_for(cfg)
        self.report = RunReport()
        n = len(self.train_set)
        first = n // RACE_PREFIX_DIVISOR
        self.rungs: tuple[int, ...] = (first, n // 2) if first >= RACE_MIN_PREFIX else ()
        # every fully scored prompt by fingerprint: its report, its bad cases
        # and its objective on train_set[:rung] for each rung
        self.scored: dict[str, tuple[MetricReport, list[BadCase], tuple[float, ...]]] = {}
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
        mask = np.zeros(self.matrix.q.shape, dtype=bool)
        for i, sid in enumerate(sections):
            if sid in editable_ids:
                mask[i, :] = True
        self.eligible = mask
        self.epochs_trained = 0

    def _slice(self, examples) -> tuple[ExampleRecord, ...]:
        examples = tuple(examples)
        if self.cfg.eval_fraction >= 1.0:
            return examples
        n = max(1, int(round(len(examples) * self.cfg.eval_fraction)))
        return examples[:n]

    def _predict(self, cands: Sequence[Candidate], start: int,
                 stop: Optional[int] = None) -> list[tuple[list, list]]:
        """Predictions and judgements of each candidate on
        train_set[start:stop]."""
        examples = self.train_set[start:stop]
        self.eval_requests += len(cands) * len(examples)
        return predict_many(cands, examples, self.backend, model=self.cfg.model,
                            memo=self.replies[start:stop])

    def _scored(self, cand: Candidate, iteration: int) -> Candidate:
        report = self.scored[cand.fingerprint][0]
        return cand.with_score(iteration, {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
        })

    def _score(self, cands: Sequence[Candidate], iteration: int) -> dict[str, tuple[int, float]]:
        """Score distinct candidates, given in pair order, on the training
        set and record each one that finishes in `scored`. With at least two
        candidates and a training set long enough to have rungs, they race:
        at each rung every live candidate is scored on the examples it has
        not seen, and ceil(k / 2) of the k live ones, ranked by objective on
        the rung's prefix with ties going to the earlier pair, go on. Once
        one is left it is finished on the rest of the set in one batch.
        Otherwise one batch scores them on the whole set. Returns the rung
        index and the rung objective of each candidate raced out.

        Each candidate has one tally, and each of its judgements is added
        to it once, in runs that end at the rungs, so every rung objective,
        raced or skipped, is read off the tally as its run ends."""
        cfg = self.cfg
        live = list(range(len(cands)))
        # the examples' task, as `evaluate` scores
        tallies = [Tally(self.train_set[0].task, cfg.objective, cfg.cls_average) for _ in cands]
        predictions = [[] for _ in cands]
        objectives = [[] for _ in cands]  # on train_set[:rung], per rung reached

        def add(i: int, preds: list, judgements: list) -> None:
            start = len(predictions[i])
            predictions[i] += preds
            stop = len(predictions[i])
            keyed = enumerate(judgements, start)
            for cut in [c for c in self.rungs if start < c < stop] + [stop]:
                tallies[i].add(islice(keyed, cut - start))
                if cut in self.rungs:
                    objectives[i].append(tallies[i].objective_value())
                start = cut

        losers = {}
        seen = 0
        for r, cut in enumerate(self.rungs if len(cands) >= 2 else ()):
            for i, judged in zip(live, self._predict([cands[i] for i in live], seen, cut)):
                add(i, *judged)
            seen = cut
            ranked = sorted(live, key=lambda i: (-objectives[i][r], i))
            live = sorted(ranked[:math.ceil(len(live) / 2)])
            for i in ranked[len(live):]:
                losers[cands[i].fingerprint] = (r, objectives[i][r])
            if len(live) == 1:
                break
        for i, tail in zip(live, self._predict([cands[i] for i in live], seen)):
            add(i, *tail)
            bad_cases = sample_bad_cases(self.train_set, predictions[i], tallies[i].misses,
                                         seed=cfg.seed + iteration)
            self.scored[cands[i].fingerprint] = (
                tallies[i].report(), bad_cases, tuple(objectives[i]))
        return losers

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
        None for a no-op: the one place where an edit that leaves the prompt
        as it was, by fingerprint, becomes a no-op."""
        if edited is None or edited.fingerprint() == base.prompt.fingerprint():
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
        self._score(pool, 0)
        pool = [self._scored(cand, 0) for cand in pool if cand.fingerprint in self.scored]
        self.report.init_eval_requests = self.eval_requests
        stall = 0
        prev_best = max(_latest(c, cfg.objective) for c in pool)
        stopped_early = False
        for iteration in range(1, cfg.iterations + 1):
            pool = self._iteration(iteration, pool)
            best = max(_latest(c, cfg.objective) for c in pool)
            self._checkpoint(iteration, pool)
            if best >= 1.0 - 1e-12:
                stopped_early = True
            elif best - prev_best < CONVERGENCE_EPS:
                stall += 1
                if stall >= CONVERGENCE_WINDOW:
                    stopped_early = True
            else:
                stall = 0
            prev_best = max(prev_best, best)
            if stopped_early:
                log.info("converged at iteration %d (best=%.5f)", iteration, best)
                break

        best_cand = max(pool, key=lambda c: (_latest(c, cfg.objective), -len(c.lineage)))
        if self.test_set:
            test_report, _ = evaluate(
                best_cand, self.test_set, self.backend, objective=cfg.objective,
                bad_case_cap=0, seed=cfg.seed, model=cfg.model, cls_average=cfg.cls_average,
            )
            self.report.final_test_objective = test_report.objective_value()
        self.report.usage = self.backend.usage.snapshot()
        self.report.wall_clock_s = time.monotonic() - start
        self._write_report()
        store = ExperienceStore.new(self.matrix, cfg.task, self.epochs_trained)
        if cfg.experience_out:
            save_experience(store, cfg.experience_out)
        return best_cand, self.report, store

    def _iteration(self, iteration: int, pool: list[Candidate]) -> list[Candidate]:
        cfg = self.cfg
        base = max(pool, key=lambda c: (_latest(c, cfg.objective), -len(c.lineage)))
        base_score = _latest(base, cfg.objective)
        n_pairs = min(cfg.effective_pairs_per_epoch(), int(self.eligible.sum()))
        pairs = select_pairs(self.matrix, n_pairs, self.rng, eligible=self.eligible)
        # round trip 1: every backend operator's requests, in pair order
        results = ops.apply_operators(
            [(pair.operator, self._context(pair, base, iteration, pool, k))
             for k, pair in enumerate(pairs)], self.backend)
        edits: list[tuple[SelectionPair, Optional[Candidate]]] = []
        failed = []
        for pair, result in zip(pairs, results):
            if isinstance(result, BackendError):
                # infrastructure noise, not prompt quality: no observation
                log.warning("operator %s on %s failed: %s", pair.operator, pair.section, result)
                failed.append({"section": pair.section, "operator": pair.operator,
                               "error": type(result).__name__})
            else:
                edits.append((pair, self._edited(base, result, pair, iteration)))

        # round trips 2 to 4: the edited prompts, once each
        fresh: dict[str, Candidate] = {}
        for _, cand in edits:
            if cand is not None:
                fresh.setdefault(cand.fingerprint, cand)
        eval_requests = self.eval_requests
        losers = self._score(list(fresh.values()), iteration)
        observations: list[GradientObservation] = []
        selections = []
        new_candidates: list[Candidate] = []
        for pair, cand in edits:
            prev = cur = base_score  # a no-op edit cannot move the score
            lost = cand is not None and cand.fingerprint in losers
            scored_on = 0  # the training examples behind the gradient
            if lost:
                # compare like with like: both scores on the rung's prefix
                r, cur = losers[cand.fingerprint]
                prev = self.scored[base.fingerprint][2][r]
                scored_on = self.rungs[r]
            elif cand is not None:
                cand = self._scored(cand, iteration)
                new_candidates.append(cand)
                cur = _latest(cand, cfg.objective)
                scored_on = len(self.train_set)
            obs = GradientObservation(pair, prev, cur)
            observations.append(obs)
            selections.append({"section": pair.section, "operator": pair.operator,
                               "gradient": obs.gradient, "raced_out": lost,
                               "scored_on": scored_on})
        if observations:
            self.matrix = update_matrix(self.matrix, observations, cfg)

        self.epochs_trained += 1
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
        scores = [_latest(c, cfg.objective) for c in pool]
        self.report.iterations.append({
            "iteration": iteration,
            "best": max(scores),
            "mean": sum(scores) / len(scores),
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
