"""Command-line driver: config handling, training runs, one-off evaluation,
report rendering, and experience store management.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .backend import BackendConfig, HttpBackend, MockBackend
from .engine import RunConfig, config_from_dict, config_to_dict, run_id_for, train
from .errors import ConfigError, CorruptFile, PromptOptError
from .evaluation import evaluate, load_dataset
from .fileio import write_text_atomic
from .matrix import load_matrix
from .msgd_rl import ExperienceStore, read_experience, save_experience
from .prompt_model import TASK_KINDS, Candidate, load_template, save_template, scratch_prompt
from .settings import from_fields

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Inputs:
    """The config keys that are not run settings; a null value leaves one unset."""
    template: Optional[str] = None
    train_data: Optional[str] = None
    test_data: Optional[str] = None
    mock_script: Optional[str] = None
    backend: BackendConfig = field(default_factory=BackendConfig)


RUN_KEYS = set(RunConfig.__dataclass_fields__)
CONFIG_KEYS = RUN_KEYS | set(Inputs.__dataclass_fields__)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted-key overrides in place; keys must already exist (or be a
    known top-level config key)."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % item)
        key, _, value = item.partition("=")
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError("override path %r does not exist" % key)
            node = node[part]
        leaf = parts[-1]
        if leaf not in node and not (node is doc and leaf in CONFIG_KEYS):
            raise ConfigError("override key %r not found in config" % key)
        node[leaf] = _parse_value(value)
    return doc


def load_config(path, overrides=None, seed=None) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise ConfigError("config %s is not UTF-8 text: %s" % (path, e)) from None
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s" % (path, e))
    if not isinstance(doc, dict):
        raise ConfigError("config %s is not a JSON object" % path)
    apply_overrides(doc, overrides)
    if seed is not None:
        doc["seed"] = seed
    return doc


def split_config(doc: dict) -> tuple[RunConfig, Inputs]:
    inputs = from_fields(Inputs, {k: v for k, v in doc.items()
                                  if k not in RUN_KEYS and v is not None})
    cfg = config_from_dict({k: v for k, v in doc.items() if k in RUN_KEYS})
    cfg.validate()
    return cfg, inputs


def build_backend(inputs: Inputs, mock_script=None):
    """The run's backend; a mock script it cannot use raises ConfigError
    before any request is sent."""
    script_path = mock_script or inputs.mock_script
    try:
        if script_path:
            return MockBackend.from_file(script_path)
    except (ValueError, ConfigError) as e:
        raise ConfigError("backend: %s" % e) from None
    return HttpBackend(inputs.backend)


def _inputs_digest(paths) -> str:
    """sha256 over the bytes of each input file in order; an empty path stands
    for an input the run does not have."""
    h = hashlib.sha256()
    for path in paths:
        if not path:
            h.update(b"-\n")
            continue
        data = Path(path).read_bytes()
        h.update(b"%d\n" % len(data))
        h.update(data)
    return h.hexdigest()


def _emit_error(err: Exception, as_json: bool):
    if as_json:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
    else:
        print("error: %s" % err, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_init(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    template = scratch_prompt(args.task, args.labels or [])
    save_template(template, out / "template.json")
    doc = config_to_dict(RunConfig(task=args.task))
    doc.update({
        "template": str(out / "template.json"),
        "train_data": "train.jsonl",
        "test_data": "test.jsonl",
        "backend": asdict(BackendConfig()),
        "mock_script": None,
    })
    write_text_atomic(out / "config.json", json.dumps(doc, indent=2) + "\n")
    print("wrote %s and %s" % (out / "config.json", out / "template.json"))
    return 0


def cmd_validate_config(args) -> int:
    doc = load_config(args.config, args.set, args.seed)
    _cfg, inputs = split_config(doc)
    build_backend(inputs, args.mock_script)
    print("config OK")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set, args.seed)
    cfg, inputs = split_config(doc)
    for key in ("template", "train_data"):
        if getattr(inputs, key) is None:
            raise ConfigError("config must set %r" % key)
    template = load_template(inputs.template)
    train_set = load_dataset(inputs.train_data, cfg.task)
    test_set = load_dataset(inputs.test_data, cfg.task) if inputs.test_data else []
    backend = build_backend(inputs, args.mock_script)
    digest = _inputs_digest([inputs.template, inputs.train_data, inputs.test_data,
                             args.mock_script or inputs.mock_script])
    run_dir = Path(cfg.output_dir) / run_id_for(cfg, inputs=digest)
    try:
        best, report, _store = train(cfg, train_set, test_set, template, backend,
                                     run_dir=run_dir)
    finally:
        backend.close()
    summary = {
        "run_dir": str(run_dir),
        "iterations_run": len(report.iterations),
        "best_train_objective": report.iterations[-1]["best"] if report.iterations else None,
        "final_test_objective": report.final_test_objective,
        "usage": report.usage,
    }
    print(json.dumps(summary, indent=2))
    print("wall clock: %.2fs" % report.wall_clock_s, file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    doc = load_config(args.config, args.set, args.seed) if args.config else {}
    cfg, inputs = split_config(doc)
    task = args.task or cfg.task
    prompt = load_template(args.prompt)
    dataset = load_dataset(args.dataset, task)
    backend = build_backend(inputs, args.mock_script)
    try:
        # a cap of the whole dataset keeps every example that is not exactly
        # right, so the count is not capped at BAD_CASE_CAP
        report, bad = evaluate(Candidate(prompt=prompt), dataset, backend,
                               objective=cfg.objective, bad_case_cap=len(dataset),
                               model=cfg.model, seed=cfg.seed, cls_average=cfg.cls_average)
    finally:
        backend.close()
    out = report.as_dict()
    out["bad_case_count"] = len(bad)
    print(json.dumps(out, indent=2))
    return 0


def _checkpoints(run_dir: Path, name: str) -> list[Path]:
    """The `name` file of each iter_<n> checkpoint in run_dir, by n."""
    found = [(int(p.parent.name[5:]), p) for p in run_dir.glob("iter_*/" + name)
             if p.parent.name[5:].isdecimal()]
    return [p for _, p in sorted(found)]


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    report_file = run_dir / "report.json"
    if not report_file.exists():
        iters = _checkpoints(run_dir, "report.json")
        if not iters:
            raise ConfigError("no report.json under %s" % run_dir)
        report_file = iters[-1]
    try:
        doc = json.loads(report_file.read_text(encoding="utf-8"))
        rows = doc.get("iterations", [])
        table = [[row["iteration"], row["best"], row["mean"],
                  ";".join("%s:%s" % (s["section"], s["operator"]) for s in row["selections"])]
                 for row in rows]
        summary = {
            "iterations": len(rows),
            "best": max((r["best"] for r in rows), default=None),
            "final_test_objective": doc.get("final_test_objective"),
            "init_eval_requests": doc.get("init_eval_requests"),
            "eval_requests": sum(r.get("eval_requests", 0) for r in rows),
            "raced_out": sum(bool(s.get("raced_out")) for r in rows for s in r["selections"]),
            # operator requests sent ahead for a base that was not the next one
            "dropped_requests": sum(r.get("dropped_requests", 0) for r in rows),
        }
    except (ValueError, AttributeError, KeyError, TypeError) as e:
        raise CorruptFile("cannot read report file %s: %s" % (report_file, e)) from None
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "best", "mean", "selections"])
    writer.writerows(table)
    out_csv = run_dir / "summary.csv"
    write_text_atomic(out_csv, buf.getvalue())
    summary["summary_csv"] = str(out_csv)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_experience_export(args) -> int:
    run_dir = Path(args.run_dir)
    matrices = _checkpoints(run_dir, "matrix.json")
    if not matrices:
        raise ConfigError("no matrix checkpoints under %s" % run_dir)
    matrix = load_matrix(matrices[-1])
    store = ExperienceStore.new(matrix, args.task, epochs_trained=len(matrices))
    save_experience(store, args.out)
    print("wrote %s" % args.out)
    return 0


def cmd_experience_import(args) -> int:
    read_experience(args.file)  # validates version and shape, and that it is UTF-8
    write_text_atomic(args.out, Path(args.file).read_bytes().decode("utf-8"))
    print("imported %s -> %s" % (args.file, args.out))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptopt",
        description="Optimize sectioned prompts with learned operator selection.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable errors")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to run config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted paths allowed)")
        p.add_argument("--mock-script", help="path to a mock backend script")

    p = sub.add_parser("init", help="scaffold a config and template skeleton")
    p.add_argument("--task", choices=TASK_KINDS, default="CLS")
    p.add_argument("--labels", nargs="*", default=[])
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("validate-config", help="check a config against invariants")
    common(p)
    p.set_defaults(func=cmd_validate_config, require_config=True)

    p = sub.add_parser("train", help="run the optimization loop")
    common(p)
    p.set_defaults(func=cmd_train, require_config=True)

    p = sub.add_parser("evaluate", help="score a prompt file on a dataset")
    common(p)
    p.add_argument("--prompt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--task", choices=TASK_KINDS, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summarize a checkpoint directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experience-export", help="export a run's learned matrix")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=TASK_KINDS, default="CLS")
    p.set_defaults(func=cmd_experience_export)

    p = sub.add_parser("experience-import", help="validate and install an experience file")
    p.add_argument("--file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experience_import)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if getattr(args, "require_config", False) and not args.config:
        _emit_error(ConfigError("--config is required"), args.json)
        return 1
    try:
        return args.func(args)
    except ConfigError as e:
        _emit_error(e, args.json)
        return 1
    except PromptOptError as e:
        _emit_error(e, args.json)
        return 2
    except OSError as e:
        _emit_error(e, args.json)
        return 2


if __name__ == "__main__":
    sys.exit(main())
