"""Command-line driver: config handling, training runs, one-off evaluation,
report rendering, and experience store management.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

from .backend import BackendConfig, HttpBackend, MockBackend
from .engine import RunConfig, config_from_dict, config_to_dict, run_id_for, train
from .errors import ConfigError, PromptOptError
from .evaluation import evaluate, load_dataset
from .matrix import load_matrix
from .msgd_rl import ExperienceStore, read_experience, save_experience
from .prompt_model import Candidate, load_template, save_template, scratch_prompt
from .settings import from_fields

log = logging.getLogger(__name__)

RUN_KEYS = set(RunConfig.__dataclass_fields__)
EXTRA_KEYS = {"template", "train_data", "test_data", "backend", "mock_script", "labels"}


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
        if leaf not in node and not (node is doc and leaf in RUN_KEYS | EXTRA_KEYS):
            raise ConfigError("override key %r not found in config" % key)
        node[leaf] = _parse_value(value)
    return doc


def load_config(path, overrides=None, seed=None) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s" % (path, e))
    apply_overrides(doc, overrides)
    if seed is not None:
        doc["seed"] = seed
    return doc


def split_config(doc: dict) -> tuple[RunConfig, dict]:
    unknown = set(doc) - RUN_KEYS - EXTRA_KEYS
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    run_doc = {k: v for k, v in doc.items() if k in RUN_KEYS}
    extra = {k: v for k, v in doc.items() if k in EXTRA_KEYS}
    cfg = config_from_dict(run_doc)
    cfg.validate()
    return cfg, extra


def build_backend(cfg: RunConfig, extra: dict, mock_script=None):
    """The run's backend; settings it cannot use raise ConfigError before any
    request is sent."""
    try:
        backend_cfg = from_fields(BackendConfig, extra.get("backend") or {})
        script_path = mock_script or extra.get("mock_script")
        if script_path:
            return MockBackend.from_file(script_path, max_parallel=backend_cfg.max_parallel)
    except (ValueError, ConfigError) as e:
        raise ConfigError("backend: %s" % e) from None
    return HttpBackend(backend_cfg)


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
    (out / "config.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    print("wrote %s and %s" % (out / "config.json", out / "template.json"))
    return 0


def cmd_validate_config(args) -> int:
    doc = load_config(args.config, args.set, args.seed)
    cfg, extra = split_config(doc)
    build_backend(cfg, extra, args.mock_script)
    print("config OK")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set, args.seed)
    cfg, extra = split_config(doc)
    for key in ("template", "train_data"):
        if key not in extra:
            raise ConfigError("config must set %r" % key)
    template = load_template(extra["template"], task_kind=cfg.task,
                             labels=extra.get("labels", []))
    train_set = load_dataset(extra["train_data"], cfg.task)
    test_set = load_dataset(extra["test_data"], cfg.task) if extra.get("test_data") else []
    backend = build_backend(cfg, extra, args.mock_script)
    inputs = _inputs_digest([extra["template"], extra["train_data"], extra.get("test_data"),
                             args.mock_script or extra.get("mock_script")])
    run_dir = Path(cfg.output_dir) / run_id_for(cfg, inputs=inputs)
    best, report, _store = train(cfg, train_set, test_set, template, backend,
                                 run_dir=run_dir)
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
    cfg, extra = split_config(doc) if doc else (RunConfig(), {})
    task = args.task or cfg.task
    prompt = load_template(args.prompt)
    dataset = load_dataset(args.dataset, task)
    backend = build_backend(cfg, extra, args.mock_script)
    report, bad = evaluate(Candidate(prompt=prompt), dataset, backend,
                           objective=cfg.objective, model=cfg.model, seed=cfg.seed,
                           cls_average=cfg.cls_average)
    out = report.as_dict()
    out["bad_case_count"] = len(bad)
    print(json.dumps(out, indent=2))
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    report_file = run_dir / "report.json"
    if not report_file.exists():
        iters = sorted(run_dir.glob("iter_*/report.json"))
        if not iters:
            raise ConfigError("no report.json under %s" % run_dir)
        report_file = iters[-1]
    doc = json.loads(report_file.read_text(encoding="utf-8"))
    rows = doc.get("iterations", [])
    out_csv = run_dir / "summary.csv"
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(["iteration", "best", "mean", "selections"])
        for row in rows:
            sels = ";".join(
                "%s:%s" % (s["section"], s["operator"]) for s in row["selections"]
            )
            writer.writerow([row["iteration"], row["best"], row["mean"], sels])
    print(json.dumps({
        "iterations": len(rows),
        "best": max((r["best"] for r in rows), default=None),
        "final_test_objective": doc.get("final_test_objective"),
        "eval_requests": sum(r.get("eval_requests", 0) for r in rows),
        "raced_out": sum(bool(s.get("raced_out")) for r in rows for s in r["selections"]),
        "summary_csv": str(out_csv),
    }, indent=2))
    return 0


def cmd_experience_export(args) -> int:
    run_dir = Path(args.run_dir)
    matrices = sorted(run_dir.glob("iter_*/matrix.json"))
    if not matrices:
        raise ConfigError("no matrix checkpoints under %s" % run_dir)
    matrix = load_matrix(matrices[-1])
    store = ExperienceStore.new(matrix, args.task, epochs_trained=len(matrices))
    save_experience(store, args.out)
    print("wrote %s" % args.out)
    return 0


def cmd_experience_import(args) -> int:
    read_experience(args.file)  # validates version and shape
    shutil.copyfile(args.file, args.out)
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
    p.add_argument("--task", choices=["NER", "CLS", "MRC"], default="CLS")
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
    p.add_argument("--task", choices=["NER", "CLS", "MRC"], default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summarize a checkpoint directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experience-export", help="export a run's learned matrix")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", default="CLS")
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
