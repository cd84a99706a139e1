"""The program runs on the standard library alone: no promptopt module may
pull in `requests`, `urllib3` or numpy, and no command loads them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import promptopt

BANNED = {"numpy", "requests", "urllib3"}
PACKAGE = Path(promptopt.__file__).resolve().parent

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import promptopt
names = [m.name for m in pkgutil.walk_packages(promptopt.__path__, "promptopt.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "loaded": sorted(sys.modules)}))
"""


def test_importing_every_module_loads_neither():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert {"promptopt.backend", "promptopt.cli", "promptopt.engine"} <= set(doc["modules"])
    assert BANNED.isdisjoint(doc["loaded"])


# a fresh process scaffolds and checks a project, trains it for two
# iterations against a FIFO mock whose replies cycle A, A, B, exports the
# run's matrix and imports it, and warm-starts one more iteration from it,
# all without loading numpy
EVERY_COMMAND = """
import json, pathlib, sys
from promptopt.cli import main
assert main(["init", "--task", "CLS", "--labels", "A", "B", "--out", "w"]) == 0
for name in ("train.jsonl", "test.jsonl"):
    with open(name, "w") as f:
        for i in range(8):
            f.write(json.dumps({"text": "item %d" % i, "label": "AB"[i % 2]}) + "\\n")
with open("fifo.json", "w") as f:
    json.dump([{"response": json.dumps({"label": "AAB"[i % 3]})} for i in range(64)], f)
assert main(["validate-config", "--config", "w/config.json"]) == 0
assert main(["evaluate", "--prompt", "w/template.json", "--dataset", "test.jsonl",
             "--task", "CLS", "--mock-script", "fifo.json"]) == 0
assert main(["train", "--config", "w/config.json", "--mock-script", "fifo.json",
             "--set", "iterations=2"]) == 0
[run_dir] = [str(p) for p in pathlib.Path("runs").iterdir()]
assert main(["experience-export", "--run-dir", run_dir, "--task", "CLS",
             "--out", "exported.json"]) == 0
assert main(["experience-import", "--file", "exported.json", "--out", "prior.json"]) == 0
assert main(["train", "--config", "w/config.json", "--mock-script", "fifo.json",
             "--set", "iterations=1", "--set", "experience_in=prior.json"]) == 0
assert "numpy" not in sys.modules
"""


def test_train_and_experience_commands_load_no_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", EVERY_COMMAND], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "prior.json").is_file()


def test_no_import_statement_names_either():
    # also catches an import inside a function, which importing the module
    # does not run
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += ["%s: %s" % (path.name, n) for n in names
                      if n.split(".")[0] in BANNED]
    assert found == []


def test_every_imported_name_is_used():
    # the package __init__ re-exports the public names, and an import line
    # marked `# noqa: F401` keeps its name on purpose
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append("%s: %s" % (path.relative_to(PACKAGE), name))
    assert unused == []
