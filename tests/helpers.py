"""Plain helpers shared by the tests; fixtures live in conftest.py."""

import json

import pytest

from promptopt.prompt_model import MetaPrompt, Section


def make_prompt(bodies, editable=None, placeholder_in=-1):
    """Build a prompt whose sections are named s0..sN; the placeholder is
    appended to the section at index `placeholder_in`."""
    sections = []
    n = len(bodies)
    for i, body in enumerate(bodies):
        if i == (placeholder_in % n):
            body = body + "\n{{Input}}" if body else "{{Input}}"
        sections.append(
            Section(
                id="s%d" % i,
                name="s%d" % i,
                body=body,
                editable=True if editable is None else editable[i],
                position=i,
            )
        )
    return MetaPrompt(sections=tuple(sections))


def body_json(name, body):
    return json.dumps({name: body}, ensure_ascii=False)


# a template file (None for no file) and a part of the error it raises
MALFORMED_TEMPLATES = [
    pytest.param('{"sections": [}', "is not valid JSON: ", id="not JSON"),
    pytest.param(None, "cannot read template ", id="no file"),
    pytest.param('{"section": []}', "template missing 'sections'", id="no sections"),
    pytest.param("[]", "template missing 'sections'", id="not an object"),
    pytest.param('{"sections": []}', "'sections' must be a nonempty list",
                 id="empty sections"),
    pytest.param('{"sections": {"name": "task", "body": "x"}}',
                 "'sections' must be a nonempty list", id="sections not a list"),
    pytest.param('{"sections": [{"name": "task"}]}', "section 0 missing name/body",
                 id="no body"),
    pytest.param('{"sections": [{"name": "task", "body": "x"}, {"body": "{{Input}}"}]}',
                 "section 1 missing name/body", id="no name"),
    pytest.param('{"sections": ["task"]}', "section 0 missing name/body",
                 id="section not an object"),
    pytest.param('{"sections": [{"name": "task", "body": "x"},'
                 ' {"name": "task", "body": "{{Input}}"}]}',
                 "duplicate section ids: ['task', 'task']", id="duplicate ids"),
]
