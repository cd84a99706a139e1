"""Plain helpers shared by the tests; fixtures live in conftest.py."""

import json

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
