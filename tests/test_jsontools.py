import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from promptopt.jsontools import extract_first_json


def scanner_extract_first_json(text):
    """The brace scanner that `extract_first_json` replaced, kept as the
    reference: at each `{` or `[` in turn, find the closer that balances it
    (same bracket kind only, skipping JSON strings) and decode that span."""
    for start, opener, closer in _candidate_spans(text):
        depth = 0
        in_string = False
        escape = False
        for i in range(start, len(text)):
            c = text[i]
            if in_string:
                if escape:
                    escape = False
                elif c == "\\":
                    escape = True
                elif c == '"':
                    in_string = False
                continue
            if c == '"':
                in_string = True
            elif c == opener:
                depth += 1
            elif c == closer:
                depth -= 1
                if depth == 0:
                    chunk = text[start : i + 1]
                    try:
                        return json.loads(chunk)
                    except json.JSONDecodeError:
                        break
        # unbalanced or invalid: try the next opener
    return None


def _candidate_spans(text):
    for i, c in enumerate(text):
        if c == "{":
            yield i, "{", "}"
        elif c == "[":
            yield i, "[", "]"


def same(a, b):
    """Equal values of equal JSON types (1 and 1.0 and True differ)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def assert_matches_scanner(text):
    try:
        expected = scanner_extract_first_json(text)
    except RecursionError:
        assume(False)  # the scanner gives no answer to compare with
    assert same(extract_first_json(text), expected)


scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(alphabet='ab {}[]"\\:,\n\u00e9\u5f20', max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(alphabet='ab{}[]"\\', max_size=4), inner,
                                     max_size=3)),
    max_leaves=8,
)
containers = (st.lists(json_values, max_size=3)
              | st.dictionaries(st.text(alphabet='ab{}[]"\\', max_size=4), json_values,
                                max_size=3))
documents = st.builds(
    lambda value, ensure_ascii, indent: json.dumps(value, ensure_ascii=ensure_ascii,
                                                   indent=indent),
    containers, st.booleans(), st.none() | st.integers(0, 2),
)
prose = st.text(alphabet='{}[]":,\\ \nab1-.', max_size=12)


@st.composite
def replies(draw):
    """Model-like replies: prose around one to three documents, each plain,
    fenced, truncated or with one character dropped."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(documents)
        kind = draw(st.sampled_from(["plain", "fenced", "truncated", "dropped"]))
        if kind == "fenced":
            doc = "```json\n%s\n```" % doc
        elif kind == "truncated":
            doc = doc[:draw(st.integers(0, len(doc)))]
        elif kind == "dropped":
            i = draw(st.integers(0, len(doc) - 1))
            doc = doc[:i] + doc[i + 1:]
        parts.append(draw(prose))
        parts.append(doc)
    parts.append(draw(prose))
    return "".join(parts)


class TestMatchesScanner:
    @settings(max_examples=250, deadline=None)
    @given(replies())
    def test_replies(self, text):
        assert_matches_scanner(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='{}[]":,\\ ab1', max_size=40))
    @example('{"a": "}"}')
    @example('[{"a": "]"}, "[", "{"]')
    def test_bracket_soup(self, text):
        assert_matches_scanner(text)

    @pytest.mark.parametrize("text, expected", [
        ('```json\n{"label": "A"}\n```', {"label": "A"}),
        ('Sure! The answer is {"label": "B"}. Hope that helps.', {"label": "B"}),
        ('{"a": "a } inside"}', {"a": "a } inside"}),
        ('{"a": "say \\"hi\\" {"} tail', {"a": 'say "hi" {'}),
        ('{"a": "back\\\\"} x', {"a": "back\\"}),
        ('[1, 2] then {"a": 1}', [1, 2]),
        ('{"a": 1} then [1, 2]', {"a": 1}),
        ('{"a": [1, 2} [3]', [3]),
        ('{bad} {"ok": true}', {"ok": True}),
        ('{"a": 1', None),
        ('"just a string"', None),
        ('no json here', None),
        ('', None),
        ('结果：{"名称": "张三"}', {"名称": "张三"}),
        ('{"a": {"b": [1, {"c": null}]}}', {"a": {"b": [1, {"c": None}]}}),
        ('[{"PER": {"Bob": [[0, 3]]}}', {"PER": {"Bob": [[0, 3]]}}),
    ])
    def test_fixed_cases(self, text, expected):
        assert same(scanner_extract_first_json(text), expected)
        assert same(extract_first_json(text), expected)


class TestDeepNesting:
    # the expected values are the scanner's, which takes about a second on each
    @pytest.mark.parametrize("text, expected", [
        ("{" * 4000, None),
        ("[" * 4000, None),
        ("x" + "[" * 2000 + ' {"a": 1}', {"a": 1}),
        ("[" * 4000 + "]", []),
    ], ids=["braces", "brackets", "brackets-then-object", "brackets-one-closer"])
    def test_unclosed(self, text, expected):
        assert same(extract_first_json(text), expected)

    def test_few_decodes_overflow(self, monkeypatch):
        import promptopt.jsontools as jsontools

        class Counting(json.JSONDecoder):
            overflows = 0

            def raw_decode(self, s, idx=0):
                try:
                    return super().raw_decode(s, idx)
                except RecursionError:
                    Counting.overflows += 1
                    raise

        monkeypatch.setattr(jsontools, "_DECODER", Counting())
        assert extract_first_json("[" * 4000 + "]") == []
        # a binary search over the run, not one overflow per opener
        assert 0 < Counting.overflows < 40

    def test_too_deep_to_decode_gives_a_later_value(self):
        text = "[" * 3000 + "]" * 3000
        with pytest.raises(RecursionError):
            scanner_extract_first_json(text)
        value = extract_first_json(text)
        depth = 0
        while isinstance(value, list):
            value = value[0] if value else None
            depth += 1
        assert 0 < depth < 3000
