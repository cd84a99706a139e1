import pytest

from promptopt.evaluation import ExampleRecord
from promptopt.prompt_model import MetaPrompt, Section


@pytest.fixture
def ner_prompt():
    sections = (
        Section(id="task_description", name="task_description",
                body="Extract entities from the text.", position=0),
        Section(id="label:address", name="label:address",
                body="address: a location mention", position=1),
        Section(id="label:book", name="label:book",
                body="book: a book title", position=2),
        Section(id="few_shot", name="few_shot", body="", position=3),
        Section(id="output_format", name="output_format",
                body='Input:\n{{Input}}\nReturn JSON: {"<label>": {"<mention>": [[s, e]]}}',
                editable=False, position=4),
    )
    return MetaPrompt(sections=sections)


@pytest.fixture
def cls_examples():
    return [
        ExampleRecord(str(i), "CLS", "text %d" % i, "A" if i % 2 == 0 else "B")
        for i in range(10)
    ]
