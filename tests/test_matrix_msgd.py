import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptopt.errors import (
    CorruptFile,
    CountTooLarge,
    EmptyAxis,
    InvalidAlpha,
    ZeroBaseline,
    ZeroMass,
)
from promptopt.matrix import (
    SelectionPair,
    TransitionMatrix,
    init_uniform,
    load_matrix,
    save_matrix,
    select_pairs,
    selection_distribution,
)
from promptopt.msgd import msgd_update, norm_delta

SECTIONS = ("Address", "Book", "Name", "Company")
OPERATORS = ("rewrite", "refine", "reflect", "cot")


@pytest.fixture
def uniform():
    return init_uniform(SECTIONS, OPERATORS)


class TestInitUniform:
    def test_4x4(self, uniform):
        assert np.allclose(uniform.q, 0.0625)

    def test_1x1(self):
        m = init_uniform(["s"], ["o"])
        assert m.q[0][0] == 1.0

    def test_2x5(self):
        m = init_uniform(["a", "b"], list("vwxyz"))
        assert np.allclose(m.q, 0.1)
        assert np.sum(m.q) == pytest.approx(1.0)

    def test_empty_axis(self):
        with pytest.raises(EmptyAxis):
            init_uniform([], OPERATORS)


class TestSelectionDistribution:
    def test_uniform_preserved(self, uniform):
        p = selection_distribution(uniform)
        assert np.allclose(p, 0.0625)

    def test_point_mass(self):
        q = np.zeros((2, 2))
        q[1, 0] = 0.3
        m = TransitionMatrix(("a", "b"), ("x", "y"), q)
        p = selection_distribution(m)
        assert p[1][0] == 1.0

    def test_zero_mass(self):
        m = TransitionMatrix(("a",), ("x",), np.zeros((1, 1)))
        with pytest.raises(ZeroMass):
            selection_distribution(m)

    def test_sums_to_one_after_random_updates(self, uniform):
        rng = np.random.default_rng(0)
        m = uniform
        for _ in range(200):
            i, j = rng.integers(0, 4, 2)
            pair = SelectionPair(SECTIONS[i], OPERATORS[j])
            m = msgd_update(m, pair, float(rng.uniform(-0.5, 0.5)))
            p = np.array(selection_distribution(m))
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all()


class TestSelectPairs:
    def test_point_mass_forced(self):
        q = np.zeros((2, 2))
        q[0, 1] = 1.0
        m = TransitionMatrix(("a", "b"), ("x", "y"), q)
        pairs = select_pairs(m, 1, np.random.default_rng(0))
        assert pairs[0].section == "a" and pairs[0].operator == "y"

    def test_exhaustion(self, uniform):
        pairs = select_pairs(uniform, 16, np.random.default_rng(0))
        assert len({(p.section, p.operator) for p in pairs}) == 16

    def test_count_too_large(self, uniform):
        with pytest.raises(CountTooLarge):
            select_pairs(uniform, 17, np.random.default_rng(0))

    def test_eligible_mask(self, uniform):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, :] = True
        pairs = select_pairs(uniform, 4, np.random.default_rng(1), eligible=mask)
        assert all(p.section == "Name" for p in pairs)

    def test_deterministic_given_seed(self, uniform):
        a = select_pairs(uniform, 3, np.random.default_rng(42))
        b = select_pairs(uniform, 3, np.random.default_rng(42))
        assert [(p.section, p.operator) for p in a] == [(p.section, p.operator) for p in b]

    def test_monte_carlo_frequencies(self, uniform):
        counts = np.zeros((4, 4))
        for trial in range(10_000):
            rng = np.random.default_rng(trial)
            for p in select_pairs(uniform, 2, rng):
                i, j = uniform.index(p.section, p.operator)
                counts[i, j] += 1
        freqs = counts / 20_000
        assert np.all(np.abs(freqs - 0.0625) < 0.01)


class TestNormDelta:
    def test_paper_positive(self):
        assert norm_delta(0.64513, 0.66812) == pytest.approx(0.03564, abs=1e-5)

    def test_paper_negative(self):
        assert norm_delta(0.64513, 0.62440) == pytest.approx(-0.03213, abs=1e-5)

    def test_no_change(self):
        assert norm_delta(0.5, 0.5) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            norm_delta(0.0, 0.5)


class TestMsgdUpdate:
    def test_paper_up(self, uniform):
        pair = SelectionPair("Address", "rewrite")
        m = msgd_update(uniform, pair, 0.03564, alpha=1.0)
        assert m.value("Address", "rewrite") == pytest.approx(0.0647, abs=5e-4)

    def test_paper_down(self, uniform):
        pair = SelectionPair("Book", "refine")
        m = msgd_update(uniform, pair, -0.03213, alpha=1.0)
        assert m.value("Book", "refine") == pytest.approx(0.0605, abs=5e-4)

    def test_zero_norm_fixed_point(self, uniform):
        pair = SelectionPair("Name", "cot")
        m = msgd_update(uniform, pair, 0.0, alpha=3.0)
        assert m.value("Name", "cot") == 0.0625

    def test_only_one_cell_changes(self, uniform):
        pair = SelectionPair("Address", "rewrite")
        m = msgd_update(uniform, pair, 0.2)
        diff = np.array(m.q) != np.array(uniform.q)
        assert diff.sum() == 1 and diff[0, 0]
        assert np.array(m.q)[~diff].sum() == np.array(uniform.q)[~diff].sum()

    def test_invalid_alpha(self, uniform):
        with pytest.raises(InvalidAlpha):
            msgd_update(uniform, SelectionPair("Address", "rewrite"), 0.1, alpha=0)

    def test_q_floor(self, uniform):
        pair = SelectionPair("Address", "rewrite")
        m = msgd_update(uniform, pair, -1.5, alpha=1.0)
        assert m.value("Address", "rewrite") == 1e-4

    def test_additive_mode(self, uniform):
        pair = SelectionPair("Address", "rewrite")
        m = msgd_update(uniform, pair, 0.01, alpha=2.0, mode="additive")
        assert m.value("Address", "rewrite") == pytest.approx(0.0825)

    @given(st.lists(st.floats(min_value=0.001, max_value=0.5), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_positive_norms_monotone(self, norms):
        m = init_uniform(SECTIONS, OPERATORS)
        pair = SelectionPair("Book", "cot")
        prev = m.value("Book", "cot")
        for norm in norms:
            m = msgd_update(m, pair, norm)
            cur = m.value("Book", "cot")
            assert cur > prev
            prev = cur

    def test_argmax_invariant_under_rescale(self, uniform):
        m = msgd_update(uniform, SelectionPair("Name", "reflect"), 0.4)
        scaled = TransitionMatrix(m.sections, m.operators, np.array(m.q) * 7.3)
        assert np.argmax(m.q) == np.argmax(scaled.q)


class TestTableChecks:
    @pytest.mark.parametrize("q, needle", [
        ([[0.1, 0.2], [0.3]], "row 1 has 1 cells for 2 operators"),
        ([[0.1, 0.2]], "1 rows for 2 sections"),
        (0.5, "table of rows"),
        ([[0.1, "0.2"], [0.3, 0.4]], "numbers, not str"),
        ([[0.1, None], [0.3, 0.4]], "numbers, not NoneType"),
        ([[0.1, True], [0.3, 0.4]], "numbers, not bool"),
        ([[0.1, [0.2]], [0.3, 0.4]], "numbers, not list"),
        ([[0.1, float("nan")], [0.3, 0.4]], "finite"),
        ([[0.1, float("-inf")], [0.3, 0.4]], "finite"),
        ([[0.1, 10 ** 400], [0.3, 0.4]], "finite"),
        ([[0.1, -0.2], [0.3, 0.4]], "nonnegative"),
    ], ids=["ragged", "missing-row", "not-a-table", "text-cell", "null-cell", "bool-cell",
            "nested-cell", "nan", "inf", "huge-int", "negative"])
    def test_rejects_a_bad_table(self, q, needle):
        with pytest.raises(ValueError, match=needle):
            TransitionMatrix(("a", "b"), ("x", "y"), q)

    def test_cells_become_floats(self):
        m = TransitionMatrix(("a", "b"), ("x", "y"), np.array([[1, 2], [3, 0]]))
        assert m.q == [[1.0, 2.0], [3.0, 0.0]]
        assert {type(x) for row in m.q for x in row} == {float}

    def test_keeps_its_own_rows(self):
        q = [[0.1, 0.2], [0.3, 0.4]]
        m = TransitionMatrix(("a", "b"), ("x", "y"), q)
        q[0][0] = 5.0
        assert m.value("a", "x") == 0.1 and m.copy().q is not m.q

    def test_bad_table_on_disk_is_corrupt(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text('{"sections": ["a", "b"], "operators": ["x"], "q": [[0.1], []]}')
        with pytest.raises(CorruptFile, match="row 1 has 0 cells for 1 operators"):
            load_matrix(path)


class TestSnapshot:
    def test_round_trip(self, tmp_path, uniform):
        m = msgd_update(uniform, SelectionPair("Address", "rewrite"), 0.03564)
        path = tmp_path / "matrix.json"
        save_matrix(m, path)
        again = load_matrix(path)
        assert again.sections == m.sections
        assert again.operators == m.operators
        assert np.array_equal(again.q, m.q)
