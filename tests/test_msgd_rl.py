import json

import numpy as np
import pytest

from promptopt.errors import (
    CorruptFile,
    EmptySample,
    InvalidHyperparameter,
    VersionMismatch,
)
from promptopt.matrix import (
    GradientObservation,
    SelectionPair,
    TransitionMatrix,
    init_uniform,
    selection_distribution,
)
from promptopt.msgd_rl import (
    ExperienceStore,
    apply_sarsa_updates,
    load_experience,
    mean_reward,
    provisional_next_q,
    read_experience,
    rl_epoch,
    sarsa_update,
    save_experience,
)

SECTIONS = ("Address", "Book", "Name", "Company")
OPERATORS = ("sort", "refine", "reflect", "cot")

# non-uniform prior learned by an earlier run
PRIOR_Q = np.array([
    [0.0647, 0.0625, 0.0625, 0.0625],
    [0.0605, 0.0605, 0.0820, 0.0625],
    [0.0610, 0.0625, 0.0625, 0.0440],
    [0.0625, 0.0550, 0.0625, 0.0625],
])

# the worked five-pair epoch: (section, operator, prev score, gradient)
EPOCH_OBS = [
    ("Name", "reflect", 0.6501, 0.0101),
    ("Book", "sort", 0.6052, -0.0012),
    ("Company", "refine", 0.5565, 0.0947),
    ("Book", "cot", 0.5254, -0.0143),
    ("Name", "cot", 0.6400, -0.0020),
]


def prior_matrix():
    return TransitionMatrix(SECTIONS, OPERATORS, PRIOR_Q.copy())


def epoch_observations():
    m = prior_matrix()
    out = []
    for section, op, prev, grad in EPOCH_OBS:
        out.append(GradientObservation(
            SelectionPair(section, op), prev, prev + grad))
    return out


class TestProvisionalNextQ:
    def test_company_refine_row(self):
        assert provisional_next_q(0.0550, 0.0947) == pytest.approx(0.1497)

    def test_name_reflect_row(self):
        assert provisional_next_q(0.0625, 0.0101) == pytest.approx(0.0726)

    def test_zero_gradient(self):
        assert provisional_next_q(0.123, 0.0) == 0.123


class TestMeanReward:
    def test_epoch_mean(self):
        grads = [0.0101, -0.0012, 0.0947, -0.0143, -0.0020]
        assert mean_reward(grads) == pytest.approx(0.01746, abs=1e-5)

    def test_single_zero(self):
        assert mean_reward([0.0]) == 0.0

    def test_symmetry(self):
        assert mean_reward([0.2, -0.2]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            mean_reward([])


class TestSarsaUpdate:
    def test_company_refine_final(self):
        assert sarsa_update(0.0550, 0.0174, 0.1497, 0.5, 0.5) == pytest.approx(0.0736, abs=1e-3)

    def test_name_reflect_final(self):
        assert sarsa_update(0.0625, 0.0174, 0.0726, 0.5, 0.5) == pytest.approx(0.0581, abs=1e-3)

    def test_no_learning_limit(self):
        q = 0.123
        assert sarsa_update(q, 0.9, 0.9, alpha=1e-12, gamma=0.5) == pytest.approx(q, abs=1e-11)

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidHyperparameter):
            sarsa_update(0.1, 0.0, 0.1, alpha=0.0)
        with pytest.raises(InvalidHyperparameter):
            sarsa_update(0.1, 0.0, 0.1, gamma=1.5)

    def test_fixed_point(self):
        # reward = (1 - gamma) q with q_next = q leaves q unchanged
        q, gamma = 0.21, 0.5
        assert sarsa_update(q, (1 - gamma) * q, q, 0.5, gamma) == pytest.approx(q)

    def test_monotone_improvement(self):
        q, gamma = 0.2, 0.5
        r = (1 - gamma) * q + 0.01
        assert sarsa_update(q, r, q, 0.5, gamma) > q


class TestApplySarsaUpdates:
    def test_full_worked_epoch(self):
        m = apply_sarsa_updates(prior_matrix(), epoch_observations(), 0.5, 0.5)
        expected = {
            ("Name", "reflect"): 0.0581,
            ("Book", "sort"): 0.0537,
            ("Company", "refine"): 0.0736,
            ("Book", "cot"): 0.0520,
            ("Name", "cot"): 0.0412,
        }
        for (section, op), want in expected.items():
            assert m.value(section, op) == pytest.approx(want, abs=1e-3)

    def test_untouched_cells_bit_identical(self):
        before = prior_matrix()
        after = apply_sarsa_updates(before, epoch_observations(), 0.5, 0.5)
        touched = {(s, o) for s, o, _, _ in EPOCH_OBS}
        for i, section in enumerate(SECTIONS):
            for j, op in enumerate(OPERATORS):
                if (section, op) not in touched:
                    assert after.q[i, j] == before.q[i, j]

    def test_identical_scores_move_to_discounted_self_target(self):
        m = init_uniform(SECTIONS, OPERATORS)
        obs = [GradientObservation(SelectionPair("Book", "sort"), 0.5, 0.5)]
        out = apply_sarsa_updates(m, obs, 0.5, 0.5)
        q = 0.0625
        # r = 0, q_next = q: q <- q + alpha (gamma - 1) q
        assert out.value("Book", "sort") == pytest.approx(q + 0.5 * (0.5 - 1) * q)
        assert np.sum(out.q != m.q) == 1


class TestRlEpoch:
    def test_single_pair_reward_is_own_gradient(self):
        q = np.zeros((1, 2))
        q[0, 0] = 1.0
        m = TransitionMatrix(("s",), ("a", "b"), q)
        out, obs, cands = rl_epoch(
            m, base_score=0.5, pairs_per_epoch=1, rng=np.random.default_rng(0),
            apply_pair=lambda pair: "cand",
            evaluate_candidate=lambda cand: 0.6,
        )
        assert len(obs) == 1
        assert obs[0].gradient == pytest.approx(0.1)
        assert cands == ["cand"]
        # reward equals the single gradient
        expected = sarsa_update(1.0, 0.1, provisional_next_q(1.0, 0.1), 0.5, 0.5)
        assert out.q[0, 0] == pytest.approx(expected)

    def test_noop_pair_scores_zero_gradient(self):
        m = init_uniform(("s",), ("a",))
        out, obs, cands = rl_epoch(
            m, base_score=0.4, pairs_per_epoch=1, rng=np.random.default_rng(0),
            apply_pair=lambda pair: None,
            evaluate_candidate=lambda cand: 1.0,
        )
        assert obs[0].gradient == 0.0
        assert cands == []

    def test_invalid_pairs_per_epoch(self):
        m = init_uniform(("s",), ("a",))
        with pytest.raises(InvalidHyperparameter):
            rl_epoch(m, 0.5, 0, np.random.default_rng(0), lambda p: None, lambda c: 0)


class TestExperienceStore:
    def test_round_trip_lossless(self, tmp_path):
        store = ExperienceStore.new(prior_matrix(), "NER", epochs_trained=7)
        path = tmp_path / "exp.json"
        save_experience(store, path)
        again = read_experience(path)
        assert np.array_equal(again.matrix.q, PRIOR_Q)
        assert again.task_kind == "NER"
        assert again.epochs_trained == 7
        # saving the reloaded store reproduces the file byte for byte
        path2 = tmp_path / "exp2.json"
        save_experience(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_identical_vocab(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, SECTIONS, OPERATORS)
        assert np.array_equal(m.q, PRIOR_Q)

    def test_new_operator_column_is_row_mean(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, SECTIONS, OPERATORS + ("merge",))
        j = m.operators.index("merge")
        for i in range(len(SECTIONS)):
            assert m.q[i, j] == pytest.approx(PRIOR_Q[i].mean())
        # matched cells copied exactly
        assert np.array_equal(m.q[:, :4], PRIOR_Q)

    def test_new_section_row_is_column_mean(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, SECTIONS + ("Scene",), OPERATORS)
        i = m.sections.index("Scene")
        for j in range(len(OPERATORS)):
            assert m.q[i, j] == pytest.approx(PRIOR_Q[:, j].mean())

    def test_both_new_gets_global_mean(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, SECTIONS + ("Scene",), OPERATORS + ("merge",))
        i = m.sections.index("Scene")
        j = m.operators.index("merge")
        assert m.q[i, j] == pytest.approx(PRIOR_Q.mean())

    def test_no_overlap_uniform(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, ("x", "y"), ("p", "q"))
        assert np.allclose(m.q, 0.25)

    def test_result_renormalizable(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        m = load_experience(path, SECTIONS + ("Scene",), OPERATORS + ("merge",))
        p = selection_distribution(m)
        assert p.sum() == pytest.approx(1.0)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            read_experience(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        valid = path.read_text()
        # Python's json reads NaN and Infinity, so the matrix must reject them
        for text in ("{not json", valid.replace("0.0647", "NaN", 1),
                     valid.replace("0.0647", "Infinity", 1)):
            path.write_text(text)
            with pytest.raises(CorruptFile):
                read_experience(path)

    def test_cross_task_load_warns(self, tmp_path, caplog):
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(prior_matrix(), "NER"), path)
        import logging

        with caplog.at_level(logging.WARNING):
            load_experience(path, SECTIONS, OPERATORS, task_kind="CLS")
        assert any("task-specific" in r.message for r in caplog.records)
