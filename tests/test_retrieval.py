import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_kb, unit_rows

from proxyot.errors import DataError, UsageError
from proxyot.learner import ProxyWeights
from proxyot.retrieval import (
    ClassRecord,
    KnowledgeBase,
    RetrievalResult,
    build_text_proxies,
    description_proxies,
    mean_image_feature,
    name_proxies,
    retrieve,
    score_descriptions,
    top_k,
)


class TestKnowledgeBaseValidation:
    def test_duplicate_class_names_rejected(self):
        rng = np.random.default_rng(42)
        rec = ClassRecord("same", ("a",), unit_rows(rng, (1, 4)))
        rec2 = ClassRecord("same", ("b",), unit_rows(rng, (1, 4)))
        with pytest.raises(DataError, match="same"):
            KnowledgeBase(classes=(rec, rec2), dim=4)

    def test_count_mismatch_reports_both_counts(self):
        rng = np.random.default_rng(42)
        with pytest.raises(DataError, match="2 descriptions.*3 embedding rows"):
            ClassRecord("c", ("a", "b"), unit_rows(rng, (3, 4)))

    def test_non_unit_embedding_rejected(self):
        bad = np.array([[0.5, 0.5]])
        with pytest.raises(DataError, match="norm"):
            ClassRecord("c", ("a",), bad)

    def test_empty_description_list_rejected(self):
        with pytest.raises(DataError):
            ClassRecord("c", (), np.zeros((0, 4)))


class TestMeanImageFeature:
    def test_single_image_is_identity(self):
        rng = np.random.default_rng(42)
        img = unit_rows(rng, (1, 6))
        np.testing.assert_array_equal(mean_image_feature(img), img[0])

    def test_axis_rows(self):
        np.testing.assert_allclose(
            mean_image_feature([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5], atol=1e-15
        )

    def test_antipodal_rows_give_zero_vector(self):
        feat = mean_image_feature([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(feat, [0.0, 0.0])
        kb = make_kb(np.random.default_rng(0), dim=2, n_descriptions=2)
        with pytest.raises(DataError, match="zero"):
            score_descriptions(feat, kb, 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            mean_image_feature(np.zeros((0, 4)))


class TestScoreDescriptions:
    def test_aligned_description_scores_one(self):
        rng = np.random.default_rng(42)
        direction = unit_rows(rng, (1, 5))[0]
        kb = KnowledgeBase(
            classes=(ClassRecord("c", ("a",), direction[None, :]),), dim=5
        )
        scores = score_descriptions(3.7 * direction, kb, 0)
        np.testing.assert_allclose(scores, [1.0], atol=1e-12)

    def test_orthogonal_description_scores_zero(self):
        kb = KnowledgeBase(
            classes=(ClassRecord("c", ("a",), np.array([[0.0, 1.0]])),), dim=2
        )
        scores = score_descriptions(np.array([2.0, 0.0]), kb, 0)
        np.testing.assert_allclose(scores, [0.0], atol=1e-15)

    def test_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(42)
        kb = make_kb(rng, dim=6)
        feat = rng.standard_normal(6)
        np.testing.assert_allclose(
            score_descriptions(feat, kb, 1),
            score_descriptions(250.0 * feat, kb, 1),
            atol=1e-12,
        )

    def test_bad_class_index_rejected(self):
        kb = make_kb(np.random.default_rng(42))
        with pytest.raises(UsageError):
            score_descriptions(np.ones(8), kb, 99)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 12),
        n_descriptions=st.integers(1, 6),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_matches_plain_python_cosine(self, seed, dim, n_descriptions, scale):
        rng = np.random.default_rng(seed)
        kb = make_kb(rng, n_classes=2, n_descriptions=n_descriptions, dim=dim)
        feat = scale * rng.standard_normal(dim)
        for j, rec in enumerate(kb.classes):
            scores = score_descriptions(feat, kb, j)
            want = [_cosine_reference(feat.tolist(), row) for row in rec.embeddings.tolist()]
            np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
            assert np.all((-1.0 <= scores) & (scores <= 1.0))


def _cosine_reference(a, b):
    """Cosine of two lists in plain Python, every sum correctly rounded."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    return dot / (norm_a * norm_b)


class TestTopK:
    def test_full_selection_is_score_sorted_permutation(self):
        scores = np.array([0.3, -0.1, 0.9, 0.3])
        idx = top_k(scores, 4)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]
        assert np.all(np.diff(scores[idx]) <= 0)

    def test_picks_two_best(self):
        np.testing.assert_array_equal(top_k([0.1, 0.9, 0.5], 2), [1, 2])

    def test_ties_break_to_lower_index(self):
        np.testing.assert_array_equal(top_k([0.5, 0.5, 0.5], 2), [0, 1])

    def test_k_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            top_k([0.1, 0.2], 3)
        with pytest.raises(UsageError):
            top_k([0.1, 0.2], 0)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            scores = rng.uniform(-1, 1, size=rng.integers(1, 12))
            k = int(rng.integers(1, scores.size + 1))
            got = scores[top_k(scores, k)]
            expected = np.sort(scores)[::-1][:k]
            np.testing.assert_array_equal(got, expected)


class TestProxies:
    def test_single_selection_passes_through(self):
        rng = np.random.default_rng(42)
        kb = make_kb(rng, n_classes=2, n_descriptions=3, dim=5)
        selection = RetrievalResult(
            selected=(np.array([1]), np.array([2])),
            scores=(np.array([0.5]), np.array([0.4])),
            k=1,
        )
        proxies = build_text_proxies(kb, selection)
        np.testing.assert_allclose(proxies.w[0], kb.classes[0].embeddings[1], atol=1e-12)
        assert isinstance(proxies, ProxyWeights)

    @pytest.mark.parametrize(
        "index", [np.array([-1]), np.array([3]), np.array([1.0]), np.array([True])]
    )
    def test_selection_outside_the_class_names_it(self, index):
        # -1 would average the last description and a float or boolean would not
        # index positions; 3 is one past the end of a 3-description class
        kb = make_kb(np.random.default_rng(42), n_classes=2, n_descriptions=3, dim=5)
        selection = RetrievalResult(
            selected=(np.array([0]), index), scores=(np.array([0.5]), np.array([0.4])), k=1
        )
        with pytest.raises(UsageError, match=r"^class 'class_01': selected indices .* "
                           r"are not integers in \[0, 3\)$"):
            build_text_proxies(kb, selection)

    def test_two_axis_rows_average_to_diagonal(self):
        kb = KnowledgeBase(
            classes=(
                ClassRecord("c", ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]])),
                ClassRecord("d", ("e", "f"), np.array([[1.0, 0.0], [0.0, -1.0]])),
            ),
            dim=2,
        )
        selection = RetrievalResult(
            selected=(np.array([0, 1]), np.array([0, 1])),
            scores=(np.array([0.9, 0.8]), np.array([0.7, 0.1])),
            k=2,
        )
        proxies = build_text_proxies(kb, selection)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(proxies.w[0], [s, s], atol=1e-12)

    def test_full_k_equals_description_mean(self):
        """Retrieval with k = n degenerates to the all-descriptions baseline."""
        rng = np.random.default_rng(42)
        images = unit_rows(rng, (20, 8))
        kb = make_kb(rng, n_classes=4, n_descriptions=6, dim=8)
        all_k = build_text_proxies(kb, retrieve(images, kb, 6))
        baseline = description_proxies(kb)
        np.testing.assert_allclose(all_k.w, baseline.w, atol=1e-12)
        assert isinstance(baseline, ProxyWeights)

    def test_name_proxies_are_passthrough(self):
        rng = np.random.default_rng(42)
        names = unit_rows(rng, (3, 7))
        proxies = name_proxies(names)
        np.testing.assert_array_equal(proxies.w, names)
        assert isinstance(proxies, ProxyWeights)
        np.testing.assert_allclose(np.linalg.norm(proxies.w, axis=1), 1.0, atol=1e-9)

    def test_name_proxies_need_two_classes(self):
        with pytest.raises(UsageError):
            name_proxies(np.array([[1.0, 0.0]]))

    def test_name_proxies_reject_non_unit_rows(self):
        with pytest.raises(UsageError, match="proxy row 1 has norm 2.0, expected 1"):
            name_proxies(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8, float("nan")])
    def test_name_embedding_matrix_rejects_non_unit_rows(self, scale):
        kb = make_kb(np.random.default_rng(42), with_names=True)
        records = list(kb.classes)
        records[1] = ClassRecord(
            records[1].name, records[1].descriptions, records[1].embeddings,
            records[1].name_embedding * scale,
        )
        kb = KnowledgeBase(tuple(records), kb.dim)
        with pytest.raises(DataError, match="class 'class_01': name embedding has norm"):
            kb.name_embedding_matrix()


class TestRetrieve:
    def test_oversized_k_names_class_and_count(self):
        rng = np.random.default_rng(42)
        images = unit_rows(rng, (5, 8))
        kb = make_kb(rng, n_descriptions=4, dim=8)
        with pytest.raises(UsageError, match="k=9.*4 descriptions.*class_00"):
            retrieve(images, kb, 9)

    def test_dim_mismatch_is_usage_error(self):
        kb = make_kb(np.random.default_rng(42), dim=8)
        with pytest.raises(UsageError, match="dim 5 but the knowledge base has dim 8"):
            retrieve(np.eye(5)[:3], kb, 2)

    def test_selection_invariant_to_image_rescaling(self):
        rng = np.random.default_rng(42)
        images = unit_rows(rng, (15, 8))
        kb = make_kb(rng, n_classes=3, n_descriptions=5, dim=8)
        a = retrieve(images, kb, 2)
        b = retrieve(7.5 * images, kb, 2)
        for sa, sb in zip(a.selected, b.selected):
            np.testing.assert_array_equal(sa, sb)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(42)
        images = unit_rows(rng, (10, 8))
        kb = make_kb(rng, n_classes=3, n_descriptions=5, dim=8)
        result = retrieve(images, kb, 5)
        for scores in result.scores:
            assert np.all(np.diff(scores) <= 0)
