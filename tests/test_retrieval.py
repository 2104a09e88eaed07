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
    retrieve,
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


def _all_scores(images, kb):
    """Every class's scores, all descriptions kept (k = the count each class has)."""
    result = retrieve(images, kb, kb.classes[0].n_descriptions)
    return result.selected, result.scores


class TestMeanImageFeature:
    def test_single_image_is_identity(self):
        rng = np.random.default_rng(42)
        img = unit_rows(rng, (1, 6))
        others = unit_rows(rng, (2, 6))
        kb = KnowledgeBase(
            classes=(ClassRecord("c", ("a", "b", "c"), np.vstack([others[0], img, others[1]])),),
            dim=6,
        )
        (selected,), (scores,) = _all_scores(img, kb)
        assert selected[0] == 1
        np.testing.assert_allclose(scores[0], 1.0, atol=1e-12)

    def test_axis_rows(self):
        s = 1.0 / np.sqrt(2.0)
        kb = KnowledgeBase(
            classes=(ClassRecord(
                "c", ("x", "y", "diagonal", "anti"),
                np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]]),
            ),),
            dim=2,
        )
        (selected,), (scores,) = _all_scores([[1.0, 0.0], [0.0, 1.0]], kb)
        np.testing.assert_array_equal(selected, [2, 0, 1, 3])
        np.testing.assert_allclose(scores, [1.0, s, s, 0.0], atol=1e-15)

    def test_antipodal_rows_give_zero_vector(self):
        kb = make_kb(np.random.default_rng(0), dim=2, n_descriptions=2)
        with pytest.raises(DataError, match="zero"):
            retrieve([[1.0, 0.0], [-1.0, 0.0]], kb, 2)

    def test_empty_dataset_rejected(self):
        kb = make_kb(np.random.default_rng(0), dim=4)
        with pytest.raises(UsageError):
            retrieve(np.zeros((0, 4)), kb, 1)

    @pytest.mark.filterwarnings("error")
    def test_finite_images_whose_mean_overflows_are_a_data_error(self):
        kb = make_kb(np.random.default_rng(0), dim=3)
        with pytest.raises(DataError, match="mean image feature overflows"):
            retrieve(np.full((2, 3), 1e308), kb, 4)  # 1e308 + 1e308 is past the float range

    @pytest.mark.filterwarnings("error")
    def test_mean_whose_norm_overflows_scores_as_its_direction(self):
        kb = make_kb(np.random.default_rng(0), dim=3)
        huge, plain = _all_scores(np.full((2, 3), 1e200), kb), _all_scores(np.ones((2, 3)), kb)
        for a, b in zip(huge[0] + huge[1], plain[0] + plain[1]):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(plain[0][0], np.arange(4))  # not the index-order fallback


class TestScoreDescriptions:
    def test_aligned_description_scores_one(self):
        rng = np.random.default_rng(42)
        direction = unit_rows(rng, (1, 5))[0]
        kb = KnowledgeBase(
            classes=(ClassRecord("c", ("a",), direction[None, :]),), dim=5
        )
        _, (scores,) = _all_scores(3.7 * direction[None, :], kb)
        np.testing.assert_allclose(scores, [1.0], atol=1e-12)

    def test_orthogonal_description_scores_zero(self):
        kb = KnowledgeBase(
            classes=(ClassRecord("c", ("a",), np.array([[0.0, 1.0]])),), dim=2
        )
        _, (scores,) = _all_scores([[2.0, 0.0]], kb)
        np.testing.assert_allclose(scores, [0.0], atol=1e-15)

    def test_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(42)
        kb = make_kb(rng, dim=6)
        images = rng.standard_normal((5, 6))
        for a, b in zip(_all_scores(images, kb)[1], _all_scores(250.0 * images, kb)[1]):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_images=st.integers(1, 3),
        dim=st.integers(1, 12),
        n_descriptions=st.integers(1, 6),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_matches_plain_python_cosine(self, seed, n_images, dim, n_descriptions, scale):
        rng = np.random.default_rng(seed)
        kb = make_kb(rng, n_classes=2, n_descriptions=n_descriptions, dim=dim)
        images = scale * rng.standard_normal((n_images, dim))
        feat = [math.fsum(column) / n_images for column in images.T.tolist()]
        for rec, selected, scores in zip(kb.classes, *_all_scores(images, kb)):
            want = [_cosine_reference(feat, row) for row in rec.embeddings.tolist()]
            np.testing.assert_allclose(scores, np.array(want)[selected], rtol=0, atol=1e-12)
            assert np.all(np.diff(scores) <= 0)
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
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [0, -1])
    def test_selection_size_below_one_is_usage_error(self, k):
        with pytest.raises(UsageError, match=f"^k must be >= 1, got {k}$"):
            RetrievalResult(selected=(np.array([], dtype=np.int64),) * 2,
                            scores=(np.array([]),) * 2, k=k)

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
        """The clip baseline's proxies are the knowledge base's name rows, unchanged."""
        kb = make_kb(np.random.default_rng(42), n_classes=3, dim=7, with_names=True)
        names = np.stack([rec.name_embedding for rec in kb.classes])
        proxies = ProxyWeights(kb.name_embedding_matrix())
        np.testing.assert_array_equal(proxies.w, names)
        np.testing.assert_allclose(np.linalg.norm(proxies.w, axis=1), 1.0, atol=1e-9)

    def test_name_proxies_reject_non_unit_rows(self):
        with pytest.raises(UsageError, match="proxy row 1 has norm 2.0, expected 1"):
            ProxyWeights(np.array([[1.0, 0.0], [0.0, 2.0]]))

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
