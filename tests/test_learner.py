import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient, loss, softmax_rows, unit_rows

from proxyot import FixtureSpec, generate_fixture, learner, write_fixture
from proxyot.errors import DataError, NumericError, UsageError
from proxyot.learner import (
    LearnConfig,
    LearnTrace,
    ProxyWeights,
    classify,
    learn,
)
from proxyot.numerics import _BLOCK_ROWS, _lse, as_matrix, l2_normalize_rows
from proxyot.pipeline import RunSpec, load, run, text_stage, transport_stage
from proxyot.solvers import PseudoLabels

LN_E1_OVER_E = 0.31326168751822284  # ln((e+1)/e), 60-digit decimal arithmetic


def softmax_labels(w, images, tau):
    return PseudoLabels(softmax_rows(images @ w.T, tau))


def random_problem(seed, n=10, k=4, d=8):
    rng = np.random.default_rng(seed)
    images = unit_rows(rng, (n, d))
    w = ProxyWeights(unit_rows(rng, (k, d)))
    labels = PseudoLabels(rng.dirichlet(np.ones(k), size=n))
    return images, w, labels


def _cluster_problem(seed, k=3, d=16, per_class=40):
    """Three well-separated spherical clusters plus a random unit init."""
    rng = np.random.default_rng(seed)
    centers = np.linalg.qr(rng.standard_normal((d, k)))[0].T
    gold = np.repeat(np.arange(k), per_class)
    images = 6.0 * centers[gold] + rng.standard_normal((k * per_class, d))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    init = ProxyWeights(unit_rows(rng, (k, d)))
    return images, gold, init


class TestLoss:
    def test_zero_at_matching_labels(self):
        images, w, _ = random_problem(42)
        labels = softmax_labels(w.w, images, tau=0.5)
        assert loss(w, images, labels, tau=0.5) <= 1e-12

    def test_frozen_two_class_value(self):
        images = np.array([[1.0, 0.0]])
        w = ProxyWeights(np.array([[1.0, 0.0], [0.0, 1.0]]))
        labels = PseudoLabels(np.array([[1.0, 0.0]]))
        assert loss(w, images, labels, tau=1.0) == pytest.approx(
            LN_E1_OVER_E, rel=1e-14
        )

    def test_invariant_under_image_permutation(self):
        images, w, labels = random_problem(7)
        perm = np.random.default_rng(0).permutation(images.shape[0])
        a = loss(w, images, labels, tau=0.2)
        b = loss(w, images[perm], PseudoLabels(labels.p[perm]), tau=0.2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonnegative(self):
        for seed in range(5):
            images, w, labels = random_problem(seed)
            assert loss(w, images, labels, tau=0.3) >= 0.0

    def test_shape_mismatch_rejected(self):
        images, w, labels = random_problem(42)
        with pytest.raises(UsageError):
            loss(w, images[:, :4], labels, tau=0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        k=st.integers(2, 6),
        d=st.integers(1, 8),
        one_hot=st.booleans(),
        tau=st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    )
    def test_matches_plain_python_mean_kl(self, seed, n, k, d, one_hot, tau):
        images, labels, w, _ = _learn_instance(seed, n, k, d, one_hot)
        want = _mean_kl_reference(images.tolist(), labels.p.tolist(), w.w.tolist(), tau)
        assert loss(w, images, labels, tau) == pytest.approx(want, rel=1e-9)


def _mean_kl_reference(images, labels, w, tau):
    """Mean KL(p || softmax(x . w / tau)) over lists, with a ``math`` log-softmax."""
    kls = []
    for x, p in zip(images, labels):
        logits = [math.fsum(a * b for a, b in zip(x, row)) / tau for row in w]
        top = max(logits)
        log_z = top + math.log(math.fsum(math.exp(z - top) for z in logits))
        kls.append(
            math.fsum(pj * (math.log(pj) - (z - log_z)) for pj, z in zip(p, logits) if pj > 0)
        )
    return math.fsum(kls) / len(kls)


class TestGradient:
    def test_zero_at_stationary_point(self):
        images, w, _ = random_problem(42)
        labels = softmax_labels(w.w, images, tau=0.5)
        g = gradient(w, images, labels, tau=0.5)
        assert np.max(np.abs(g)) <= 1e-12

    def test_matches_central_finite_differences(self):
        """The central numerical check of the module: analytic vs numeric."""
        step = 1e-4
        for seed in (42, 43, 44):
            images, w, labels = random_problem(seed, n=10, k=4, d=8)
            tau = 0.1
            analytic = gradient(w, images, labels, tau)
            numeric = np.zeros_like(analytic)
            for a in range(w.w.shape[0]):
                for b in range(w.w.shape[1]):
                    plus = w.w.copy()
                    plus[a, b] += step
                    minus = w.w.copy()
                    minus[a, b] -= step
                    numeric[a, b] = (
                        _raw_loss(plus, images, labels, tau)
                        - _raw_loss(minus, images, labels, tau)
                    ) / (2 * step)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel <= 1e-4

    def test_scales_inversely_with_tau_for_fixed_distributions(self):
        # Orthogonal images make every logit zero, so the softmax stays uniform
        # for any tau and the 1/tau factor is the only tau dependence left.
        images = np.eye(6)[4:6]
        w = ProxyWeights(np.eye(6)[:3])
        labels = PseudoLabels(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        g1 = gradient(w, images, labels, tau=1.0)
        g2 = gradient(w, images, labels, tau=2.0)
        np.testing.assert_allclose(g1, 2.0 * g2, atol=1e-15)


def _raw_loss(w_matrix, images, labels, tau):
    """Loss evaluated without the unit-row guard, for finite-difference probes."""
    logits = images @ w_matrix.T / tau
    log_q = logits - _lse_rows(logits)
    support = labels.p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, labels.p * (np.log(labels.p) - log_q), 0.0)
    return float(terms.sum() / images.shape[0])


def _lse_rows(a):
    mx = a.max(axis=1, keepdims=True)
    return mx + np.log(np.exp(a - mx).sum(axis=1, keepdims=True))


class TestLearn:
    def test_fixed_point_converges_immediately(self):
        images, w, _ = random_problem(42)
        init = ProxyWeights(w.w)
        labels = softmax_labels(w.w, images, tau=0.01)
        weights, trace = learn(images, labels, init, LearnConfig())
        assert trace.stop_reason == "converged"
        assert trace.epochs_run == 1
        np.testing.assert_allclose(weights.w, init.w, atol=1e-9)

    def test_zero_learning_rate_is_identity(self):
        # Axis-aligned rows have exactly unit norm, so re-normalization is exact.
        images = unit_rows(np.random.default_rng(42), (6, 5))
        init = ProxyWeights(np.eye(5)[:3])
        labels = PseudoLabels(np.full((6, 3), 1.0 / 3.0))
        cfg = LearnConfig(learning_rate=0.0, momentum=0.0, max_epochs=25, loss_tolerance=0.0)
        weights, trace = learn(images, labels, init, cfg)
        assert trace.epochs_run == 25
        assert trace.stop_reason == "max_epochs"
        np.testing.assert_array_equal(weights.w, init.w)

    def test_separable_clusters_reach_perfect_training_accuracy(self):
        images, gold, init = _cluster_problem(seed=42)
        one_hot = np.eye(3)[gold]
        weights, _ = learn(images, PseudoLabels(one_hot), init, LearnConfig())
        assert np.mean(classify(images, weights) == gold) == 1.0

    def test_loss_monotone_on_cluster_fixture_for_50_epochs(self):
        """Monotone descent is promised for the cluster fixture at defaults,
        not for arbitrary label matrices."""
        images, gold, init = _cluster_problem(seed=42)
        labels = PseudoLabels(np.eye(3)[gold])
        _, trace = learn(images, labels, init, LearnConfig(loss_tolerance=0.0))
        assert trace.epochs_run >= 50
        diffs = np.diff(trace.losses[:51])
        assert np.all(diffs <= 1e-12)

    def test_losses_start_at_initial_value(self):
        images, w, labels = random_problem(3)
        init = ProxyWeights(w.w)
        before = loss(w, images, labels, tau=0.01)
        _, trace = learn(images, labels, init, LearnConfig(max_epochs=3, loss_tolerance=0.0))
        assert trace.losses[0] == pytest.approx(before, rel=1e-15)
        assert len(trace.losses) == trace.epochs_run + 1


def _check_logits(z, tau):
    largest = float(np.abs(z).max(initial=0.0))
    if not np.isfinite(largest / tau):
        raise NumericError(
            f"x @ w.T / tau_learn overflows (largest |x @ w.T| = {largest:.6g}, "
            f"tau_learn={tau:.6g}); rerun with a larger --tau-learn"
        )


def _descend(images, init, cfg, ref_loss, ref_gradient):
    """The momentum loop around separate loss and gradient functions of (w, x)."""
    settings = f"learning_rate={cfg.learning_rate}, tau_learn={cfg.tau_learn}"
    x = np.asarray(images, dtype=np.float64)
    w = init.w.copy()
    velocity = np.zeros_like(w)
    current = ref_loss(w, x)
    if not np.isfinite(current):
        raise NumericError(f"initial loss is {current!r} ({settings})")
    losses = [current]
    epochs_run = 0
    stop_reason = "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        g = ref_gradient(w, x)
        velocity = cfg.momentum * velocity - cfg.learning_rate * g
        try:
            w = l2_normalize_rows(w + velocity)
        except DataError as exc:
            raise NumericError(f"step diverged at epoch {epoch} ({settings}): {exc}") from None
        current = ref_loss(w, x)
        if not np.isfinite(current):
            raise NumericError(f"loss became {current!r} at epoch {epoch} ({settings})")
        losses.append(current)
        epochs_run = epoch
        if abs(losses[-2] - losses[-1]) < cfg.loss_tolerance:
            stop_reason = "converged"
            break
    return ProxyWeights(w), LearnTrace(losses, epochs_run, stop_reason)


def learn_reference(images, labels, init, cfg):
    """Reference learning loop: each epoch computes the gradient and then the
    loss separately, each with its own K x N logits pass and fresh arrays.

    Both passes follow the computed form of the objective: with Z = W X^T,
    the loss is (sum p log p - <P^T X, W> / tau + (P 1) . lse) / N, lse
    being the per-image log-sum-exp of Z / tau, and the gradient is
    (Q X - P^T X) / (N tau) with Q the per-image softmax. Kept frozen for
    :func:`learn`, which takes the loss and the next gradient from one
    evaluation in one reused buffer and must give the same weights and trace
    bit for bit.
    """
    tau, p = cfg.tau_learn, labels.p

    def shifted_exp(w, x):
        z = w @ x.T
        _check_logits(z, tau)
        top = z.max(axis=0)
        return np.exp((z - top) / tau), top

    def ref_loss(w, x):
        e, top = shifted_exp(w, x)
        lse = top / tau + np.log(e.sum(axis=0))
        with np.errstate(divide="ignore"):
            p_log_p = float(np.vdot(p, np.where(p > 0, np.log(p), 0.0)))
        return float((p_log_p - np.vdot(p.T @ x, w) / tau + p.sum(axis=1) @ lse) / len(x))

    def ref_gradient(w, x):
        e, _ = shifted_exp(w, x)
        return (e / e.sum(axis=0) @ x - p.T @ x) / (len(x) * tau)

    return _descend(images, init, cfg, ref_loss, ref_gradient)


def learn_log_softmax_reference(images, labels, init, cfg):
    """Cross-form oracle: the same loop on the N x K log-softmax form.

    The loss sums p (log p - log q) over the support of p and the gradient
    is (exp(log q) - P)^T X / (N tau), where log q = Z^T / tau - lse. It
    rounds differently from :func:`learn`, so it is compared within a
    tolerance, not bit for bit.
    """
    tau = cfg.tau_learn

    def log_q(w, x):
        logits = x @ w.T
        _check_logits(logits, tau)
        scaled = logits / tau
        return scaled - _lse(scaled, axis=1)[:, None]

    def ref_loss(w, x):
        support = labels.p > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(support, labels.p * (np.log(labels.p) - log_q(w, x)), 0.0)
        return float(terms.sum() / x.shape[0])

    def ref_gradient(w, x):
        return (np.exp(log_q(w, x)) - labels.p).T @ x / (x.shape[0] * tau)

    return _descend(images, init, cfg, ref_loss, ref_gradient)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericError as exc:
        return f"NumericError: {exc}"


def assert_same_learning(images, labels, init, cfg):
    got = _outcome(learn, images, labels, init, cfg)
    want = _outcome(learn_reference, images, labels, init, cfg)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (got_w, got_trace), (want_w, want_trace) = got, want
    assert np.array_equal(got_w.w, want_w.w)
    assert got_trace.losses == want_trace.losses
    assert got_trace.epochs_run == want_trace.epochs_run
    assert got_trace.stop_reason == want_trace.stop_reason


def _learn_instance(seed, n, k, d, one_hot, **cfg):
    rng = np.random.default_rng(seed)
    images = unit_rows(rng, (n, d))
    init = ProxyWeights(unit_rows(rng, (k, d)))
    if one_hot:
        labels = PseudoLabels(np.eye(k)[rng.integers(k, size=n)])
    else:
        labels = PseudoLabels(rng.dirichlet(np.ones(k), size=n))
    return images, labels, init, LearnConfig(**cfg)


def _tiny_row_instance():
    """Two samples on opposite sides of the first axis: the first step takes
    proxy row 1 from [1, 1e-200] to [0, 1e-200], whose plain norm underflows to 0."""
    return (
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        PseudoLabels(np.eye(2)),
        ProxyWeights(np.array([[1.0, 1e-200], [1.0, 1e-200]])),
        LearnConfig(momentum=0.0, max_epochs=3, loss_tolerance=0.0),
    )


@st.composite
def learn_instances(draw, small_steps_only=False):
    """Small problems over the loop's branches: one-hot and dense labels, a
    frozen step, heavy momentum, no stop before the cap, a stop at epoch 1
    and a denormal tau whose logits overflow.

    With ``small_steps_only`` the learning rate is at most tau_learn / 2.
    Larger steps make the descent chaotic on these problems: moving one
    entry of the init by one ulp moves the learned w of the log-softmax
    form by up to 8e-6 at tau 0.1 with learning rate 0.5, and by up to 2
    at tau 0.01 with 0.02, within 40 epochs. No two roundings of the
    objective can be held to a bound there.
    """
    tau = draw(st.sampled_from([0.01, 0.1, 1.0, 1e-310]))
    rates = [r for r in (0.0, 0.02, 0.5) if not small_steps_only or r <= tau / 2]
    return _learn_instance(
        draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(1, 60)),
        k=draw(st.integers(1, 6)),
        d=draw(st.integers(1, 8)),
        one_hot=draw(st.booleans()),
        tau_learn=tau,
        learning_rate=draw(st.sampled_from(rates)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        max_epochs=draw(st.integers(1, 40)),
        loss_tolerance=draw(st.sampled_from([0.0, 1e-7, 1e-3, 1e9])),
    )


class TestLearnMatchesReference:
    """One objective evaluation per epoch repeats the two-pass loop exactly."""

    @settings(max_examples=60, deadline=None)
    @given(learn_instances())
    def test_random_instances(self, instance):
        assert_same_learning(*instance)

    @pytest.mark.parametrize(
        "one_hot, cfg, epochs",
        [
            (True, {}, None),
            (False, {}, None),
            (False, {"learning_rate": 0.0, "loss_tolerance": 0.0, "max_epochs": 30}, 30),
            (True, {"momentum": 0.0, "learning_rate": 0.005, "loss_tolerance": 0.0,
                    "max_epochs": 30}, 30),
            (False, {"momentum": 0.9, "learning_rate": 0.001, "loss_tolerance": 0.0,
                     "max_epochs": 30}, 30),
            (True, {"momentum": 0.9}, None),
            (True, {"loss_tolerance": 1e9}, 1),
            (False, {"tau_learn": 1e-310}, None),
        ],
        ids=["one-hot", "dense", "lr-0", "momentum-0-to-cap", "momentum-0.9-to-cap",
             "momentum-0.9", "stop-at-1", "denormal-tau"],
    )
    def test_named_cases(self, one_hot, cfg, epochs):
        instance = _learn_instance(42, n=60, k=6, d=8, one_hot=one_hot, **cfg)
        assert_same_learning(*instance)
        if epochs is not None:
            assert learn(*instance)[1].epochs_run == epochs

    def test_step_that_cancels_a_row_diverges(self):
        # one sample per class on opposite sides of d = 1: the first step takes
        # proxy row 1 from 1.0 to exactly 0.0
        instance = (
            np.array([[1.0], [-1.0]]),
            PseudoLabels(np.eye(2)),
            ProxyWeights(np.ones((2, 1))),
            LearnConfig(momentum=0.0, max_epochs=1, loss_tolerance=0.0),
        )
        assert_same_learning(*instance)
        with pytest.raises(NumericError, match="step diverged at epoch 1 .*all-zero row 1"):
            learn(*instance)

    def test_step_to_a_tiny_row_normalizes_it(self):
        instance = _tiny_row_instance()
        assert_same_learning(*instance)
        w, trace = learn(*instance)
        assert trace.epochs_run == 3
        assert np.array_equal(w.w[1], [0.0, 1.0])  # the tiny row keeps its direction

    def test_denormal_tau_message(self):
        instance = _learn_instance(42, n=10, k=3, d=4, one_hot=False, tau_learn=1e-310)
        with pytest.raises(NumericError) as err:
            learn(*instance)
        assert str(err.value) == (
            "x @ w.T / tau_learn overflows (largest |x @ w.T| = 0.909329, "
            "tau_learn=1e-310); rerun with a larger --tau-learn"
        )

    def test_images_are_checked_once_per_call(self, monkeypatch):
        images, labels, init, cfg = _learn_instance(
            7, n=30, k=4, d=6, one_hot=False, learning_rate=0.005, loss_tolerance=0.0,
            max_epochs=20,
        )
        calls = []
        real = learner.as_matrix

        def counting(m, *args, **kwargs):
            calls.append(m is images)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(learner, "as_matrix", counting)
        _, trace = learn(images, labels, init, cfg)
        assert trace.epochs_run == 20
        assert sum(calls) == 0  # finite images: the logits show it, no scan

    @pytest.mark.parametrize(
        "instance, calls",
        [
            (_learn_instance(7, n=30, k=4, d=6, one_hot=False, learning_rate=0.005,
                             loss_tolerance=0.0, max_epochs=20), 0),
            (_tiny_row_instance(), 1),
        ],
        ids=["clean", "tiny-row"],
    )
    def test_only_an_odd_row_takes_the_general_normalization(
        self, monkeypatch, instance, calls
    ):
        made = []
        real = learner.l2_normalize_rows

        def counting(m, *args, **kwargs):
            made.append(m)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(learner, "l2_normalize_rows", counting)
        learn(*instance)
        assert len(made) == calls


def assert_same_trajectory(images, labels, init, cfg):
    """learn and the log-softmax form agree within rounding, or fail alike."""
    got = _outcome(learn, images, labels, init, cfg)
    want = _outcome(learn_log_softmax_reference, images, labels, init, cfg)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (got_w, got_trace), (want_w, want_trace) = got, want
    np.testing.assert_allclose(got_w.w, want_w.w, rtol=0, atol=1e-8)
    assert got_trace.epochs_run == want_trace.epochs_run
    assert got_trace.stop_reason == want_trace.stop_reason
    for a, b in zip(got_trace.losses, want_trace.losses, strict=True):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


class TestLearnMatchesLogSoftmaxForm:
    """The computed form follows the log-softmax form's trajectory."""

    @settings(max_examples=60, deadline=None)
    @given(learn_instances(small_steps_only=True))
    def test_random_instances(self, instance):
        assert_same_trajectory(*instance)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_kpl_full_predictions(self, tmp_path, seed):
        """Same pseudo-labels and text proxies: same predictions and epoch count."""
        write_fixture(generate_fixture(seed, FixtureSpec()), tmp_path)
        spec = RunSpec(mode="kpl_full", images=tmp_path / "images.emb", kb=tmp_path / "kb.json")
        report = run(spec)
        inputs = load(spec)
        _, proxies = text_stage(inputs, spec.k)
        _, guide = transport_stage(inputs, proxies, spec.solver)
        weights, trace = learn_log_softmax_reference(inputs.images, guide, proxies, spec.learn)
        assert np.array_equal(classify(inputs.images, weights), report["predictions"])
        assert trace.epochs_run == report["learn_summary"]["epochs_run"]


class TestNoImages:
    """The loss is a mean over images, so an empty image matrix is a usage error."""

    def _instance(self):
        return np.zeros((0, 3)), ProxyWeights(np.eye(3)[:2]), PseudoLabels(np.zeros((0, 2)))

    @pytest.mark.parametrize("fn", [loss, gradient])
    def test_objective_rejects(self, fn):
        images, w, labels = self._instance()
        with pytest.raises(UsageError, match="image embeddings has no rows"):
            fn(w, images, labels, tau=0.1)

    def test_learn_rejects(self):
        images, w, labels = self._instance()
        with pytest.raises(UsageError, match="image embeddings has no rows"):
            learn(images, labels, w, LearnConfig())


class TestStopRule:
    @settings(max_examples=60, deadline=None)
    @given(learn_instances())
    def test_converged_means_the_last_change_is_below_tolerance(self, instance):
        """A rising loss is a change like a falling one: it is no reason to stop."""
        cfg = instance[3]
        try:
            _, trace = learn(*instance)
        except NumericError:
            return
        changes = np.abs(np.diff(trace.losses))
        assert np.all(changes[:-1] >= cfg.loss_tolerance)
        if trace.stop_reason == "converged":
            assert changes[-1] < cfg.loss_tolerance
        else:
            assert changes[-1] >= cfg.loss_tolerance
            assert trace.epochs_run == cfg.max_epochs

    def test_overshooting_step_does_not_converge(self):
        instance = _learn_instance(42, n=60, k=6, d=8, one_hot=False, learning_rate=5.0,
                                   max_epochs=40)
        _, trace = learn(*instance)
        assert trace.losses[1] > trace.losses[0]
        assert trace.stop_reason == "max_epochs"


def classify_reference(images, w):
    """Whole-matrix classify: the argmax of one N x K logits matrix.

    Kept frozen for :func:`classify`, which takes the argmax block by block
    and must give the same labels.
    """
    x = as_matrix(images, "image embeddings")
    return np.argmax(x @ w.w.T, axis=1)


@st.composite
def classify_instances(draw):
    """Images around the row-block edges; proxies may repeat, images may equal a proxy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = _BLOCK_ROWS
    n = draw(st.sampled_from([0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 3 * b + 5, 20000]))
    k, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    w = unit_rows(rng, (k, d))
    if k > 1 and draw(st.booleans()):  # exact ties between two classes
        w[draw(st.integers(1, k - 1))] = w[0]
    images = unit_rows(rng, (n, d)) if n else np.zeros((0, d))
    if n and draw(st.booleans()):  # images that sit on a proxy
        picks = rng.integers(n, size=min(n, 50))
        images[picks] = w[rng.integers(k, size=picks.size)]
    return images, ProxyWeights(w)


class TestClassify:
    @settings(max_examples=40, deadline=None)
    @given(classify_instances())
    def test_blocks_match_the_whole_matrix(self, instance):
        got, want = classify(*instance), classify_reference(*instance)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_image_equal_to_proxy_row_wins(self):
        w = ProxyWeights(np.eye(4)[:3])
        images = np.eye(4)[2][None, :]
        np.testing.assert_array_equal(classify(images, w), [2])

    def test_invariant_under_positive_image_scaling(self):
        rng = np.random.default_rng(42)
        images = unit_rows(rng, (30, 6))
        w = ProxyWeights(unit_rows(rng, (4, 6)))
        np.testing.assert_array_equal(
            classify(images, w), classify(123.0 * images, w)
        )

    def test_empty_dataset_gives_empty_labels(self):
        w = ProxyWeights(np.eye(3)[:2])
        out = classify(np.zeros((0, 3)), w)
        assert out.shape == (0,)

    def test_tie_breaks_to_lowest_index(self):
        w = ProxyWeights(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(classify(np.array([[1.0, 0.0]]), w), [0])

    @pytest.mark.parametrize(
        "n",
        [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS - 1, 3 * _BLOCK_ROWS + 5],
    )
    @pytest.mark.parametrize("k", [2, 50])
    def test_block_split_changes_no_label(self, n, k):
        rng = np.random.default_rng(n + k)
        images = unit_rows(rng, (n, 128))
        w = ProxyWeights(unit_rows(rng, (k, 128)))
        np.testing.assert_array_equal(classify(images, w), classify_reference(images, w))

    @pytest.mark.parametrize("row", [8192, 16386])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_in_a_later_block_is_named(self, row, value):
        # no block is wider than _BLOCK_ROWS, so both rows sit past the first
        # block, and row 16386 in the last one
        assert row >= _BLOCK_ROWS
        rng = np.random.default_rng(3)
        images = unit_rows(rng, (16387, 4))
        images[row, 2] = value
        w = ProxyWeights(unit_rows(rng, (3, 4)))
        message = rf"image embeddings has non-finite entry at \({row}, 2\): {value}$"
        with pytest.raises(DataError, match=message):
            classify(images, w)


class TestLearnConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_learn": 0.0},
            {"learning_rate": -0.1},
            {"momentum": 1.0},
            {"momentum": -0.2},
            {"max_epochs": 0},
            {"loss_tolerance": -1.0},
            {"tau_learn": float("nan")},
            {"learning_rate": float("nan")},
            {"loss_tolerance": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(UsageError):
            LearnConfig(**kwargs)
