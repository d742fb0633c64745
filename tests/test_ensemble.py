import numpy as np
import pytest

from enfuse.classifiers import KINDS
from enfuse.data import make_synthetic_task, stratified_split
from enfuse.ensemble import (
    ablate,
    ablation_csv,
    confusion_from_labels,
    class_metrics,
    evaluate,
    extract_parts,
    majority_vote,
    metrics_csv,
    predict_ensemble,
    scores,
    summary_text,
    train_ensemble,
)
from enfuse.features import FeatureMatrix

SIZE = (16, 16)


def projector(ds, dim, seed):
    """Deterministic stand-in features: seeded random projection of pixels."""
    flat = ds.images.reshape(len(ds), -1)
    proj = np.random.default_rng(seed).normal(size=(flat.shape[1], dim))
    return FeatureMatrix(flat @ proj / np.sqrt(flat.shape[1]), labels=ds.labels)


def noise_features(ds, dim, seed):
    """Features independent of image content (keyed only by row count)."""
    rng = np.random.default_rng(seed + 1000 * len(ds))
    return FeatureMatrix(rng.normal(size=(len(ds), dim)), labels=ds.labels)


@pytest.fixture(scope="module")
def splits():
    data = make_synthetic_task("shapes3", 20, SIZE, 0.05, seed=50)
    return stratified_split(data, 0.8, seed=0)


@pytest.fixture(scope="module")
def parts(splits):
    """(train parts, test parts): three projections per split."""
    return tuple({f"p{seed}": projector(ds, 12, seed) for seed in range(3)}
                 for ds in splits)


@pytest.fixture(scope="module")
def trained(parts):
    return train_ensemble([parts[0]], method="concat+pca", seed=0, k=0)[0]


class TestMajorityVote:
    def test_plain_majority(self):
        votes = [np.array([0]), np.array([0]), np.array([0]), np.array([1]), np.array([1])]
        assert majority_vote(votes, 2)[0] == 0

    def test_tie_goes_to_lowest_index(self):
        votes = [np.array([0]), np.array([0]), np.array([1]), np.array([1]), np.array([2])]
        assert majority_vote(votes, 3)[0] == 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        votes = [rng.integers(0, 3, 20) for _ in range(5)]
        base = majority_vote(votes, 3)
        for perm_seed in range(5):
            order = np.random.default_rng(perm_seed).permutation(5)
            assert np.array_equal(majority_vote([votes[i] for i in order], 3), base)

    def test_single_voter_identity(self):
        v = np.array([2, 0, 1])
        assert np.array_equal(majority_vote([v], 3), v)


class TestMetrics:
    def test_hand_counts(self):
        # class-0 view: TP=50, TN=30, FP=10, FN=10
        cm = np.array([[50, 10], [10, 30]])
        metrics = class_metrics(cm)
        assert list(metrics) == ["tp", "tn", "fp", "fn", "precision", "recall", "f1"]
        assert all(column.shape == (2,) for column in metrics.values())
        row = {name: column[0] for name, column in metrics.items()}
        assert (row["tp"], row["tn"], row["fp"], row["fn"]) == (50, 30, 10, 10)
        assert row["precision"] == pytest.approx(50 / 60)
        assert row["recall"] == pytest.approx(50 / 60)
        assert row["f1"] == pytest.approx(50 / 60)

    def test_all_correct(self):
        true = np.array([0, 1, 2, 0, 1, 2])
        cm = confusion_from_labels(true, true, 3)
        assert np.array_equal(cm, np.diag([2, 2, 2]))
        assert np.all(class_metrics(cm)["f1"] == 1.0)

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 4, 100)
        pred = rng.integers(0, 4, 100)
        cm = confusion_from_labels(true, pred, 4)
        metrics = class_metrics(cm)
        for cls in range(4):
            tp = np.sum((true == cls) & (pred == cls))
            fp = np.sum((true != cls) & (pred == cls))
            fn = np.sum((true == cls) & (pred != cls))
            assert (metrics["tp"][cls], metrics["fp"][cls], metrics["fn"][cls]) == (tp, fp, fn)
            assert metrics["tp"][cls] + metrics["fn"][cls] == np.sum(true == cls)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(2)
        cm = confusion_from_labels(rng.integers(0, 3, 60), rng.integers(0, 3, 60), 3)
        metrics = class_metrics(cm)
        for p, r, f1 in zip(metrics["precision"], metrics["recall"], metrics["f1"]):
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(f1 - expected) < 1e-12

    def test_zero_denominator_convention(self):
        cm = np.array([[0, 2], [0, 2]])
        metrics = class_metrics(cm)
        assert metrics["precision"][0] == metrics["recall"][0] == metrics["f1"][0] == 0.0


class TestTrainEvaluate:
    def test_fixed_classifier_order(self, trained):
        assert [c.kind for c in trained.classifiers] == list(KINDS)

    def test_determinism(self, parts):
        train_parts, test_parts = parts
        a = train_ensemble([train_parts], method="concat+pca", seed=3, k=0)[0]
        b = train_ensemble([train_parts], method="concat+pca", seed=3, k=0)[0]
        _, va = predict_ensemble(a, test_parts)
        _, vb = predict_ensemble(b, test_parts)
        assert np.array_equal(va, vb)

    def test_informative_features_learned(self, trained, parts):
        _, accuracies = evaluate(trained, parts[1])
        assert accuracies["voted"] >= 0.75

    def test_transform_not_refit_at_test_time(self, trained, parts):
        t = trained.transform
        fitted = [a.copy() for a in (t.mean, t.std, t.components)]
        evaluate(trained, parts[1])
        for before, after in zip(fitted, (t.mean, t.std, t.components)):
            assert np.array_equal(before, after)

    def test_per_classifier_reports(self, trained, parts):
        counts, accuracies = evaluate(trained, parts[1])
        assert list(accuracies) == [*KINDS, "voted"]
        assert all(0.0 <= acc <= 1.0 for acc in accuracies.values())
        assert accuracies["voted"] == np.trace(counts) / counts.sum()


class TestAblate:
    def test_row_per_base_model_and_full_consistency(self, trained, parts):
        train_parts, test_parts = parts
        arms = ablate(trained, train_parts, test_parts, method="concat+pca", seed=0, k=0)
        assert list(arms) == [None, *train_parts]
        _, accuracies = evaluate(trained, test_parts)
        assert arms[None]["voted"] == accuracies["voted"]

    def test_exclusion_rows_refit_without_the_excluded_model(self, trained, parts):
        train_parts, test_parts = parts
        arms = ablate(trained, train_parts, test_parts, method="concat+pca", seed=0, k=0)
        csv_rows = dict(line.split(",", 1) for line in ablation_csv(arms).split("\n")[2:-1])
        for excluded in train_parts:
            kept = [{n: p for n, p in split.items() if n != excluded} for split in parts]
            model = train_ensemble([kept[0]], method="concat+pca", seed=0, k=0)[0]
            voted = evaluate(model, kept[1])[1]["voted"]
            assert arms[excluded]["voted"] == voted
            delta = csv_rows[excluded].rsplit(",", 1)[1]
            assert delta == f"{voted - arms[None]['voted']:+.6f}"

    def test_noise_model_exclusion_never_hurts(self, splits, parts):
        train_parts, test_parts = ({**split_parts, "noise": noise_features(ds, 12, 99)}
                                   for split_parts, ds in zip(parts, splits))
        full = train_ensemble([train_parts], method="concat+pca", seed=0, k=0)[0]
        arms = ablate(full, train_parts, test_parts, method="concat+pca", seed=0, k=0)
        assert arms["noise"]["voted"] - arms[None]["voted"] >= 0.0


# metrics_csv and summary_text of the hand counts in test_report_text_on_hand_counts
METRICS_CSV = """\
class,tp,tn,fp,fn,precision,recall,f1
0,3,3,2,0,0.600000,1.000000,0.750000
1,2,4,1,1,0.666667,0.666667,0.666667
2,0,6,0,2,0.000000,0.000000,0.000000

accuracy,0.625000
macro_precision,0.422222
macro_recall,0.555556
macro_f1,0.472222

confusion,pred_0,pred_1,pred_2
true_0,3,0,0
true_1,1,2,0
true_2,1,1,0
"""
SUMMARY_TEXT = """\
ensemble evaluation
  voted accuracy : 0.6250
  macro precision: 0.4222
  macro recall   : 0.5556
  macro F1       : 0.4722
  per-classifier accuracy:
    SVM : 0.6250
    KNN : 1.0000
    GNB : 0.6250
    RF  : 0.3750
    GBT : 0.6250
"""


class TestReports:
    def test_csv_and_text_emission(self, trained, parts):
        cm, accuracies = evaluate(trained, parts[1])
        assert f"accuracy,{accuracies['voted']:.6f}" in metrics_csv(cm, accuracies)
        assert "voted accuracy" in summary_text(cm, accuracies)

    def test_byte_identical_reports(self, trained, parts):
        first, second = (metrics_csv(*evaluate(trained, parts[1])) for _ in range(2))
        assert first == second

    def test_report_text_on_hand_counts(self):
        # class 2 is never predicted (precision 0/0); a class-1 row is predicted 0
        counts = np.array([[3, 0, 0], [1, 2, 0], [1, 1, 0]])
        true = np.repeat(np.arange(3), counts.sum(axis=1))
        pred = np.concatenate([np.repeat(np.arange(3), row) for row in counts])
        per_clf = [pred, true, pred, np.zeros_like(true), pred]
        accuracies = scores(true, per_clf, pred)
        assert np.array_equal(confusion_from_labels(true, pred, 3), counts)
        assert metrics_csv(counts, accuracies) == METRICS_CSV
        assert summary_text(counts, accuracies) == SUMMARY_TEXT

    def test_ablation_csv_shape(self, trained, parts):
        train_parts, test_parts = parts
        arms = ablate(trained, train_parts, test_parts, method="concat+pca", seed=0, k=0)
        lines = ablation_csv(arms).strip().split("\n")
        assert len(lines) == 1 + 1 + len(train_parts)  # header, full row, exclusions
        assert lines[1].startswith("(none)")


class TestWithEncoders:
    def test_end_to_end_with_real_base_models(self, splits):
        from enfuse.pretrain import (
            finetune_target_ssl, finetune_intermediate_tl,
            finetune_target_tl, pretrain_generic, pretrain_ssl,
        )

        train, test = splits
        fast = dict(epochs=25, batch=8, lr=0.01)
        generic = make_synthetic_task("generic", 12, SIZE, 0.0, seed=60)
        tl = pretrain_generic("A", generic, seed=1, **fast)
        tl = finetune_intermediate_tl(tl, train, seed=2, **fast)
        tl = finetune_target_tl(tl, train, seed=3, **fast)
        ssl = pretrain_ssl("B", train, temperature=0.5, batch_pairs=16, blur_kernel=3,
                           epochs=6, seed=4, lr=0.01)
        ssl = finetune_target_ssl(ssl, train, seed=5, **fast)

        models = [("tl_A", tl), ("ssl_B", ssl)]
        (ensemble,) = train_ensemble([extract_parts(models, train)], method="concat+ica",
                                     seed=0, k=0)
        _, accuracies = evaluate(ensemble, extract_parts(models, test))
        assert accuracies["voted"] >= 0.5
        assert ensemble.transform.in_dim == tl.feature_dim + ssl.feature_dim
