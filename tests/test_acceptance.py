"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The suite exercises oracle equivalences, property checks, and the seeded
end-to-end benchmark. Benchmark values are locked in a golden file on first
computation and compared exactly afterwards (everything is deterministic).
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from test_nn import check_layer_grads, numeric_grad
from test_oracles import classifier_output, shap_exact

from enfuse.classifiers import fit_gnb, fit_knn, predict
from enfuse.cli import _load_target_models, load_config, run, target_split
from enfuse.data import make_synthetic_task, stratified_split
from enfuse.ensemble import (
    ablate,
    class_metrics,
    confusion_from_labels,
    evaluate,
    extract_parts,
    fit_arm,
    scores,
    train_ensemble,
)
from enfuse.explain import _conditional_p, shap_sampled, tsne_embed
from enfuse.features import FeatureMatrix
from enfuse.fusion import apply_transform, fit_ica
from enfuse.nn import (
    Conv2d,
    Dense,
    EncoderModel,
    GlobalAvgPool,
    MaxPool2d,
    ReLU,
    cross_entropy_loss,
    nt_xent_loss,
)
from enfuse.pretrain import build_backbone

GOLDEN_FILE = Path(__file__).parent / "golden_benchmark_seed42.json"
SEED = 42


def report(criterion: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {verdict} — {detail}", file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full default-config pipeline run at seed 42, shared by criteria 8-12."""
    out = tmp_path_factory.mktemp("accept") / "run"
    code = run(["all", "--out", str(out), "--seed", str(SEED)])
    assert code == 0
    config = load_config(None)
    return out, config


def test_criterion_1_gradient_correctness():
    start = time.time()
    n_configs = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x_img = rng.normal(size=(2, 3, 6, 6))
        check_layer_grads(Conv2d(3, 4, 3, rng), x_img.copy())
        check_layer_grads(MaxPool2d(), rng.normal(size=(2, 2, 6, 6)))
        check_layer_grads(GlobalAvgPool(), rng.normal(size=(2, 3, 4, 4)))
        check_layer_grads(ReLU(), rng.normal(size=(3, 7)))
        check_layer_grads(Dense(5, 4, rng), rng.normal(size=(3, 5)))
        n_configs += 5
    for seed in range(4, 8):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        onehot = np.eye(3)[rng.integers(0, 3, 4)]
        _, grad = cross_entropy_loss(logits, onehot)
        fd = numeric_grad(lambda: cross_entropy_loss(logits, onehot)[0], logits)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)
        z = rng.normal(size=(6, 5))
        _, dz = nt_xent_loss(z, 0.7)
        fd = numeric_grad(lambda: nt_xent_loss(z, 0.7)[0], z)
        assert np.allclose(dz, fd, rtol=1e-4, atol=1e-7)
        n_configs += 2
    elapsed = time.time() - start
    report(1, n_configs >= 20 and elapsed < 30,
           f"{n_configs} seeded configs matched finite differences in {elapsed:.1f}s")


def test_criterion_2_nt_xent_hand_value():
    z = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0],
                  [0, 1.0, 0, 0], [0, 1.0, 0, 0]])
    loss, _ = nt_xent_loss(z, 1.0)
    expected = -np.log(np.e / (np.e + 2))
    err = abs(loss - expected)
    report(2, err < 1e-6,
           f"orthogonal-pairs loss {loss:.6f} vs hand value {expected:.6f} (|err| {err:.1e})")


def test_criterion_3_metric_formulas():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(10, 200))
        true = rng.integers(0, k, n)
        pred = rng.integers(0, k, n)
        metrics = class_metrics(confusion_from_labels(true, pred, k))
        for cls in range(k):
            tp = np.sum((true == cls) & (pred == cls))
            fp = np.sum((true != cls) & (pred == cls))
            fn = np.sum((true == cls) & (pred != cls))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert metrics["precision"][cls] == prec and metrics["recall"][cls] == rec
            worst = max(worst, abs(metrics["f1"][cls] - f1))
            assert abs(metrics["f1"][cls] - f1) < 1e-12
    report(3, True, f"100 random confusion matrices matched the counting oracle "
                    f"(max F1 deviation {worst:.1e})")


def test_criterion_4_knn_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 4))
    y = rng.integers(0, 4, 50)
    clf = fit_knn(x, y)
    queries = rng.normal(size=(200, 4))
    got = predict(clf, queries)
    mismatches = 0
    for q, label in zip(queries, got):
        dist = np.sqrt(((x - q) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:3]
        weights = np.zeros(4)
        for j in nearest:
            weights[y[j]] += 1.0 / (dist[j] + 1e-12)
        if label != int(np.argmax(weights)):
            mismatches += 1
    report(4, mismatches == 0,
           f"200/200 queries equal to exhaustive inverse-distance voting")


def test_criterion_5_shap_axioms():
    rng = np.random.default_rng(5)
    # local accuracy + null feature on a D=8 nonlinear model
    w = rng.normal(size=8)
    w[5] = 0.0

    def f(x):
        masked = x.copy()
        masked[:, 5] = 0.0  # feature 5 is ignored entirely
        return (np.tanh(masked @ w) + 0.1 * masked[:, 0] * masked[:, 1])[:, None]

    instance = rng.normal(size=8)
    background = rng.normal(size=(16, 8))
    phi, base, output = shap_exact(f, instance, background)
    local_err = abs(base + phi.sum() - output)
    null_phi = abs(phi[5])
    # symmetry on exchangeable features
    sym, _, _ = shap_exact(lambda x: x[:, :1] * x[:, 1:2], np.array([1.5, 1.5]),
                           np.zeros((1, 2)))
    sym_err = abs(sym[0] - sym[1])
    # sampled-vs-exact agreement on a D=8 GNB model
    data = np.concatenate([rng.normal(-1, 0.6, (20, 8)), rng.normal(1, 0.6, (20, 8))])
    labels = np.array([0] * 20 + [1] * 20)
    clf = fit_gnb(data, labels)
    target = classifier_output(clf)
    ex, _, _ = shap_exact(target, data[4], data)
    sa, _, _ = shap_sampled(target, data[4], data, n_samples=2048, seed=0)
    sampled_err = float(np.max(np.abs(ex - sa)))
    ok = local_err < 1e-9 and sym_err < 1e-12 and null_phi == 0.0 and sampled_err < 0.05
    report(5, ok, f"local accuracy {local_err:.1e}, symmetry {sym_err:.1e}, "
                  f"null phi {null_phi}, sampled-vs-exact {sampled_err:.3f}")


def test_criterion_6_fastica_source_recovery():
    start = time.time()
    rng = np.random.default_rng(6)
    t_axis = np.linspace(0, 40, 2000)
    sources = np.stack([np.sin(t_axis), rng.uniform(-1, 1, 2000)], axis=1)
    mixed = sources @ np.array([[1.0, 0.5], [0.5, 1.0]]).T
    fm = FeatureMatrix(mixed, labels=np.zeros(len(mixed), dtype=int))
    transform = fit_ica(fm, 2, seed=1)
    recovered = apply_transform(transform, fm).data
    corr = np.abs(np.corrcoef(recovered.T, sources.T)[:2, 2:])
    best = max(min(corr[0, 0], corr[1, 1]), min(corr[0, 1], corr[1, 0]))
    elapsed = time.time() - start
    report(6, best > 0.99 and elapsed < 5,
           f"worst source |correlation| {best:.4f} in {elapsed:.1f}s")


def test_criterion_7_tsne_sanity():
    start = time.time()
    rng = np.random.default_rng(7)
    m = 300
    a = rng.normal(-4, 0.5, size=(m // 2, 10))
    b = rng.normal(4, 0.5, size=(m // 2, 10))
    data = np.concatenate([a, b])
    labels = np.array([0] * (m // 2) + [1] * (m // 2))
    sq = np.sum(data * data, axis=1)
    dist_sq = np.maximum(sq[:, None] + sq[None] - 2 * data @ data.T, 0.0)
    cond = _conditional_p(dist_sq, 30.0)
    joint_sum = ((cond + cond.T) / (2 * m)).sum()
    y, _, _ = tsne_embed(FeatureMatrix(data, labels=labels), perplexity=30,
                         iters=500, seed=0)
    scores = []
    for i in range(m):
        a_d = np.mean(np.linalg.norm(y[labels == labels[i]] - y[i], axis=1))
        b_d = np.mean(np.linalg.norm(y[labels != labels[i]] - y[i], axis=1))
        scores.append((b_d - a_d) / max(a_d, b_d))
    silhouette = float(np.mean(scores))
    elapsed = time.time() - start
    ok = abs(joint_sum - 1.0) < 1e-9 and silhouette > 0.5 and elapsed < 60
    report(7, ok, f"joint P sum err {abs(joint_sum - 1):.1e}, "
                  f"silhouette {silhouette:.3f}, {elapsed:.1f}s at M={m}")


def test_criterion_8_end_to_end_benchmark(pipeline):
    start = time.time()
    out, config = pipeline
    train, test = target_split(config, SEED)
    models = _load_target_models(out, config)
    method, k = config["fusion"]["method"], config["fusion"]["k"]

    base_accs = {}
    log = (out / config["task"]["name"] / "finetune" / "accuracy.log").read_text()
    for line in log.strip().split("\n"):
        name, _, acc = line.split()
        base_accs[name] = float(acc)
    base_mean = float(np.mean(list(base_accs.values())))
    train_parts, test_parts = extract_parts(models, train), extract_parts(models, test)

    def voted(prefix):
        names = [n for n in train_parts if n.startswith(prefix)]
        arm = tuple({n: parts[n] for n in names} for parts in (train_parts, test_parts))
        (fit,) = fit_arm([arm], method, SEED, k)
        return scores(test.labels, *fit)["voted"]

    combined = voted(("tl", "ssl"))
    tl_only = voted("tl")
    ssl_only = voted("ssl")

    values = {"base_accuracies": base_accs, "base_mean": base_mean,
              "combined_voted": combined, "tl_only_voted": tl_only,
              "ssl_only_voted": ssl_only}
    if GOLDEN_FILE.exists():
        golden = json.loads(GOLDEN_FILE.read_text())
        locked = golden == values
    else:
        GOLDEN_FILE.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
        locked = True
    elapsed = time.time() - start
    ok = (combined >= base_mean and combined >= tl_only - 0.01
          and combined >= ssl_only - 0.01 and locked and elapsed < 600)
    report(8, ok, f"voted {combined:.3f} vs base mean {base_mean:.3f}, "
                  f"TL-only {tl_only:.3f}, SSL-only {ssl_only:.3f}, "
                  f"golden {'matched' if locked else 'MISMATCH'}")


def test_criterion_9_ood_direction(pipeline):
    # Deliberately hard transfer setting: heavy noise and only 12 labelled
    # training images per class, so feature quality dominates the outcome.
    out, config = pipeline
    models = _load_target_models(out, config)
    method, k = "concat+pca", 8
    size = config["data"]["image_size"]
    margins = []
    for s in range(3):
        dataset = make_synthetic_task("shapes4", 60, (size, size), 0.6,
                                      seed=2000 + s)
        train, test = stratified_split(dataset, 0.2, seed=s)
        random_models = []
        for i, (name, _) in enumerate(models):
            variant = name.split("_")[1]
            rng = np.random.default_rng(9000 + 10 * s + i)
            random_models.append((name, EncoderModel(build_backbone(variant, rng))))
        accs = {}
        for label, pool in (("pre", models), ("rnd", random_models)):
            (fit,) = fit_arm([(extract_parts(pool, train), extract_parts(pool, test))],
                             method, SEED, k)
            accs[label] = scores(test.labels, *fit)["voted"]
        margins.append(accs["pre"] - accs["rnd"])
    mean_margin = float(np.mean(margins))
    report(9, mean_margin >= 0.05,
           f"pre-trained vs random margin {mean_margin:+.3f} over 3 seeds "
           f"(per-seed: {', '.join(f'{m:+.3f}' for m in margins)})")


def test_criterion_10_determinism(pipeline, tmp_path):
    out, _ = pipeline
    rerun = tmp_path / "rerun"
    assert run(["all", "--out", str(rerun), "--seed", str(SEED)]) == 0
    first = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    second = {p.relative_to(rerun): p.read_bytes()
              for p in sorted(rerun.rglob("*")) if p.is_file()}
    identical = first == second
    report(10, identical,
           f"two seed-{SEED} runs produced byte-identical trees "
           f"({len(first)} files)")


def test_criterion_11_freeze_contracts(pipeline):
    out, config = pipeline
    task = out / config["task"]["name"]
    violations = []
    for variant in "ABC":
        pre = EncoderModel.load(task / "pretrain" / f"tl_{variant}.bin")
        fin = EncoderModel.load(task / "finetune" / f"tl_{variant}.bin")
        frozen_until = fin.last_conv_index()
        for i in range(frozen_until):
            for pname, arr in pre.backbone[i].params.items():
                if not np.array_equal(arr, fin.backbone[i].params[pname]):
                    violations.append(f"tl_{variant} layer {i}.{pname}")
        pre = EncoderModel.load(task / "pretrain" / f"ssl_{variant}.bin")
        fin = EncoderModel.load(task / "finetune" / f"ssl_{variant}.bin")
        for i in range(len(fin.backbone)):
            for pname, arr in pre.backbone[i].params.items():
                if not np.array_equal(arr, fin.backbone[i].params[pname]):
                    violations.append(f"ssl_{variant} layer {i}.{pname}")
    report(11, not violations,
           "all frozen parameters bit-identical across the pipeline run"
           if not violations else f"violated: {violations[:3]}")


def test_criterion_12_ablation_consistency(pipeline):
    out, config = pipeline
    train, test = target_split(config, SEED)
    models = _load_target_models(out, config)
    method, k = config["fusion"]["method"], config["fusion"]["k"]

    def noise_features(ds):
        rng = np.random.default_rng(31337 + 1000 * len(ds))
        return FeatureMatrix(rng.normal(size=(len(ds), 12)), labels=ds.labels)

    train_parts, test_parts = ({**extract_parts(models, ds), "noise": noise_features(ds)}
                               for ds in (train, test))
    full_model = train_ensemble([train_parts], method=method, seed=SEED, k=k)[0]
    arms = ablate(full_model, train_parts, test_parts, method=method, seed=SEED, k=k)
    full_matches = arms[None]["voted"] == evaluate(full_model, test_parts)[1]["voted"]
    noise_delta = arms["noise"]["voted"] - arms[None]["voted"]
    report(12, full_matches and noise_delta >= 0.0,
           f"full row equals evaluate() ({arms[None]['voted']:.3f}); "
           f"noise exclusion delta {noise_delta:+.3f}")
