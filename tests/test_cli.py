import ast
import collections
import hashlib
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_oracles import shap_sampled_per_permutation

from enfuse import artifact, classifiers, cli, ensemble, explain
from enfuse.cli import SETTINGS, load_config, run, target_split
from enfuse.data import TASK_MOTIFS, make_synthetic_task, stratified_split
from enfuse.ensemble import TARGET_MAGIC, evaluate, train_ensemble
from enfuse.errors import ConfigError, EnfuseError, IntegrityError
from enfuse.explain import TSNE_MIN_ROWS
from enfuse.features import FeatureMatrix
from enfuse.fusion import METHODS, max_components
from enfuse.nn import EncoderModel
from enfuse.pretrain import (
    build_backbone,
    make_classification_head,
    make_projection_head,
    make_ssl_classification_head,
)

TINY_CONFIG = """\
[task]
name = tiny

[data]
generic_per_class = 6
intermediate_per_class = 8
target_per_class = 10
split_fraction = 0.8

[pretrain]
epochs = 6
batch = 8
lr = 0.02
ssl_epochs = 2

[finetune]
epochs = 8
batch = 8
lr = 0.02

[fusion]
method = concat+pca
k = 8

[explain]
perplexity = 2.0
tsne_iters = 60
shap_samples = 64
"""

# the lowest value load_config and the stages' RULES accept for each count,
# size and rate that a stage's work scales with; the finetune batch is past the
# train split, which train_supervised clamps
LOWEST_CONFIG = """\
[data]
image_size = 16
generic_per_class = 2
intermediate_per_class = 2
target_per_class = 3
generic_noise = 0
intermediate_noise = 0
target_noise = 0
target_param_shift = 0

[pretrain]
epochs = 1
batch = 1
ssl_epochs = 1
ssl_batch_pairs = 2
augment_blur_kernel = 1

[finetune]
epochs = 1
batch = 100000

[fusion]
k = 0

[explain]
perplexity = 1
tsne_iters = 1
shap_samples = 1

[oodtest]
per_class = 3
noise = 0
"""


@pytest.fixture(scope="module")
def tiny_all(tmp_path_factory):
    """An `enfuse all` tree of the tiny config at seed 11; tests copy it, never change it."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = root / "out"
    assert run(["all", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    return out, cfg


@pytest.fixture(scope="module")
def workdir(tiny_all):
    """A copy of the tiny tree that the tests below add stages to."""
    pristine, cfg = tiny_all
    out = pristine.parent / "work"
    shutil.copytree(pristine, out)
    return out, ["--config", str(cfg), "--seed", "11", "--out", str(out)]


def tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Each file's bytes and each directory (None) under root, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def skipped_stages(stdout: str) -> set[str]:
    return {line.split(":")[0] for line in stdout.splitlines()
            if line.endswith(": up to date, skipping")}


DEFAULTS = {section: {key: default for key, (default, _) in keys.items()}
            for section, keys in SETTINGS.items()}
# the keys whose allowed values are an interval
NUMERIC_KEYS = [(section, key) for section, keys in SETTINGS.items()
                for key, (_, allowed) in keys.items() if isinstance(allowed, str)]


@st.composite
def numeric_setting(draw, inside):
    """(section, key, value) with value inside or outside the key's interval."""
    section, key = draw(st.sampled_from(NUMERIC_KEYS))
    default, bound = SETTINGS[section][key]
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    open_lo, open_hi = bound[0] == "(", bound[-1] == ")"
    if isinstance(default, int):
        lo = math.floor(lo) + 1 if open_lo else math.ceil(lo)
        hi = None if hi == math.inf else (math.ceil(hi) - 1 if open_hi else math.floor(hi))
        if inside:
            value = draw(st.integers(lo, hi))
            if key == "augment_blur_kernel":  # must also be odd
                value |= 1
            elif key == "image_size":  # must also be a multiple of 16
                value -= value % 16
        else:
            value = draw(st.integers(max_value=lo - 1)
                         | (st.nothing() if hi is None else st.integers(min_value=hi + 1)))
    else:
        lo = math.nextafter(lo, math.inf) if open_lo else lo
        hi = math.nextafter(hi, -math.inf) if open_hi else hi
        if inside:
            value = draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
        else:
            value = draw(st.floats(max_value=math.nextafter(lo, -math.inf))
                         | st.floats(min_value=math.nextafter(hi, math.inf)))
    return section, key, value


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "c.cfg"


def with_data(**data):
    config = {section: dict(values) for section, values in DEFAULTS.items()}
    config["data"].update(data)
    return config


def oodtest_split(config, seed=0):
    """The oodtest stage's split, drawn as cmd_oodtest draws it."""
    ood, size = config["oodtest"], config["data"]["image_size"]
    dataset = make_synthetic_task(ood["kind"], ood["per_class"], (size, size),
                                  ood["noise"], seed=seed + 777)
    return stratified_split(dataset, config["data"]["split_fraction"], seed + 6)


def explain_args(what: str, instance: int = 0):
    """The parsed command line of `enfuse explain --what <what>`, as RULES reads it."""
    return cli.build_parser().parse_args(["explain", "--what", what,
                                          "--instance", str(instance)])


def rule_holds(key: str, config, args=None) -> bool:
    """True when `cli.RULES[key]` accepts the config; a rejection is a ConfigError."""
    try:
        cli.RULES[key](config, args)
    except ConfigError:
        return False
    return True


class TestConfig:
    def test_defaults_when_no_file(self):
        config = load_config(None)
        assert config == DEFAULTS
        numeric = {(section, key) for section, values in DEFAULTS.items()
                   for key, value in values.items() if isinstance(value, (int, float))}
        assert numeric == set(NUMERIC_KEYS)

    def test_overrides_applied(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[pretrain]\nepochs = 3\nssl_lr = 0.5\n")
        config = load_config(str(cfg))
        assert config["pretrain"]["epochs"] == 3
        assert config["pretrain"]["ssl_lr"] == 0.5
        assert config["finetune"] == DEFAULTS["finetune"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[pretrain]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(cfg))

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(str(cfg))

    def test_key_outside_section_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 3\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[pretrain]\nepochs = lots\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        snippet = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(snippet)
        config = load_config(str(cfg))
        assert config["fusion"] == {"method": "concat+ica", "k": 16}
        assert config["pretrain"]["temperature"] == 0.5

    @settings(max_examples=150, deadline=None)
    @given(setting=numeric_setting(inside=True), comment=st.sampled_from(["", " # why", "#x"]))
    def test_value_inside_bounds_parses(self, cfg_file, setting, comment):
        section, key, value = setting
        cfg_file.write_text(f"[{section}]\n{key} = {value!r}{comment}\n")
        assert load_config(str(cfg_file))[section][key] == value

    @settings(max_examples=60, deadline=None)
    @given(per_class=st.integers(2, 25), fraction=st.floats(0.01, 0.99),
           offset=st.integers(-3, 3), method=st.sampled_from(["concat+ica", "concat+pca"]))
    def test_fusion_k_checked_against_the_actual_split(self, cfg_file, per_class,
                                                      fraction, offset, method):
        """ensemble's and ablate's rule; load_config takes any k in its interval."""
        rows = len(target_split(with_data(target_per_class=per_class, split_fraction=fraction),
                                seed=0)[0])
        k = max_components(rows, 96) + offset  # the largest k that fits, plus offset
        assume(k >= 1)
        cfg_file.write_text(f"[data]\ntarget_per_class = {per_class}\n"
                            f"split_fraction = {fraction!r}\n"
                            f"[fusion]\nmethod = {method}\nk = {k}\n")
        config = load_config(str(cfg_file))
        assert config["fusion"]["k"] == k
        for stage in ("ensemble", "ablate"):  # rows < 96 here: both bound k by the rows
            if offset <= 0:
                cli.RULES[stage](config, None)
            else:
                with pytest.raises(ConfigError, match=r"\[fusion\] k"):
                    cli.RULES[stage](config, None)

    def test_ablate_bounds_k_by_the_columns_without_the_widest_encoder(self, tmp_path):
        """144 train rows: ensemble fuses 120 columns, ablate's narrowest refit 96."""
        cfg = tmp_path / "c.cfg"
        for k, ensemble_fits, ablate_fits in ((96, True, True), (97, True, False),
                                              (120, True, False), (121, False, False)):
            cfg.write_text(f"[data]\ntarget_per_class = 60\n[fusion]\nk = {k}\n")
            config = load_config(str(cfg))
            assert rule_holds("ensemble", config) == ensemble_fits, k
            assert rule_holds("ablate", config) == ablate_fits, k

    @pytest.mark.parametrize("text", [  # the smallest split sizes accepted
        "[data]\ntarget_per_class = 6\n[fusion]\nk = 0\n",
        "[data]\ntarget_per_class = 6\n[fusion]\nmethod = concat-only\n",
        "[oodtest]\nper_class = 3\n",  # oodtest always fits with the automatic k
    ], ids=["k-automatic", "concat-only", "small-oodtest-split"])
    def test_fusion_k_not_checked_where_unused(self, tmp_path, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        config = load_config(str(cfg))
        for stage in ("ensemble", "ablate", "oodtest"):
            cli.RULES[stage](config, None)

    @settings(max_examples=150, deadline=None)
    @given(setting=numeric_setting(inside=False), comment=st.sampled_from(["", " # why", "#x"]))
    def test_value_outside_bounds_rejected(self, cfg_file, setting, comment):
        section, key, value = setting
        cfg_file.write_text(f"[{section}]\n{key} = {value!r}{comment}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(cfg_file))

    @settings(max_examples=20, deadline=None)
    @given(size=st.sampled_from(range(16, 65, 4)))
    def test_image_size_accepted_exactly_when_every_stack_runs(self, cfg_file, size):
        cfg_file.write_text(f"[data]\nimage_size = {size}\n")
        zeros = np.zeros((1, 3, size, size))
        runs = True
        for variant in "ABC":
            rng = np.random.default_rng(0)
            backbone = EncoderModel(build_backbone(variant, rng))
            d_f = backbone.feature_dim
            for head in (make_classification_head(d_f, 3, rng), make_projection_head(d_f, rng),
                         make_ssl_classification_head(d_f, 3, rng)):
                try:
                    EncoderModel(backbone.backbone, head).forward(zeros)
                except EnfuseError as exc:
                    assert "needs even spatial dims" in str(exc)
                    runs = False
        assert runs == (size % 16 == 0)
        if runs:
            assert load_config(str(cfg_file))["data"]["image_size"] == size
        else:
            with pytest.raises(ConfigError, match="image_size"):
                load_config(str(cfg_file))

    @settings(max_examples=60, deadline=None)
    @given(target=st.integers(2, 12), ood=st.integers(2, 12),
           fraction=st.floats(0.05, 0.95), kind=st.sampled_from(sorted(TASK_MOTIFS)))
    def test_split_sizes_accepted_exactly_when_the_classifiers_and_tsne_fit(
            self, cfg_file, target, ood, fraction, kind):
        """finetune's and oodtest's rules hold exactly when each class of their
        train split, as drawn, keeps the classifiers' 2 rows; explain --what
        tsne's, when the target test split keeps the rows t-SNE embeds."""
        cfg_file.write_text(f"[data]\ntarget_per_class = {target}\n"
                            f"split_fraction = {fraction!r}\n[fusion]\nk = 0\n"
                            f"[oodtest]\nper_class = {ood}\nkind = {kind}\n")
        config = load_config(str(cfg_file))
        (target_train, target_test), (ood_train, _) = (target_split(config, seed=0),
                                                       oodtest_split(config))
        assert rule_holds("finetune", config) == (target_train.class_counts().min() >= 2)
        assert rule_holds("oodtest", config) == (ood_train.class_counts().min() >= 2)
        assert rule_holds("tsne", config, explain_args("tsne")) == (
            len(target_test) >= TSNE_MIN_ROWS)

    @settings(max_examples=60, deadline=None)
    @given(target=st.integers(2, 12), fraction=st.floats(0.05, 0.95),
           instance=st.integers(-2, 40), what=st.sampled_from(["gradcam", "shap"]))
    def test_instance_accepted_exactly_when_it_is_a_target_test_row(
            self, cfg_file, target, fraction, instance, what):
        cfg_file.write_text(f"[data]\ntarget_per_class = {target}\n"
                            f"split_fraction = {fraction!r}\n")
        config = load_config(str(cfg_file))
        rows = len(target_split(config, seed=0)[1])
        assert rule_holds(what, config, explain_args(what, instance)) == (0 <= instance < rows)

    @pytest.mark.parametrize("method", METHODS)
    def test_smallest_accepted_splits_fit_an_ensemble(self, tmp_path, method):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[data]\ntarget_per_class = 3\n[oodtest]\nper_class = 3\n"
                       f"[fusion]\nmethod = {method}\nk = 0\n")
        config = load_config(str(cfg))
        assert rule_holds("finetune", config) and rule_holds("oodtest", config)
        rng = np.random.default_rng(0)
        for train, test in (target_split(config, seed=0), oodtest_split(config)):
            parts = [{name: FeatureMatrix(rng.normal(size=(len(split), width)), split.labels)
                      for name, width in (("a", 16), ("b", 24))} for split in (train, test)]
            ensemble = train_ensemble([parts[0]], method=method, seed=0, k=0)[0]
            evaluate(ensemble, parts[1])


class TestPipelineOutputs:
    def test_pretrain_files(self, workdir):
        out, _ = workdir
        stage = out / "tiny" / "pretrain"
        names = sorted(p.name for p in stage.iterdir())
        assert names == sorted(f"{m}_{v}.bin" for m in ("tl", "ssl") for v in "ABC")

    def test_accuracy_log_rows(self, workdir):
        out, _ = workdir
        lines = (out / "tiny" / "finetune" / "accuracy.log").read_text().strip().split("\n")
        assert len(lines) == 6
        assert sum(" TL " in l for l in lines) == 3
        assert sum(" SSL " in l for l in lines) == 3

    def test_ensemble_reports(self, workdir):
        out, _ = workdir
        stage = out / "tiny" / "ensemble"
        metrics = (stage / "metrics_seed11.csv").read_text()
        for column in ("precision", "recall", "f1", "accuracy"):
            assert column in metrics
        assert (stage / "confusion_seed11.svg").exists()
        comparison = (stage / "comparison_seed11.csv").read_text().strip().split("\n")
        assert len(comparison) == 1 + 6 + 3  # header, 6 base rows, 3 stage rows
        assert comparison[-1].startswith("voted,")

    def test_ablation_table(self, workdir):
        out, _ = workdir
        lines = (out / "tiny" / "ablate" / "ablation_seed11.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 1 + 6
        assert (out / "tiny" / "ablate" / "ablation_seed11.svg").exists()

    def test_manifest_hashes_everything(self, workdir):
        out, _ = workdir
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stages"]) >= {"pretrain", "finetune", "ensemble", "ablate"}
        assert len(manifest["stages"]["pretrain"]["files"]) == 6

    def test_rerun_is_noop(self, workdir):
        out, argv = workdir
        before = (out / "manifest.json").read_bytes()
        assert run(["ensemble"] + argv) == 0
        assert (out / "manifest.json").read_bytes() == before


class TestAuxCommands:
    def test_explain_gradcam(self, workdir):
        out, argv = workdir
        assert run(["explain", "--what", "gradcam"] + argv) == 0
        ppms = list((out / "tiny" / "explain").glob("gradcam_*.ppm"))
        assert len(ppms) == 6

    def test_explain_shap_and_tsne(self, workdir):
        out, argv = workdir
        assert run(["explain", "--what", "shap"] + argv) == 0
        shap_lines = (out / "tiny" / "explain" / "shap_i0_seed11.csv").read_text()
        assert shap_lines.count("\n") == 1 + 8 + 2  # header, k rows, base+output
        assert run(["explain", "--what", "tsne"] + argv) == 0
        assert (out / "tiny" / "explain" / "tsne_seed11.svg").exists()

    def test_shap_csv_has_the_bytes_of_the_per_permutation_oracle(self, tiny_all, tmp_path,
                                                                   monkeypatch):
        """`explain --what shap` calls its f once per block, the one block of
        the tiny config's 8 permutations, and writes the bytes that f over
        every permutation's prefixes, then at the background mean and at the
        instance, gives."""
        pristine, cfg = tiny_all
        calls, csv = [], {}

        def counted(f, *args, **kwargs):
            def f_counted(x):
                calls.append(len(x))
                return f(x)
            return explain.shap_sampled(f_counted, *args, **kwargs)

        def oracle(f, instance, background, *, n_samples, seed):
            return shap_sampled_per_permutation(f, instance, background, n_samples, seed)

        for side, shap in (("block", counted), ("oracle", oracle)):
            out = tmp_path / side
            shutil.copytree(pristine, out)
            monkeypatch.setattr(cli, "shap_sampled", shap)
            argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
            assert run(["explain", "--what", "shap"] + argv) == 0
            csv[side] = (out / "tiny" / "explain" / "shap_i0_seed11.csv").read_bytes()
        assert len(calls) == 1
        assert csv["block"] == csv["oracle"]

    def test_tsne_runs_on_the_smallest_accepted_target_split(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TINY_CONFIG.replace("target_per_class = 10", "target_per_class = 6"))
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(tmp_path / "out")]
        assert run(["all"] + argv) == 0
        assert run(["explain", "--what", "tsne"] + argv) == 0

    def test_every_stage_runs_at_the_lowest_accepted_settings(self, tmp_path):
        """The load-time checks and the stages' RULES are the only check of
        what the library needs: each command runs at the fewest images,
        epochs and samples they accept, 3 target images a class, and 6 for
        t-SNE, which embeds 4 target test rows."""
        cfg = tmp_path / "lowest.cfg"
        cfg.write_text(LOWEST_CONFIG)
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(tmp_path / "out")]
        for command in (["all"], ["oodtest"], ["explain", "--what", "shap"],
                        ["explain", "--what", "gradcam", "--instance", "2"]):
            assert run(command + argv) == 0, command
        cfg.write_text(LOWEST_CONFIG.replace("target_per_class = 3", "target_per_class = 6"))
        for command in (["all"], ["explain", "--what", "tsne"]):
            assert run(command + argv) == 0, command

    @pytest.mark.parametrize("per_class", [3, 4, 5])
    def test_scarce_target_runs_every_command_but_tsne(self, tmp_path, per_class):
        """3 to 5 target images a class leave 3 test rows: every command runs
        but explain --what tsne, which exits 2 and changes nothing."""
        cfg = tmp_path / "scarce.cfg"
        cfg.write_text(TINY_CONFIG.replace("target_per_class = 10",
                                           f"target_per_class = {per_class}")
                       .replace("k = 8", "k = 0"))
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        for command in (["all"], ["oodtest"], ["explain", "--what", "shap"],
                        ["explain", "--what", "gradcam", "--instance", "2"]):
            assert run(command + argv) == 0, command
        before = tree_bytes(out)
        assert run(["explain", "--what", "tsne"] + argv) == 2
        assert tree_bytes(out) == before

    def test_stages_run_at_values_only_other_stages_rule_out(self, tmp_path):
        """pretrain and synth read neither [fusion] k nor [oodtest] per_class:
        a value ensemble or oodtest rejects leaves their files as they were."""
        trees = []
        for edit in ("", "[fusion]\nk = 500\n", "[oodtest]\nper_class = 2\n"):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(TINY_CONFIG + edit)
            out = tmp_path / f"out{len(trees)}"
            for command in ("pretrain", "synth"):
                assert run([command, "--config", str(cfg), "--seed", "11",
                            "--out", str(out)]) == 0, (command, edit)
            trees.append(tree_bytes(out))
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_finetune_rejects_a_split_with_no_train_rows(self, tmp_path, capsys):
        """At 2 a class and split_fraction 0.01 no class keeps a train row:
        pretrain, which reads no target key, runs; finetune exits 2."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG.replace("target_per_class = 10", "target_per_class = 2")
                       .replace("split_fraction = 0.8", "split_fraction = 0.01"))
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        assert run(["pretrain"] + argv) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert run(["finetune"] + argv) == 2
        assert "leaves a class 0 train row(s)" in capsys.readouterr().err
        assert tree_bytes(out) == before

    def test_explain_instance_out_of_range(self, workdir):
        _, argv = workdir
        assert run(["explain", "--what", "gradcam", "--instance", "999"] + argv) == 2

    def test_failed_explain_creates_no_directory(self, workdir, tmp_path):
        out, argv = workdir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("explain"))
        argv = argv[:argv.index("--out")] + ["--out", str(copy)]
        assert run(["explain", "--what", "gradcam", "--instance", "999"] + argv) == 2
        assert not (copy / "tiny" / "explain").exists()

    def test_failed_rerun_keeps_recorded_file(self, workdir, monkeypatch):
        out, argv = workdir
        assert run(["explain", "--what", "tsne"] + argv) == 0
        rel = "tiny/explain/tsne_seed11.svg"
        recorded = json.loads((out / "manifest.json").read_text())["stages"]["explain"]["files"]

        def fail(*args):
            raise EnfuseError("rendering failed")

        monkeypatch.setattr(explain, "_svg_document", fail)
        assert run(["explain", "--what", "tsne"] + argv) == 3
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == recorded[rel]
        assert list(out.rglob("*.tmp")) == []

    def test_explain_record_grows_until_an_input_changes(self, tiny_all, tmp_path):
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        assert run(["explain", "--what", "shap"] + argv) == 0
        assert run(["explain", "--what", "gradcam"] + argv) == 0
        explain_dir = out / "tiny" / "explain"
        assert len(list(explain_dir.iterdir())) == 1 + 6
        edited = tmp_path / "edited.cfg"
        edited.write_text(TINY_CONFIG.replace("shap_samples = 64", "shap_samples = 32"))
        argv[1] = str(edited)
        assert run(["explain", "--what", "gradcam"] + argv) == 0
        assert sorted(p.name for p in explain_dir.iterdir()) == sorted(
            f"gradcam_{name}_i0_seed11.ppm" for name in cli.BASE_MODEL_NAMES)

    def test_later_stages_read_the_target_split(self, tiny_all, tmp_path, monkeypatch,
                                                capsys):
        """Only finetune draws the target task and extracts its features:
        ensemble, ablate, shap and tsne read finetune's target split, and
        gradcam draws no task (it runs the encoders for their conv maps)."""
        pristine, _ = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        calls = []

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "make_synthetic_task",
                            counting("task", cli.make_synthetic_task))
        for module in (cli, ensemble):
            monkeypatch.setattr(module, "extract_features",
                                counting("features", module.extract_features))
        cfg = tmp_path / "edited.cfg"  # a new method, so ensemble and ablate rerun
        cfg.write_text(TINY_CONFIG.replace("method = concat+pca", "method = concat-only"))
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        for command in (["ensemble"], ["ablate"], ["explain", "--what", "shap"],
                        ["explain", "--what", "tsne"], ["explain", "--what", "gradcam"]):
            capsys.readouterr()
            assert run(command + argv) == 0
            assert skipped_stages(capsys.readouterr().out) == set()
            assert calls.count("task") == 0, command
            if command[-1] != "gradcam":
                assert calls.count("features") == 0, command
        cfg.write_text(TINY_CONFIG.replace("epochs = 8", "epochs = 2"))  # [finetune]
        assert run(["finetune"] + argv) == 0
        assert calls.count("task") == 1
        assert calls.count("features") == 2 * len(cli.BASE_MODEL_NAMES)

    def test_oodtest(self, workdir):
        out, argv = workdir
        assert run(["oodtest"] + argv) == 0
        text = (out / "tiny" / "oodtest" / "oodtest_seed11.csv").read_text()
        assert "pretrained," in text and "random," in text and "margin," in text

    def test_second_oodtest_skips(self, workdir, capsys):
        _, argv = workdir
        assert run(["oodtest"] + argv) == 0
        capsys.readouterr()
        assert run(["oodtest"] + argv) == 0
        assert skipped_stages(capsys.readouterr().out) == {"oodtest"}

    def test_arms_boost_together_and_forests_draw_without_choice(self, tiny_all, tmp_path,
                                                                monkeypatch):
        """ablate boosts its six leave-one-out arms in one `fit_gbt` call and
        oodtest its pretrained and random arms in one. Each forest draws its
        bootstraps in one `Generator.integers` call and its feature ranks in
        one `Generator.random` call per level, and never calls `choice`."""
        pristine, _ = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        boosted, in_rf, fits = [], [], []
        real_gbt, real_rf = ensemble.fit_gbt, ensemble.fit_rf

        def counting_gbt(xs, ys):
            boosted.append(len(xs))
            return real_gbt(xs, ys)

        def marked_rf(*args, **kwargs):
            in_rf.append(True)
            fits.append(collections.Counter())
            try:
                return real_rf(*args, **kwargs)
            finally:
                in_rf.pop()

        class CountingGenerator(np.random.Generator):
            def _count(self, name):
                if in_rf:
                    fits[-1][name] += 1

            def choice(self, *args, **kwargs):
                self._count("choice")
                return super().choice(*args, **kwargs)

            def integers(self, *args, **kwargs):
                self._count("integers")
                return super().integers(*args, **kwargs)

            def random(self, *args, **kwargs):
                self._count("random")
                return super().random(*args, **kwargs)

        monkeypatch.setattr(ensemble, "fit_gbt", counting_gbt)
        monkeypatch.setattr(ensemble, "fit_rf", marked_rf)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
        cfg = tmp_path / "edited.cfg"  # a new k, so ensemble and ablate rerun; every arm
        cfg.write_text(TINY_CONFIG.replace("k = 8", "k = 6"))  # fuses to 6 columns
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        assert run(["ensemble"] + argv) == 0
        assert boosted == [1, 1]  # the configured method's ensemble, then concat-only's
        for command, sets in (("ablate", len(cli.BASE_MODEL_NAMES)), ("oodtest", 2)):
            boosted.clear()
            assert run([command] + argv) == 0
            assert boosted == [sets], command
        assert fits
        for calls in fits:
            assert calls["integers"] == 1, calls
            assert 1 <= calls["random"] <= classifiers.RF_MAX_DEPTH, calls
            assert calls["choice"] == 0, calls

    def test_oodtest_hashes_each_frozen_weight_once(self, tiny_all, tmp_path, monkeypatch):
        """The digests before the fits come from the finetune record, which
        run_stage has just checked; only the check after the fits hashes."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        hashed, inside = [], [False]
        real_hash, real_oodtest = cli.file_sha256, cli.cmd_oodtest

        def counting_hash(path):
            if inside[0] and Path(path).parent.name == "finetune":
                hashed.append(Path(path).name)
            return real_hash(path)

        def oodtest(*args, **kwargs):
            inside[0] = True
            try:
                return real_oodtest(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(cli, "file_sha256", counting_hash)
        monkeypatch.setattr(cli, "cmd_oodtest", oodtest)
        assert run(["oodtest", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
        assert sorted(hashed) == sorted(f"{name}.bin" for name in cli.BASE_MODEL_NAMES)

    def test_oodtest_weights_changed_during_the_fits_exit_4(self, tiny_all, tmp_path,
                                                             monkeypatch):
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        real_fit = cli.fit_arm

        def tampering_fit(*args, **kwargs):
            weights = out / "tiny" / "finetune" / f"{cli.BASE_MODEL_NAMES[-1]}.bin"
            weights.write_bytes(weights.read_bytes() + b"\0")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_arm", tampering_fit)
        assert run(["oodtest", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 4

    def test_synth_writes_images(self, workdir):
        out, argv = workdir
        assert run(["synth"] + argv) == 0
        images = list((out / "tiny" / "synth").rglob("*.ppm"))
        assert len(images) == 6 * 4 + 8 * 3 + 10 * 3


class TestFailureModes:
    def test_missing_prerequisite_stage(self, tmp_path):
        assert run(["finetune", "--out", str(tmp_path / "fresh"), "--seed", "1"]) == 3

    def test_one_error_class_per_exit_code(self):
        """`run` gives each error class its own exit code (2, 4, and 3 for the
        base class), so a new class must come with its own `except` clause."""
        assert set(EnfuseError.__subclasses__()) == {ConfigError, IntegrityError}
        assert ConfigError.__subclasses__() == IntegrityError.__subclasses__() == []
        caught = {node.type.id for node in ast.walk(ast.parse(inspect.getsource(cli.run)))
                  if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)}
        assert {"ConfigError", "IntegrityError", "EnfuseError"} <= caught

    def test_negative_seed_exits_before_any_stage(self, tmp_path, capsys):
        """NumPy seeds only from whole numbers >= 0; argparse rejects the rest
        before anything is trained or written."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_:
            run(["all", "--config", str(cfg), "--out", str(out), "--seed", "-1"])
        assert exit_.value.code == 2
        assert "argument --seed: -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_not_a_directory_exits_2(self, tmp_path, capsys, below):
        """An `--out` that is a regular file, or lies under one, is one error
        line and exit 2, not a traceback."""
        file = tmp_path / "f"
        file.write_text("keep")
        out = file / "sub" if below else file
        assert run(["all", "--out", str(out), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} is not a usable directory")
        assert err.count("\n") == 1
        assert file.read_text() == "keep"

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[bogus]\nx=1\n")
        assert run(["pretrain", "--config", str(cfg),
                    "--out", str(tmp_path / "o"), "--seed", "1"]) == 2

    @pytest.mark.parametrize("command, text", [
        (["all"], "[fusion]\nmethod = concat+foo\n"),
        (["all"], "[fusion]\nmethod = concat+lda\n"),  # a removed method
        (["all"], "[pretrain]\nepochs = -3\n"),
        (["all"], "[pretrain]\ntemperature = 0\n"),
        (["all"], "[pretrain]\naugment_blur_kernel = 4\n"),
        (["all"], "[oodtest]\nkind = shapes9\n"),
        (["all"], "[data]\ntarget_per_class = 6\n"),  # 14 train rows for the default k = 16
        (["ensemble"], "[data]\ntarget_per_class = 6\n"),
        # 144 train rows, but ablate without a 24-wide encoder keeps 96 columns
        (["all"], "[data]\ntarget_per_class = 60\n[fusion]\nk = 100\n"),
        (["ablate"], "[data]\ntarget_per_class = 60\n[fusion]\nk = 100\n"),
        (["all"], "[task]\nname =\n"),
        (["all"], "[task]\nname = .\n"),
        (["all"], "[task]\nname = ..\n"),
        (["all"], "[task]\nname = ../escape\n"),
        (["all"], "[task]\nname = /tmp/escape\n"),
        (["all"], "[task]\nname = a/b\n"),
        (["all"], "[data]\nimage_size = 20\n"),  # variant C and an SSL head pool four times
        (["all"], "[data]\nimage_size = 24\n"),
        # a class of the train split keeps 1 row; GNB needs 2
        (["all"], "[data]\ntarget_per_class = 2\n[fusion]\nk = 0\n"),
        (["all"], "[data]\ntarget_per_class = 10\nsplit_fraction = 0.1\n[fusion]\nk = 0\n"),
        (["oodtest"], "[oodtest]\nper_class = 2\n"),
        # 3 a class leave 3 target test rows; explain --what tsne needs 4
        (["explain", "--what", "tsne"], "[data]\ntarget_per_class = 3\n[fusion]\nk = 0\n"),
        # the default 20 a class leave 12 target test rows
        (["explain", "--what", "gradcam", "--instance", "12"], ""),
        (["explain", "--what", "shap", "--instance", "-1"], ""),
        # past the finite top of their intervals; the split rules would overflow on them
        (["all"], f"[data]\ntarget_per_class = {2**64}\n"),
        (["all"], f"[oodtest]\nper_class = {2**68}\n"),
    ], ids=["fusion-method", "fusion-method-removed", "epochs", "temperature",
            "blur-kernel-even", "oodtest-kind",
            "fusion-k-above-train-rows", "ensemble-fusion-k-above-train-rows",
            "fusion-k-above-ablate-columns", "ablate-fusion-k-above-ablate-columns",
            "task-empty", "task-dot", "task-dotdot", "task-parent", "task-absolute",
            "task-nested", "image-size-20", "image-size-24", "target-split-2-per-class",
            "target-split-fraction-0.1", "oodtest-split-2-per-class",
            "target-test-split-3-rows", "gradcam-instance-12", "shap-instance-negative",
            "target-per-class-2**64", "oodtest-per-class-2**68"])
    def test_bad_config_exits_before_any_stage(self, tmp_path, command, text):
        """Each command checks the values at load and its own stages' RULES
        before any of them runs."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run(command + ["--config", str(cfg), "--out", str(out), "--seed", "1"]) == 2
        assert list(out.iterdir()) == []

    def test_every_rule_names_a_stage_and_is_reached_by_its_commands(self, tmp_path,
                                                                     monkeypatch):
        """A misspelt key in cli.RULES would drop its rule without a word."""
        assert set(cli.RULES) <= (set(cli.STAGES) - {"explain"}) | set(cli.EXPLAIN_REQUIRES)
        reached: list[str] = []
        monkeypatch.setattr(cli, "RULES", {key: lambda config, args, key=key: reached.append(key)
                                           for key in cli.RULES})

        def no_stage(out):  # the rules ran; stop before any stage does
            raise IntegrityError("stop")

        monkeypatch.setattr(cli, "load_manifest", no_stage)
        by_command = {}
        for command in [*cli.STAGES, "all"]:
            for what in cli.EXPLAIN_REQUIRES if command == "explain" else ["gradcam"]:
                reached.clear()
                assert run([command, "--what", what, "--out", str(tmp_path / "o")]) == 4
                by_command[command if command != "explain" else what] = list(reached)
        assert by_command == {"pretrain": [], "finetune": ["finetune"], "ensemble": ["ensemble"],
                              "ablate": ["ablate"], "gradcam": ["gradcam"], "shap": ["shap"],
                              "tsne": ["tsne"], "oodtest": ["oodtest"], "synth": [],
                              "all": ["finetune", "ensemble", "ablate"]}
        assert {key for keys in by_command.values() for key in keys} == set(cli.RULES)

    def test_changed_seed_rejected(self, workdir, capsys):
        out, argv = workdir
        cfg_idx = argv.index("--seed")
        changed = argv[:cfg_idx] + ["--seed", "99"] + argv[cfg_idx + 2:]
        before = (out / "manifest.json").read_bytes()
        capsys.readouterr()
        assert run(["ensemble"] + changed) == 3
        err = capsys.readouterr().err
        assert "'finetune'" in err
        assert "'pretrain'" in err  # the seed is an input of the whole chain
        assert (out / "manifest.json").read_bytes() == before

    def test_stage_after_a_stale_stage_rejected(self, workdir, tmp_path, capsys):
        """finetune reads no [pretrain] key, but it reads pretrain's files."""
        out, argv = workdir
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG.replace("ssl_epochs = 2", "ssl_epochs = 1"))
        changed = argv[:]
        changed[argv.index("--config") + 1] = str(cfg)
        before = (out / "manifest.json").read_bytes()
        capsys.readouterr()
        assert run(["ensemble"] + changed) == 3
        err = capsys.readouterr().err
        assert "'finetune'" in err
        assert "'pretrain'" in err  # the stage whose config value changed
        assert (out / "manifest.json").read_bytes() == before

    def test_corruption_detected(self, workdir):
        out, argv = workdir
        target = out / "tiny" / "ablate" / "ablation_seed11.csv"
        original = target.read_bytes()
        try:
            target.write_bytes(original + b"tampered")
            assert run(["ablate"] + argv) == 4
        finally:
            target.write_bytes(original)

    @pytest.mark.parametrize("listed", ["../victim", "{root}/victim", "a/../../victim",
                                        "./../victim"])
    def test_manifest_listing_a_file_outside_out_rejected(self, tmp_path, listed):
        victim, out = tmp_path / "victim", tmp_path / "out"
        victim.write_text("keep")
        out.mkdir()
        rel = listed.format(root=tmp_path)
        (out / "manifest.json").write_text(json.dumps({"stages": {"synth": {"files": {rel: ""}}}}))
        assert run(["synth", "--out", str(out), "--seed", "1"]) == 4
        assert victim.read_text() == "keep"

    @pytest.mark.parametrize("record", [
        {"inputs": {"config": {}, "stages": {}}, "files": {}},
        {"inputs": [], "files": {}},
        {"inputs": {"seed": 1, "config": [], "stages": {}}, "files": {}},
        {"inputs": {"seed": 1, "config": {}, "stages": []}, "files": {}},
        {"inputs": {"seed": 1, "config": {}, "stages": {}}, "files": "tl_A.bin"},
    ], ids=["no-seed", "inputs-list", "config-list", "stages-list", "files-string"])
    @pytest.mark.parametrize("command", ["finetune", "synth"])
    def test_malformed_manifest_record_exits_4_before_any_stage(self, tmp_path, record, command):
        out = tmp_path / "out"
        out.mkdir()
        manifest = json.dumps({"stages": {"pretrain": record}})
        (out / "manifest.json").write_text(manifest)
        assert run([command, "--out", str(out), "--seed", "1"]) == 4
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == manifest

    def test_record_not_listing_the_files_later_stages_read_is_stale(self, tmp_path,
                                                                     capsys):
        """A well-formed pretrain record that lists no weights does not hold:
        finetune exits 3 and names pretrain, where reading the missing
        weights would end in a traceback."""
        out = tmp_path / "out"
        out.mkdir()
        record = {"inputs": {"seed": 1, "config": {}, "stages": {}}, "files": {}}
        (out / "manifest.json").write_text(json.dumps({"stages": {"pretrain": record}}))
        capsys.readouterr()
        assert run(["finetune", "--out", str(out), "--seed", "1"]) == 3
        assert "stage 'pretrain' has not run" in capsys.readouterr().err

    def test_finetune_record_without_target_split_is_stale(self, tiny_all, tmp_path, capsys):
        """A finetune record written before finetune saved target.bin: ensemble
        exits 3 and names finetune, and `all` reruns finetune."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["stages"]["finetune"]["files"]["tiny/finetune/target.bin"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "tiny" / "finetune" / "target.bin").unlink()
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        capsys.readouterr()
        assert run(["ensemble"] + argv) == 3
        err = capsys.readouterr().err
        assert "stage 'finetune' has not run" in err and "'pretrain'" not in err
        assert run(["all"] + argv) == 0
        assert "finetune" not in skipped_stages(capsys.readouterr().out)
        assert tree_bytes(out) == tree_bytes(pristine)

    def test_tree_with_old_weights_names_reruns_from_pretrain(self, tiny_all, tmp_path,
                                                               capsys):
        """A tree written by a version that named the weights `<name>.weights`:
        its pretrain and finetune records lack the `.bin` files later stages
        read, so they are stale. Finetune exits 3 naming pretrain, and `all`
        reruns pretrain, deletes the old files and writes the fresh tree."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for stage in ("pretrain", "finetune"):
            files = manifest["stages"][stage]["files"]
            for name in cli.BASE_MODEL_NAMES:
                rel = f"tiny/{stage}/{name}.bin"
                (out / rel).rename(out / rel.replace(".bin", ".weights"))
                files[rel.replace(".bin", ".weights")] = files.pop(rel)
        for record in manifest["stages"].values():  # as that version recorded them
            record["inputs"]["stages"] = {needed: cli._files_digest(manifest, needed)
                                          for needed in record["inputs"]["stages"]}
        (out / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        capsys.readouterr()
        assert run(["finetune"] + argv) == 3
        assert "stage 'pretrain' has not run" in capsys.readouterr().err
        assert run(["all"] + argv) == 0
        assert skipped_stages(capsys.readouterr().out) == set()
        assert not list(out.rglob("*.weights"))
        assert tree_bytes(out) == tree_bytes(pristine)

    def test_listed_file_that_cannot_be_read_exits_4(self, tiny_all, tmp_path, capsys):
        """A record whose inputs hold but which lists a directory: reading it
        is an integrity error naming the path, not a traceback."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["pretrain"]["files"]["tiny/pretrain"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["finetune", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 4
        assert "cannot read output file tiny/pretrain:" in capsys.readouterr().err

    def test_listed_file_that_cannot_be_deleted_exits_4(self, tmp_path, capsys):
        """A replaced record that lists a directory: deleting it is an
        integrity error naming the path, not a traceback."""
        out = tmp_path / "out"
        (out / "d").mkdir(parents=True)
        (out / "manifest.json").write_text(json.dumps({"stages": {"synth": {"files": {"d": ""}}}}))
        capsys.readouterr()
        assert run(["synth", "--seed", "1", "--out", str(out)]) == 4
        assert "cannot delete output file d:" in capsys.readouterr().err

    def test_malformed_target_split_exits_4(self, tiny_all, tmp_path):
        """A target.bin whose hash its record holds, but whose labels are not
        classes, fails the loader of every stage that reads it."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        path, rel = out / "tiny" / "finetune" / "target.bin", "tiny/finetune/target.bin"
        header, arrays = artifact.unpack(path.read_bytes(), TARGET_MAGIC, "target split")
        names = [rec["name"] for rec in header["arrays"]]
        arrays[names.index("labels:test")][0] = 7
        path.write_bytes(artifact.pack(TARGET_MAGIC, header, arrays))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["finetune"]["files"][rel] = hashlib.sha256(
            path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
        for command in (["ensemble"], ["explain", "--what", "gradcam"]):
            assert run(command + argv) == 4, command

    def test_stale_lock_removed(self, workdir):
        out, argv = workdir
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped: its pid now names no process
        lock = out / ".lock"
        lock.write_text(str(child.pid))
        try:
            assert run(["ensemble"] + argv) == 0
            assert not lock.exists()
        finally:
            lock.unlink(missing_ok=True)

    def test_lock_file_blocks(self, workdir):
        out, argv = workdir
        lock = out / ".lock"
        lock.write_text("")
        try:
            assert run(["ensemble"] + argv) == 3
        finally:
            if lock.exists():
                lock.unlink()


class TestIncremental:
    """An `all` after an edit reruns exactly the stages whose recorded inputs
    changed, and leaves the tree a fresh `all` with the edit would write."""

    @pytest.mark.parametrize("edit, seed, skipped, first", [
        (("method = concat+pca", "method = concat-only"), "11", {"pretrain", "finetune"}, []),
        (("target_per_class = 10", "target_per_class = 6"), "11", {"pretrain"}, []),
        (("epochs = 8", "epochs = 2"), "11", {"pretrain"}, []),  # [finetune] epochs
        (("ssl_epochs = 2", "ssl_epochs = 1"), "11", set(), []),
        (None, "12", set(), []),
        # all runs neither oodtest nor explain, yet their stale records and files go
        (("name = tiny", "name = renamed"), "11", set(),
         [["oodtest"], ["explain", "--what", "tsne"]]),
    ], ids=["fusion-method", "target-per-class", "finetune-epochs", "ssl-epochs", "seed",
            "task-name-after-oodtest-and-explain"])
    def test_incremental_all_equals_fresh(self, tiny_all, tmp_path, capsys, edit, seed,
                                          skipped, first):
        pristine, pristine_cfg = tiny_all
        text = TINY_CONFIG
        if edit is not None:
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
        cfg = tmp_path / "edited.cfg"
        cfg.write_text(text)
        incremental, fresh = tmp_path / "incremental", tmp_path / "fresh"
        shutil.copytree(pristine, incremental)
        for command in first:  # with the config and seed of the pristine tree
            assert run(command + ["--config", str(pristine_cfg), "--seed", "11",
                                  "--out", str(incremental)]) == 0
        argv = ["all", "--config", str(cfg), "--seed", seed, "--out"]
        capsys.readouterr()
        assert run(argv + [str(incremental)]) == 0
        assert skipped_stages(capsys.readouterr().out) == skipped
        assert run(argv + [str(fresh)]) == 0
        assert tree_bytes(incremental) == tree_bytes(fresh)

    def test_stage_in_no_chain_keeps_the_other_records(self, tiny_all, tmp_path, capsys):
        """synth requires no stage and no stage requires it: at a new seed it
        drops nothing, and the seed-11 stages stay current."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        before = set(json.loads((out / "manifest.json").read_text())["stages"])
        weights = [out / "tiny" / stage / f"{name}.bin" for stage in ("pretrain", "finetune")
                   for name in cli.BASE_MODEL_NAMES]
        assert run(["synth", "--config", str(cfg), "--seed", "12", "--out", str(out)]) == 0
        assert set(json.loads((out / "manifest.json").read_text())["stages"]) == before | {
            "synth"}
        assert all(path.exists() for path in weights)
        capsys.readouterr()
        assert run(["all", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
        assert skipped_stages(capsys.readouterr().out) == before

    def test_rerun_deletes_what_only_the_old_record_listed(self, tmp_path):
        """Under a new task name, synth writes a new directory; the old one goes."""
        cfg, renamed = tmp_path / "tiny.cfg", tmp_path / "renamed.cfg"
        cfg.write_text(TINY_CONFIG)
        renamed.write_text(TINY_CONFIG.replace("name = tiny", "name = renamed"))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["synth", "--config", str(renamed), "--out", str(out)]) == 0
        assert run(["synth", "--config", str(renamed), "--out", str(fresh)]) == 0
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_manifest_without_inputs_reruns_every_stage(self, tiny_all, tmp_path, capsys):
        """A manifest in the older format, with a whole-config snapshot and
        records of files only, counts as recording no stage."""
        pristine, cfg = tiny_all
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        manifest = json.loads((out / "manifest.json").read_text())
        older = {"version": manifest["version"], "config": {"seed": "11"},
                 "stages": {stage: {"files": record["files"]}
                            for stage, record in manifest["stages"].items()}}
        (out / "manifest.json").write_text(json.dumps(older))
        capsys.readouterr()
        assert run(["all", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
        assert skipped_stages(capsys.readouterr().out) == set()
        assert tree_bytes(out) == tree_bytes(pristine)


@pytest.fixture
def blas():
    """The getter of NumPy's OpenBLAS thread count; the count is 2 during the
    test and restored after it."""
    found = cli._openblas_threads()
    if found is None:
        pytest.skip("NumPy here bundles no OpenBLAS that ctypes finds")
    get, set_ = found
    original = get()
    set_(2)
    yield get
    set_(original)


class TestBlasThreads:
    def synth_argv(self, tmp_path):
        return ["synth", "--out", str(tmp_path / "o"), "--seed", "1"]

    def record_threads(self, monkeypatch, get):
        """Wrap cmd_synth to record the thread count the stage runs with."""
        seen = []
        original = cli.cmd_synth

        def wrapped(*args, **kwargs):
            seen.append(get())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "cmd_synth", wrapped)
        return seen

    def test_stage_runs_on_one_thread_and_count_restored(self, blas, monkeypatch, tmp_path):
        seen = self.record_threads(monkeypatch, blas)
        assert run(self.synth_argv(tmp_path)) == 0
        assert seen == [1]
        assert blas() == 2

    def test_count_restored_after_config_error(self, blas, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[bogus]\nx=1\n")
        assert run(self.synth_argv(tmp_path) + ["--config", str(cfg)]) == 2
        assert blas() == 2

    def test_count_restored_after_exception(self, blas, monkeypatch, tmp_path):
        def crash(*args, **kwargs):
            raise RuntimeError("stage crashed")

        monkeypatch.setattr(cli, "cmd_synth", crash)
        with pytest.raises(RuntimeError, match="stage crashed"):
            run(self.synth_argv(tmp_path))
        assert blas() == 2

    def test_no_op_without_a_library(self, blas, monkeypatch, tmp_path):
        seen = self.record_threads(monkeypatch, blas)
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        assert run(self.synth_argv(tmp_path)) == 0
        assert seen == [2]
        assert blas() == 2
