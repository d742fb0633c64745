"""Benchmark for the enfuse CLI: the stages a user waits on, end to end.

    python3 perfbench/run.py --workload refit|explain \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It imports the package from `src/` (nothing
is installed), drives the public entry point `enfuse.cli.run(argv)` in this
one process with the default config and `--seed N`, and works in
`.perfbench/` under the root, removing its work directory when done. The last
line of stdout is one JSON object: `{"correct", "attempted", "failed",
"metrics"}`. The lines before it give the machine, each iteration, the
artifact digest, the failure share and, with `--trace 1`, a per-stage table
of layer spans.

Workloads (closed loop, one caller, every iteration in a fresh output tree):

  refit     set-up trains the encoders once (`pretrain`, `finetune`); each
            iteration copies that tree and runs `ensemble`, `ablate`,
            `oodtest`: the fit side of fusion and classifiers and feature
            extraction, no training.
  explain   set-up runs `enfuse all` from an empty tree, the path a user
            runs (encoder training, then `ensemble` and `ablate`); each
            iteration copies that tree and runs SHAP on fixed test rows,
            t-SNE, and Grad-CAM on every test row: the predict side of
            classifiers and single-image conv passes; nothing is fit.

`enfuse all` takes 20-30 s on a shared 2-CPU machine, so as a timed iteration
it would give one sample per run; it is timed as the explain set-up instead,
and training changes show in `setup_s` of both workloads.

End-to-end metrics (`--trace 0`): `setup_s` (process start to the first
timed iteration, so encoder training is in it on both workloads), `wall_s`
and `cpu_s` (own and child CPU seconds) per iteration, and `peak_rss_mb`.
`wall_s` and `cpu_s` are means over the timed iterations; their medians and
the count are printed beside them. On a shared 2-CPU machine the speed flips
between a fast and a slow state that each last tens of seconds (a fixed loop
took 0.044 s or 0.072 s), so the median of a handful of iterations jumps
between the two states while the mean averages them: over five seeds the
run-to-run spread of the mean was 0.13 (refit) and 0.17 (explain), of the
median 0.14 and 0.25. Set-up runs once: it is 15-30 s of encoder training,
and repeating it would not fit the time the runs are given.

Per-layer metrics (`--trace 1`) come from spans around the functions listed
in `spans.HOOKS`, over one full pass: the traced set-up, the first traced
iteration, and the stages the workload does not iterate, run once so every
layer is measured on every workload. Iterations alternate untraced and
traced; `trace.overhead` compares their mean wall times.

The loop stops before an iteration that would end after `--seconds`, but
always times at least one iteration (two with `--trace 1`).

Correctness, checked on every iteration: each invocation exits 0; every file
in the tree's manifest hashes to its manifest entry; the digest over those
hashes equals the first iteration's; and the voted accuracy beats chance
(at seed 42 it must equal the golden file's).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SHAP_INSTANCES = (0, 6)  # fixed test rows
TEST_ROWS = 12           # size of the default config's target test split
N_CLASSES = 3            # classes of the default target task
GOLDEN = ROOT / "tests" / "golden_benchmark_seed42.json"

EXPLAIN_STEPS = (
    [["explain", "--what", "shap", "--instance", str(i)] for i in SHAP_INSTANCES]
    + [["explain", "--what", "tsne"]]
    + [["explain", "--what", "gradcam", "--instance", str(i)] for i in range(TEST_ROWS)])

# name -> (set-up steps, iteration steps, steps traced runs add once at the end)
WORKLOADS = {
    "refit": ([["pretrain"], ["finetune"]],
              [["ensemble"], ["ablate"], ["oodtest"]],
              EXPLAIN_STEPS),
    "explain": ([["all"]], EXPLAIN_STEPS, [["oodtest"]]),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def tree_digest(out: Path) -> str:
    """Re-hash every file the manifest lists; digest over the (path, hash) pairs."""
    manifest = json.loads((out / "manifest.json").read_text())
    entries = []
    for stage in sorted(manifest["stages"]):
        for rel, digest in sorted(manifest["stages"][stage]["files"].items()):
            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            if actual != digest:
                raise ValueError(f"{rel}: manifest says {digest[:12]}, file is {actual[:12]}")
            entries.append(f"{rel}\t{digest}\n")
    if not entries:
        raise ValueError("manifest lists no files")
    return hashlib.sha256("".join(entries).encode()).hexdigest()


def voted_accuracy(out: Path) -> float:
    (path,) = out.glob("*/ensemble/comparison_seed*.csv")
    for line in path.read_text().splitlines():
        stage, _, value = line.split(",")
        if stage == "voted":
            return float(value)
    raise ValueError(f"{path} has no voted row")


def git_commit() -> str:
    """HEAD of a git checkout at ROOT, read without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_block() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in env},
        "commit": git_commit(),
    }


class Bench:
    """Invokes CLI steps, counts attempts and failures, records problems."""

    def __init__(self, cli, tracer, seed: int):
        self.cli, self.tracer, self.seed = cli, tracer, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, argv: list[str], out: Path) -> bool:
        self.attempted += 1
        full = argv + ["--out", str(out), "--seed", str(self.seed)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                code = self.cli.run(full)
            except Exception as exc:  # a crash is a failed invocation, not a dead run
                code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.failed += 1
            self.problems.append(f"enfuse {' '.join(argv)} -> {code}")
            print(f"FAILED: enfuse {' '.join(full)} -> {code}\n"
                  f"{captured.getvalue()[-2000:]}", file=sys.stderr)
        return code == 0

    def run_pass(self, kind: str, steps, out: Path, install=None) -> dict:
        """Invoke steps in order under one root span; stop at the first failure.

        `install` installs the layer hooks and returns an object with
        `remove()`; without it the pass runs untraced.
        """
        installed = install() if install else None
        root = self.tracer.open(f"pass.{kind}")
        t0, c0 = time.perf_counter(), cpu_seconds()
        ok = all(self.invoke(argv, out) for argv in steps)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.tracer.close(root)
        if installed:
            installed.remove()
        return {"root": root, "wall": wall, "cpu": cpu, "ok": ok,
                "steps": len(steps), "traced": installed is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "enfuse" / "cli.py").is_file():
        print(f"error: no enfuse source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from enfuse import cli

    import spans

    if args.trace:
        missing = spans.check_targets()
        if missing:
            print("error: traced functions no longer resolve:\n  " + "\n  ".join(missing),
                  file=sys.stderr)
            return 2

    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, Bench(cli, spans.Tracer(), args.seed), spans, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench: Bench, spans, work: Path) -> int:
    setup_steps, iter_steps, once_steps = WORKLOADS[args.workload]
    tracer = bench.tracer

    def install():
        return spans.Patches(tracer, spans.HOOKS)

    traced = install if args.trace else None
    base = work / "base"
    base.mkdir()
    setup = bench.run_pass("setup", setup_steps, base, traced)
    setup_s = time.perf_counter() - T_START
    if not setup["ok"]:
        print("error: set-up failed; nothing to time", file=sys.stderr)
        return 1

    iters, digests = [], []
    loop_start = time.perf_counter()
    while True:
        i = len(iters)
        out = work / f"iter{i}"
        shutil.copytree(base, out)
        it = bench.run_pass("iter", iter_steps, out, traced if i % 2 else None)
        iters.append(it)
        if it["ok"]:
            try:
                digests.append(tree_digest(out))
                problem = None if digests[-1] == digests[0] else "tree differs from the first"
            except (OSError, ValueError, KeyError) as exc:
                problem = f"tree fails verification: {exc}"
            if problem:
                bench.failed += it["steps"]
                bench.problems.append(f"iteration {i}: {problem}")
        if i:
            shutil.rmtree(work / f"iter{i - 1}")
        elapsed = time.perf_counter() - loop_start
        if (len(iters) >= (2 if args.trace else 1)
                and elapsed + statistics.median([x["wall"] for x in iters]) > args.seconds):
            break
    last = work / f"iter{len(iters) - 1}"

    once = None
    if args.trace:
        once = bench.run_pass("once", once_steps, last, traced)
        if once["ok"]:
            try:
                tree_digest(last)
            except (OSError, ValueError, KeyError) as exc:
                bench.problems.append(f"after the once-only stages: {exc}")

    acc = None
    try:
        acc = voted_accuracy(last)
        if not acc > 1.0 / N_CLASSES:
            bench.problems.append(f"voted accuracy {acc} does not beat chance")
        if args.seed == 42 and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text())["combined_voted"]
            if acc != golden:
                bench.problems.append(f"seed 42 voted accuracy {acc} != golden {golden}")
    except (OSError, ValueError) as exc:
        bench.problems.append(f"voted accuracy unreadable: {exc}")
    correct = not bench.problems and bench.failed == 0

    timed = [x for x in iters if not x["traced"]]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.mean(x["wall"] for x in timed),
        "cpu_s": statistics.mean(x["cpu"] for x in timed),
        "peak_rss_mb": peak_rss_mb(),
    }

    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"setup {setup_s:.3f} s ({len(setup_steps)} invocations"
          f"{', traced' if setup['traced'] else ''})")
    for i, x in enumerate(iters):
        print(f"iteration {i}{' traced' if x['traced'] else ''}: "
              f"wall {x['wall']:.3f} s cpu {x['cpu']:.3f} s")
    print(f"untraced iterations n={len(timed)}: median wall "
          f"{statistics.median([x['wall'] for x in timed]):.4f} s, median cpu "
          f"{statistics.median([x['cpu'] for x in timed]):.4f} s")
    print("end-to-end: " + ", ".join(f"{k} {e2e[k]:.4f} {unit}"
                                     for k, unit in END_TO_END.items()))
    print(f"voted_acc {acc}")
    print(f"digest {args.workload} seed {args.seed} sha256 {digests[0] if digests else None}")
    share = bench.failed / bench.attempted
    print(f"failed {bench.failed} of {bench.attempted} invocations ({share:.1%})")
    for problem in bench.problems:
        print(f"problem: {problem}")

    if args.trace:
        passes = {setup["root"], once["root"],
                  next(x["root"] for x in iters if x["traced"])}
        layer = spans.layer_metrics(tracer, passes)
        overhead = statistics.mean(x["wall"] for x in iters if x["traced"]) / e2e["wall_s"] - 1
        layer["trace.overhead"] = overhead
        layer["ensemble.voted_acc"] = acc if acc is not None else 0.0
        print(f"trace overhead {overhead:+.2%} of the untraced wall_s")
        print_breakdown(spans.stage_breakdown(tracer, passes))
        idle = [n for n in spans.LAYER_METRICS if n.endswith(".calls") and not layer.get(n)]
        if idle:
            print("warning: traced functions never called: " + ", ".join(idle))
        write_spans(tracer, passes, args)
        metrics = {name: {"value": layer.get(name, 0), "unit": spans.layer_unit(name)[0]}
                   for name in spans.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def print_breakdown(table) -> None:
    print("spans per stage: calls, inclusive s, self s, rows per call")
    for stage in sorted(table):
        print(f"  {stage}")
        for name, (calls, incl, self_s, rows) in sorted(table[stage].items(),
                                                         key=lambda kv: -kv[1][2]):
            per_call = f"{rows / calls:9.1f}" if rows else ""
            print(f"    {name:44s} {calls:7d} {incl:9.4f} {self_s:9.4f} {per_call}")


def write_spans(tracer, passes, args) -> None:
    """Spans of the traced passes as JSON lines, beside the work directories."""
    roots = tracer.root_of()
    path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as f:
        for sid, span in enumerate(tracer.spans):
            if roots[sid] in passes:
                counts = {k: v for k, v in (span.counts or {}).items() if k != "key"}
                f.write(json.dumps({"id": sid, "parent": span.parent, "name": span.name,
                                    "start": span.start, "end": span.end,
                                    **({"counts": counts} if counts else {})}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
