"""Checks that the benchmark, BENCHMARK.json and the enfuse source agree.

    python3 perfbench/selfcheck.py [SAVED_OUTPUT ...]

Run from the repository root. Exits 1 and lists the problems when:
- a metric the benchmark prints is not declared in BENCHMARK.json, or is
  declared with another unit, or a declared metric is never printed;
- the workloads differ from the declared ones;
- a traced function path no longer resolves (a rename must fail here, not
  silently drop a layer from the trace);
- the last line of a saved benchmark output has other metric names than the
  ones declared for its mode.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402


def declared_units(section: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in section}


def compare(label: str, printed: dict[str, str], declared: dict[str, str]) -> list[str]:
    problems = [f"{label}: {n} is printed but not declared" for n in printed
                if n not in declared]
    problems += [f"{label}: {n} is declared but never printed" for n in declared
                 if n not in printed]
    problems += [f"{label}: {n} unit {printed[n]!r} != declared {declared[n]!r}"
                 for n in printed if n in declared and printed[n] != declared[n]]
    return problems


def main(paths: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = declared_units(bench["end_to_end"])
    layer = declared_units(bench["per_layer"])
    problems = compare("end_to_end", run.END_TO_END, e2e)
    problems += compare("per_layer", {n: spans.layer_unit(n)[0] for n in spans.LAYER_METRICS},
                        layer)
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    problems += [f"per_layer: {n} better {spans.layer_unit(n)[1]!r} != declared {better[n]!r}"
                 for n in spans.LAYER_METRICS if n in better
                 and spans.layer_unit(n)[1] != better[n]]
    workloads = sorted(w["name"] for w in bench["workloads"])
    if workloads != sorted(run.WORKLOADS):
        problems.append(f"workloads {sorted(run.WORKLOADS)} != declared {workloads}")
    problems += [f"trace target {m}" for m in spans.check_targets()]
    for path in paths:
        try:
            last = Path(path).read_text().strip().splitlines()[-1]
            names = set(json.loads(last)["metrics"])
        except (OSError, IndexError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path}: no benchmark result on its last line ({exc})")
            continue
        if names not in (set(e2e), set(layer)):
            extra = sorted(names - set(e2e) - set(layer))
            problems.append(f"{path}: metric names match neither declared set"
                            + (f" (undeclared: {extra})" if extra else ""))
    for p in problems:
        print(p)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
