"""Seeded lint corpus for the ``lint-tree`` workload.

Builds a package tree shaped like ``src/repro`` (subpackages of
modules with classes, helpers and cross-module imports and calls) and
plants a known set of findings in it.  The benchmark lints the corpus
and compares what the analyzer reports with what was planted.  The
corpus has a fixed size, so adding files to the repository does not
change the workload.

Planted findings (rule id, what is written):

- HL001: a raw ``.data`` read of a buffer argument;
- HL005: a ``threading.Thread`` built outside the runner;
- HL006: a bare ``except:`` that passes;
- HL007: a pool block acquired and never released in scope;
- HL009: a pool handle returned by a helper in *another module* and
  dropped by the caller (found only through the project index);
- HLS01: a ``# lint: disable=`` comment that silences nothing.

Each module also carries correctly suppressed findings and clean near
misses, which must *not* be reported.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

__all__ = ["PACKAGES", "MODULES_PER_PACKAGE", "generate"]

PACKAGES = ("core", "io", "sched", "viz")
MODULES_PER_PACKAGE = 16
FILLER_FUNCTIONS = 7


def _filler(rng: random.Random, name: str, callees: list[str]) -> list[str]:
    """A plain function: loops, a comprehension, calls into other modules."""
    a, b = rng.randint(2, 9), rng.randint(10, 99)
    lines = [
        f"def {name}(values, scale={a}):",
        f'    """Fold ``values`` into a summary (generated filler)."""',
        "    total = 0.0",
        "    seen = {}",
        "    for i, v in enumerate(values):",
        f"        if i % {a} == 0:",
        "            total += v * scale",
        "        else:",
        f"            total -= v / {b}",
        "        seen[i % 7] = seen.get(i % 7, 0) + 1",
        "    keys = sorted(k for k in seen if seen[k] > 1)",
        "    table = {k: seen[k] * scale for k in keys}",
    ]
    for callee in callees:
        lines.append(f"    total += {callee}(keys, scale)")
    lines += [
        "    while total > 1e6:",
        "        total /= 2.0",
        "    return total if keys else -total",
        "",
        "",
    ]
    return lines


def _class(rng: random.Random, idx: int) -> list[str]:
    n = rng.randint(3, 8)
    return [
        f"class Worker{idx}:",
        f'    """A small stateful helper (generated)."""',
        "",
        "    def __init__(self, size):",
        "        self.size = int(size)",
        f"        self.items = [0] * {n}",
        "",
        "    def push(self, value):",
        "        self.items.append(value)",
        "        if len(self.items) > self.size:",
        "            self.items.pop(0)",
        "        return len(self.items)",
        "",
        "    def mean(self):",
        "        if not self.items:",
        "            return 0.0",
        "        return sum(self.items) / len(self.items)",
        "",
        "",
    ]


#: Planted snippets by rule: (lines, index of the flagged line).
def _plants(tag: str) -> dict[str, tuple[list[str], int]]:
    return {
        "HL001": ([
            f"def raw_read_{tag}(buf):",
            "    return buf.data",
        ], 1),
        "HL005": ([
            f"def spawn_{tag}(fn):",
            "    worker = threading.Thread(target=fn)",
            "    worker.start()",
            "    return worker",
        ], 1),
        "HL006": ([
            f"def swallow_{tag}(work):",
            "    try:",
            "        work()",
            "    except:",
            "        pass",
        ], 3),
        "HL007": ([
            f"def leak_{tag}(resource, nbytes):",
            "    pool = pool_for(resource)",
            "    pool.acquire(nbytes)",
            "    return nbytes",
        ], 2),
        "HLS01": ([
            f"def stale_{tag}(values):",
            "    return sorted(values)  # lint: disable=HL001",
        ], 1),
    }


#: Present in every module and never reported: suppressed findings
#: and near misses.
def _quiet(tag: str) -> list[str]:
    return [
        f"def suppressed_{tag}(buf):",
        "    return buf.data  # lint: disable=HL001",
        "",
        "",
        f"def balanced_{tag}(resource, nbytes):",
        "    pool = pool_for(resource)",
        "    hit = pool.acquire(nbytes)",
        "    pool.release(nbytes)",
        "    return hit",
        "",
        "",
        f"def handled_{tag}(work, log):",
        "    try:",
        "        work()",
        "    except ValueError as exc:",
        "        log(exc)",
        "",
        "",
    ]


def generate(root: Path, seed: int) -> set[tuple[str, int, str]]:
    """Write the corpus under ``root`` (replacing it); return the planted
    findings as ``(path relative to root, line, rule)``."""
    rng = random.Random(seed)
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    top = root / "app"
    modules = [
        (pkg, f"m{i:02d}") for pkg in PACKAGES
        for i in range(MODULES_PER_PACKAGE)
    ]
    funcs = {m: [f"f{j}_{m[0]}_{m[1]}" for j in range(FILLER_FUNCTIONS)]
             for m in modules}
    expected: set[tuple[str, int, str]] = set()
    top.mkdir(parents=True)
    (top / "__init__.py").write_text('"""Generated lint corpus."""\n')
    for pkg in PACKAGES:
        (top / pkg).mkdir()
        (top / pkg / "__init__.py").write_text(f'"""Package {pkg}."""\n')

    # Every module exports a pool-returning helper; a few callers in
    # other modules drop its handle (cross-module HL009).
    for pkg, mod in modules:
        tag = f"{pkg}_{mod}"
        others = [m for m in modules if m != (pkg, mod)]
        imported = rng.sample(others, 3)
        lines = [
            f'"""Generated module {pkg}.{mod} (seed {seed})."""',
            "",
            "import threading",
            "",
            "from repro.hamr.pool import pool_for",
        ]
        for opkg, omod in imported:
            names = ", ".join(
                [funcs[opkg, omod][0], f"make_pool_{opkg}_{omod}"]
            )
            lines.append(f"from app.{opkg}.{omod} import {names}")
        lines += ["", "", f"def make_pool_{tag}(resource, nbytes):",
                  "    pool = pool_for(resource)",
                  "    pool.acquire(nbytes)",
                  "    return pool", "", ""]
        callees = [funcs[m][0] for m in imported]
        for j, name in enumerate(funcs[pkg, mod]):
            picked = rng.sample(callees, rng.randint(0, 2)) if j else []
            lines += _filler(rng, name, picked)
            if j % 3 == 1:
                lines += _class(rng, j)
        lines += _quiet(tag)
        plants = _plants(tag)
        for rule in sorted(plants):
            if rng.random() < 0.35:
                body, flagged = plants[rule]
                expected.add(
                    (f"app/{pkg}/{mod}.py", len(lines) + flagged + 1, rule)
                )
                lines += body + ["", ""]
        if rng.random() < 0.35:
            opkg, omod = imported[0]
            lines += [
                f"def drop_handle_{tag}(resource, nbytes):",
                f"    handle = make_pool_{opkg}_{omod}(resource, nbytes)",
                "    return nbytes",
                "",
                "",
            ]
            expected.add((f"app/{pkg}/{mod}.py", len(lines) - 3, "HL009"))
        (top / pkg / f"{mod}.py").write_text("\n".join(lines).rstrip() + "\n")
    return expected
