"""Shared settings and helpers of the repository benchmark.

Everything here is benchmark-side: where the checkout and its state
live, how seeded config lists are drawn, how child passes are started
and how timings are summarized.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: per-checkout state: the shared model registry and per-run scratch
STATE = os.path.join(ROOT, ".e2ebench")

#: the design every what-if and implement config perturbs (the paper's
#: Table VI case study) and the model family that answers
DESIGN = "face_detection"
MODEL = "gbrt"
#: structural scale of every design the benchmark builds.  Scale 1.0
#: would not fit the runs' time budget (a cold what-if config costs
#: ~0.4 s there, ~0.13 s here), and one scale keeps all workloads on
#: one trained model.
SCALE = 0.35
#: the per-checkout model, trained once by the code under test: the
#: directory is keyed by a digest of the program's sources (see
#: :func:`registry_dir`), so a checkout of other code trains its own
REGISTRY_PREFIX = os.path.join(STATE, f"registry-scale{SCALE}")
#: configs answered per second of ``--seconds`` (a fixed nominal rate,
#: never a measured one: every run of a seed answers the same list)
CONFIGS_PER_SECOND = 7.2
#: whatif_restart answers this many times as many configs (the what-if
#: list, continued): its tail is set by full collections over the large
#: unpickled heap, which land on about one config in ten, so p90 needs
#: more samples beyond it than a cold run's does
RESTART_LIST_FACTOR = 2
#: knob choice counts in the face_detection space are 2, 3 and 4, so
#: lists are a multiple of 12 and every choice appears equally often
BALANCE = 12
#: set-ups per what-if run, each on fresh caches; set-up time is their
#: median
SETUPS = 9
#: what-if configs implemented (untimed) to score the model per run:
#: the list's first balanced block
SCORED_CONFIGS = BALANCE
#: full flows the implement pass of a traced run times: one block
IMPLEMENT_FLOWS = BALANCE
#: configs of the untraced comparison pass of a traced run (its wall
#: time against the traced pass's on the same configs, first block
#: excluded, is the tracing overhead)
OVERHEAD_CONFIGS = 3 * BALANCE
#: hot-region threshold the exploration session uses (percent)
HOT_THRESHOLD = 80.0
#: a child pass that has not finished by then has hung
CHILD_TIMEOUT_S = 150.0


def n_configs(seconds: float) -> int:
    """Size of a run's config list for ``--seconds``."""
    n = max(1, round(seconds * CONFIGS_PER_SECOND / BALANCE))
    return n * BALANCE


def registry_dir() -> str:
    """The registry of the model the code in ``src/repro`` trains.

    Keyed by a digest of every ``*.py`` file under ``src/repro``: the
    registry itself only notices feature, dataset and device changes,
    so a model trained by other code must never be adopted.
    """
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return f"{REGISTRY_PREFIX}-{digest.hexdigest()[:16]}"


def child_env() -> dict:
    """Environment of the processes a run starts: the checkout's ``src``
    on the path, no inherited cache or fault settings, and one string
    hash seed, so every pass of a seed allocates (and collects) alike."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def scratch_dir(tag: str) -> str:
    """A fresh directory under the checkout's state directory."""
    path = os.path.join(STATE, "runs", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# seeded, balanced config lists
# ----------------------------------------------------------------------
def _cost_pairs(wide, second, block: int) -> list[tuple]:
    """The (widest knob, second-widest knob) choices of one block.

    Those two knobs (the top loop's unroll and the image array's
    partitioning) set most of a config's cost, and the last choice of
    each (full unroll, complete partitioning) is the expensive one.
    Full unrolling is paired with complete partitioning, as a designer
    would (an unrolled loop needs every array element at once), and the
    block's fourth complete partitioning goes with a non-full unroll
    that rotates from block to block.  So every block holds the same
    pairs: a third of its configs are expensive, the rest cheap, and
    every choice appears equally often.  (Pairing the two knobs
    independently would make exactly half the configs expensive and
    put the median in the gap between the two clusters.)
    """
    full, complete = wide[-1], second[-1]
    n_full = BALANCE // len(wide)
    n_complete = BALANCE // len(second)
    partial = list(wide[:-1]) * n_full
    paired = partial.pop(block % len(partial))
    rest = [c for c in second[:-1] for _ in range(n_complete)]
    pairs = [(full, complete)] * n_full
    pairs += [(paired, complete)] * (n_complete - n_full)
    pairs += list(zip(sorted(partial), rest))
    return pairs


def balanced_values(knobs, n: int, rng: random.Random,
                    exclude: set | None = None) -> list[tuple]:
    """``n`` distinct knob assignments drawn as Latin-hypercube blocks
    of :data:`BALANCE` configs.

    Within every block each knob's column holds every choice equally
    often, in a seeded order, and the two knobs with the most choices
    hold the fixed pairs of :func:`_cost_pairs`.  Blocks of one list,
    and of any two seeds, so carry the same mix of cheap and expensive
    configs.
    """
    exclude = set(exclude or ())
    widest = sorted(range(len(knobs)), key=lambda j: -len(knobs[j].choices))
    a, b = widest[0], widest[1]
    rows: list[tuple] = []
    while len(rows) < n:
        pairs = _cost_pairs(knobs[a].choices, knobs[b].choices,
                            len(rows) // BALANCE)
        for _attempt in range(100):
            columns = []
            for knob in knobs:
                column = [knob.choices[i % len(knob.choices)]
                          for i in range(BALANCE)]
                rng.shuffle(column)
                columns.append(column)
            rng.shuffle(pairs)
            columns[a] = [x for x, _ in pairs]
            columns[b] = [y for _, y in pairs]
            block = list(zip(*columns))
            if len(set(block)) == BALANCE and not exclude.intersection(block):
                break
        else:
            raise RuntimeError("could not draw a duplicate-free config block")
        rows.extend(block)
        exclude.update(block)
    return rows[:n]


def config_lists(space, seed: int, n: int) -> dict[str, list[tuple]]:
    """The what-if list and the disjoint implement list for ``seed``."""
    whatif = balanced_values(space.knobs, n, random.Random(f"whatif:{seed}"))
    implement = balanced_values(
        space.knobs, n, random.Random(f"implement:{seed}"), set(whatif)
    )
    return {"whatif": whatif, "implement": implement}


# ----------------------------------------------------------------------
# statistics and host diagnostics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def yardstick_ms(repeats: int = 3) -> list[float]:
    """Time a fixed pure-Python loop; a slow host reads high."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        out.append((time.perf_counter() - start) * 1e3)
    return out


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gen2_collections() -> int:
    import gc

    return gc.get_stats()[2]["collections"]


# ----------------------------------------------------------------------
# child passes
# ----------------------------------------------------------------------
class PassFailed(RuntimeError):
    pass


def run_pass(spec: dict, tag: str) -> dict:
    """Run one pass of ``passes.py`` in a fresh interpreter and return
    its result; the child is waited for (and killed on timeout)."""
    work = spec["work_dir"]
    spec_path = os.path.join(work, f"{tag}.spec.json")
    out_path = os.path.join(work, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passes.py"),
           spec_path, out_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass {tag} timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0 or not os.path.exists(out_path):
        tail = "\n".join(output.splitlines()[-20:])
        raise PassFailed(
            f"pass {tag} exited {proc.returncode}:\n{tail}"
        )
    with open(out_path) as fh:
        return json.load(fh)
