#!/usr/bin/env python3
"""gkspec benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload verify|semidirect|spectra \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/gkspec.  One closed-loop
client: the run spawns a fresh worker process per round (perfbench/
worker.py), each round runs the workload's whole seeded operation stream
one operation after another, and rounds follow one another until S
seconds have passed.  Only the standard library is used.

The package is copied (Python sources and data only) into a directory
under .bench_build/perfbench that belongs to this run and is removed at
its end, and imported from there, so a stray compiled extension under
src/ is never picked up and every round runs the pure
backend.  Each round's answers are checked (see workloads.py); the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END):

    wall_s       median over rounds of worker spawn to exit
    setup_s      median of spawn until gkspec is imported and inputs loaded,
                 over the rounds and SETUP_ROUNDS processes that only set up
    peak_rss_mb  median of the worker's peak resident set
    correct_frac operations answered correctly, over operations attempted
    ops_per_s    median of operations per second of the operation phase
    op_p50_ms    each operation's median latency over the rounds, then
    op_p99_ms    the median and 99th percentile of those over the stream

For verify the latency metrics time one whole `gkspec verify` run as
the operation, while correct_frac counts its 26 checks; for the other
workloads an operation is one query.  With
--trace 1 the run measures untraced rounds, then traced rounds (spans.py)
for the per-layer metrics, then the same on the compiled backend, built
with gcc from src/gkspec/_speedups.c into another copy (the extension is
cached in .bench_build/perfbench/ext-cache); without gcc or the C file
the compiled metrics read 0 and compiled.available is 0.  The spans of
the last pure traced round are kept in .bench_build/perfbench/spans-*.
The line before the result is the run's identity: commit, Python
version, backend, CPU count and database hash.

The end-to-end times and the wall times among the per-layer metrics are
seconds at a fixed host speed.  The host's speed drifts by up to a third
within minutes, and that drift, not the program, would set the spread
between runs.  So each round also times a fixed piece of reference work
every 20 ms (worker.Calibration), and its times are scaled by the mean of
REFERENCE_S over each of those samples, with the reference work's own
time taken out.  The samples fall evenly in time, so the mean weighs
each stretch of the round by its length.  Span times are not scaled, and
trace.coverage_frac divides them by the round's raw wall time.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import CACHES, LAYERS, layer_name  # noqa: E402
from workloads import WORKLOADS, Verify  # noqa: E402

ROUND_TIMEOUT_S = 150
# worker processes per untraced run that only set up, so that setup_s is a
# median over many set-ups on every workload; they run first, which also
# warms the file cache before the timed rounds
SETUP_ROUNDS = 20
# worker.reference_work's median time on the host the bounds were set on
# (2 shared vCPUs); times are reported at that speed
REFERENCE_S = 0.0007
MIN_ROUNDS = 2
CHECK_IDS = Verify(0).check_ids

# name -> (unit, better); every workload reports all of them
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "correct_frac": ("frac", "higher"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
}


def per_layer_metrics() -> dict:
    """name -> (unit, better) for every per-layer metric."""
    out = {}
    for module, path in LAYERS:
        name = layer_name(module, path)
        out[name + ".calls"] = ("count", "lower")
        out[name + ".self_s"] = ("s", "lower")
    out["core.psl2_order_counts.matrices"] = ("count", "lower")
    for _, _, prefix in CACHES:
        out[prefix + ".cache_hit_ratio"] = ("ratio", "higher")
    for check_id in CHECK_IDS:
        out[f"verify.{check_id}.s"] = ("s", "lower")
    out.update(
        {
            "trace.untraced_wall_s": ("s", "lower"),
            "trace.traced_wall_s": ("s", "lower"),
            "trace.overhead_frac": ("frac", "lower"),
            "trace.coverage_frac": ("frac", "higher"),
            "trace.spans": ("count", "lower"),
            "compiled.available": ("count", "higher"),
            "compiled.wall_s": ("s", "lower"),
            "compiled.core.gf_mul.self_s": ("s", "lower"),
            "compiled.core.psl2_order_counts.self_s": ("s", "lower"),
        }
    )
    return out


@dataclass
class Round:
    backend_expected: str
    wall: float
    rss_mb: float
    exit_code: int
    stdout: str
    raw_wall: float = 0.0
    setup: float = 0.0
    ops_per_s: float = 0.0
    latency: list = field(default_factory=list)
    results: list | None = None
    backend: str | None = None
    trace: dict | None = None


# -- staging the package ------------------------------------------------------


def _copy_package(src: Path, dest: Path):
    """Python sources and data files of the package, nothing compiled."""
    skip = {".so", ".pyd", ".c", ".pyx", ".pyc"}
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix not in skip and "__pycache__" not in path.parts:
            target = dest / path.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)


def stage_pure(src: Path, build: Path) -> Path:
    tree = build / "pure"
    _copy_package(src, tree / "gkspec")
    compileall.compile_dir(str(tree), quiet=1)
    return tree


def stage_compiled(src: Path, build: Path, cache: Path) -> tuple[Path | None, str]:
    """A package copy with the C kernel built in, or (None, why not)."""
    c_file = src / "_speedups.c"
    gcc = shutil.which("gcc")
    if not c_file.is_file():
        return None, "src/gkspec/_speedups.c is absent"
    if gcc is None:
        return None, "gcc is not installed"
    tree = build / "compiled"
    _copy_package(src, tree / "gkspec")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256(c_file.read_bytes() + suffix.encode()).hexdigest()[:16]
    cached = cache / f"_speedups-{digest}{suffix}"
    if not cached.exists():
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(".tmp")
        cmd = [gcc, "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
               str(c_file), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            return None, "gcc failed: " + proc.stderr.strip()[-300:]
        tmp.replace(cached)
    shutil.copyfile(cached, tree / "gkspec" / f"_speedups{suffix}")
    compileall.compile_dir(str(tree), quiet=1)
    return tree, ""


# -- rounds -----------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GKSPEC"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_and_wait(cmd, stdout, stderr, cwd):
    """(wall seconds, exit code, rusage) of one child process."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=_child_env(), cwd=cwd)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(ROUND_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, time.monotonic() - t0, proc.returncode, usage


def run_round(workload, tree: Path, inputs: Path, build: Path, trace: bool, backend: str,
              setup_only: bool = False) -> Round:
    out = build / "round.json"
    for stale in (out, build / "round.stdout"):
        stale.unlink(missing_ok=True)
    mode = "setup" if setup_only else "1" if trace else "0"
    cmd = [sys.executable, str(HERE / "worker.py"), str(tree), workload.name,
           str(inputs), str(out), mode]
    with open(build / "round.stdout", "w+", encoding="utf-8") as stdout, \
            open(build / "round.stderr", "w", encoding="utf-8") as stderr:
        t0, wall, code, usage = _spawn_and_wait(cmd, stdout, stderr, build)
        stdout.seek(0)
        text = stdout.read()
    r = Round(backend, wall, usage.ru_maxrss / 1024, code, text, raw_wall=wall)
    try:
        record = json.loads(out.read_text("utf-8"))
    except (OSError, ValueError):
        return r
    # seconds at the reference speed, without the reference work's own time
    scale = statistics.fmean(REFERENCE_S / c for c in record["calibration"])
    r.wall = (wall - record["spent"]) * scale
    r.setup = (record["setup_done"] - t0 - record["setup_spent"]) * scale
    r.latency = [x * scale for x in record["latency"]]
    r.results = record["results"]
    r.backend = record["backend"]
    r.trace = record.get("trace")
    if "op_end" not in record:  # a round that only set up
        return r
    span = (record["op_end"] - record["op_start"] - record["op_spent"]) * scale
    r.ops_per_s = len(r.latency) / span if span > 0 else 0.0
    return r


def run_rounds(workload, tree, inputs, build, trace, backend, budget_s, min_rounds):
    """Rounds back to back while another one still fits in budget_s."""
    rounds = []
    start = time.monotonic()
    while len(rounds) < min_rounds or (
        time.monotonic() - start + statistics.median(r.wall for r in rounds) <= budget_s
    ):
        rounds.append(run_round(workload, tree, inputs, build, trace, backend))
    return rounds


# -- metrics ----------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(rounds: list[Round], setups: list[Round], correct_frac: float) -> dict:
    """End-to-end metrics over the rounds of a run.

    Every round runs the same operations in the same order: each
    operation's latency is its median over the rounds, and p50/p99 are
    taken over the operations.  A workload of one operation per round
    (verify) takes them over the rounds instead.
    """
    n = max(len(r.latency) for r in rounds)
    full = [r.latency for r in rounds if len(r.latency) == n]
    latency = [statistics.median(op) for op in zip(*full)] if n > 1 else sum(full, [])
    p99 = statistics.quantiles(latency, n=100, method="inclusive")[98] if len(latency) >= 2 else 0.0
    return {
        "wall_s": _median([r.wall for r in rounds]),
        "setup_s": _median([r.setup for r in rounds + setups]),
        "peak_rss_mb": _median([r.rss_mb for r in rounds]),
        "correct_frac": correct_frac,
        "ops_per_s": _median([r.ops_per_s for r in rounds]),
        "op_p50_ms": _median(latency) * 1000,
        "op_p99_ms": p99 * 1000,
    }


def _layer_values(r: Round) -> dict:
    """Per-layer metrics of one traced round (layers it never reached read 0)."""
    t = r.trace or {"layers": {}, "caches": {}, "matrices": 0, "spans": 0}
    out = {}
    covered = 0.0
    for module, path in LAYERS:
        name = layer_name(module, path)
        calls, self_s, _ = t["layers"].get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
        covered += self_s
    out["core.psl2_order_counts.matrices"] = t["matrices"]
    for _, _, prefix in CACHES:
        hits, misses = t["caches"].get(prefix, (0, 0))
        out[prefix + ".cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for check_id in CHECK_IDS:
        out[f"verify.{check_id}.s"] = t["layers"].get("verify." + check_id, (0, 0.0, 0.0))[2]
    out["trace.coverage_frac"] = covered / r.raw_wall
    out["trace.spans"] = t["spans"]
    return out


def per_layer(passes: dict) -> dict:
    traced = passes["traced"]
    per_round = [_layer_values(r) for r in traced]
    out = {name: _median([v[name] for v in per_round]) for name in per_round[0]}
    for name in out:
        if name.endswith((".calls", ".matrices", ".spans")):
            out[name] = int(out[name])
    base = _median([r.wall for r in passes["untraced"]])
    traced_wall = _median([r.wall for r in traced])
    out["trace.untraced_wall_s"] = base
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / base - 1
    out["compiled.available"] = 1 if passes["compiled"] else 0
    out["compiled.wall_s"] = _median([r.wall for r in passes["compiled"]])
    compiled = [_layer_values(r) for r in passes["compiled_traced"]]
    for name in ("core.gf_mul.self_s", "core.psl2_order_counts.self_s"):
        out["compiled." + name] = _median([v[name] for v in compiled])
    return out


# -- identity ---------------------------------------------------------------


def identity(root: Path, src: Path, backend: str | None) -> dict:
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    db = src / "data" / "simple_groups.db"
    source = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        source.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "db_sha256": hashlib.sha256(db.read_bytes()).hexdigest() if db.is_file() else None,
    }


# -- main -------------------------------------------------------------------


def measure(workload, seconds: float, trace: bool, src: Path, build: Path, base: Path):
    """The rounds of one run by pass name, and why the compiled pass is absent."""
    inputs = build / f"inputs-{workload.name}.json"
    inputs.write_text(json.dumps(workload.inputs()), encoding="utf-8")
    pure = stage_pure(src, build)
    if not trace:
        start = time.monotonic()
        setups = [run_round(workload, pure, inputs, build, False, "pure", setup_only=True)
                  for _ in range(SETUP_ROUNDS)]
        budget = seconds - (time.monotonic() - start)
        rounds = run_rounds(workload, pure, inputs, build, False, "pure", budget, MIN_ROUNDS)
        return {"setup": setups, "untraced": rounds}, ""
    passes = {
        "untraced": run_rounds(workload, pure, inputs, build, False, "pure", seconds / 3, 1),
        "traced": run_rounds(workload, pure, inputs, build, True, "pure", seconds / 3, 1),
        "compiled": [],
        "compiled_traced": [],
    }
    for suffix in (".spans", ".spans.json"):
        if (build / f"round.json{suffix}").exists():
            shutil.copyfile(build / f"round.json{suffix}", base / f"spans-{workload.name}{suffix}")
    tree, why = stage_compiled(src, build, base / "ext-cache")
    if tree is not None:
        passes["compiled"] = run_rounds(
            workload, tree, inputs, build, False, "compiled", seconds / 6, 1
        )
        passes["compiled_traced"] = [run_round(workload, tree, inputs, build, True, "compiled")]
    return passes, why


def gate(workload, rounds: list[Round]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every round of the run."""
    first = next((r.results for r in rounds if r.results is not None), None)
    expected = workload.expected(first) if first is not None else None
    attempted = workload.op_count * len(rounds)
    failed = sum(workload.failures(r, expected) for r in rounds)
    ok = all(r.exit_code == 0 and r.backend == r.backend_expected for r in rounds)
    return attempted, failed, ok and failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src" / "gkspec"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no gkspec package at {src}", file=sys.stderr)
        return 2
    base = root / ".bench_build" / "perfbench"
    build = base / f"run-{os.getpid()}"  # private to this run, removed at its end
    build.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        passes, why = measure(workload, args.seconds, bool(args.trace), src, build, base)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    setups = passes.pop("setup", [])
    rounds = [r for rs in passes.values() for r in rs]
    attempted, failed, correct = gate(workload, rounds)
    correct = correct and all(r.exit_code == 0 and r.setup > 0 for r in setups)
    if args.trace:
        metrics, units = per_layer(passes), per_layer_metrics()
    else:
        metrics, units = end_to_end(rounds, setups, 1 - failed / attempted), END_TO_END
    ident = identity(root, src, passes["untraced"][0].backend)
    if why:
        ident["compiled"] = "absent: " + why
    print("perfbench identity " + json.dumps(ident, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    (base / f"last-{args.workload}.json").write_text(
        json.dumps({"identity": ident, "rounds": len(rounds), **result}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
