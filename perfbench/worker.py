"""One benchmark round: a fresh process that imports gkspec and runs one workload.

    python perfbench/worker.py TREE WORKLOAD INPUTS OUT MODE

TREE is the directory holding the gkspec package to measure, INPUTS the
JSON inputs run.py generated (ignored for verify), OUT the JSON file this
process writes its timings and canonical answers to, and MODE 0 to run
the workload, 1 to run it recording spans (see spans.py), or setup to
set up and exit without running an operation.  The verify workload runs
the package's own ``__main__`` exactly as ``python -m gkspec verify
--json`` does, so its report goes to standard output, and is timed as one
operation.  The other workloads' operations run one after another on the
one thread; each is timed around the call into gkspec only.

The host's speed drifts by a third within minutes, so a round also
measures it: an interval timer runs a fixed piece of reference work every
CALIBRATION_PERIOD_S, and the round reports how long each run of it took.
run.py scales the round's times by the mean of the reference time over
each of those, so every time is in seconds at one fixed host speed.  The
time the reference work itself takes is left out of every time the round
reports.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import time

CALIBRATION_PERIOD_S = 0.02


def canon(value) -> str:
    """Compact canonical text of an answer; long answers become a digest."""
    text = json.dumps(value, separators=(",", ":"))
    if len(text) <= 200:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def reference_work(n: int = 5000) -> int:
    """A fixed mix of integer arithmetic, branches and dict stores."""
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        if acc & 7 == 0:
            acc += len(table)
    return acc


class Calibration:
    """Times reference_work every CALIBRATION_PERIOD_S of the round."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the handler has taken so far

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 0.001, CALIBRATION_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_verify(record):
    import runpy

    import gkspec.cli  # noqa: F401  (part of set-up, as for the installed command)
    from gkspec import verify

    calibration = record["calibration"]
    record["setup_done"] = time.monotonic()
    record["setup_spent"] = calibration.spent
    if record["setup_only"]:
        return 0
    tracer = record.get("tracer")
    if tracer is not None:
        tracer.install()
        verify.CHECKS = tuple(
            (cid, cite, tracer.wrap("verify." + cid, fn)) for cid, cite, fn in verify.CHECKS
        )
    sys.argv = ["gkspec", "verify", "--json"]
    spent = calibration.spent
    record["op_start"] = time.monotonic()
    try:
        runpy.run_module("gkspec", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    record["op_end"] = time.monotonic()
    record["op_spent"] = calibration.spent - spent
    record["latency"].append(record["op_end"] - record["op_start"] - record["op_spent"])
    sys.stdout.flush()
    return code


def _semidirect_ops(data):
    from gkspec import gf, groups, linact

    configs = data["configs"]
    built = {}

    def field_of(ci):
        return built[ci].field

    def action(ci, u, e):
        f = field_of(ci)
        return linact.LinearAction(f, f.element(u), e)

    def build(ci):
        g = groups.build_gamma_frobenius(*configs[ci])
        built[ci] = g
        return g

    def sdo(ci, v, index):
        g = built[ci]
        h = g.actions[index]
        return linact.semidirect_element_order(g.field.element(v), h), h

    calls = {
        "build": build,
        "sdo": sdo,
        "eo": lambda ci, x: gf.element_order(field_of(ci).element(x)),
        "ao": lambda ci, u, e: linact.action_order(action(ci, u, e)),
        "fsd": lambda ci, u, e: linact.fixed_space_dim(action(ci, u, e)),
        "mp": lambda ci, u, e: linact.minimal_polynomial(action(ci, u, e).matrix()),
    }

    def answer(kind, value):
        if kind == "build":
            return [
                list(value.field.modulus),
                list(value.kernel_generator.coeffs),
                len(value.actions),
                value.frobenius_config,
            ]
        if kind == "sdo":
            order, h = value
            return [order, list(h.mult.coeffs), h.galois_exp]
        if kind == "mp":
            return list(value)
        return value

    return calls, answer


def _spectra_ops(data):
    from gkspec import orderset, primegraph

    def spectrum(gens):
        return orderset.OrderSet.from_generators(gens)

    def graph(vertices, edges):
        return primegraph.PrimeGraph(tuple(vertices), frozenset(tuple(e) for e in edges))

    calls = {
        "members": lambda g: spectrum(g).members(),
        "pi": lambda g: spectrum(g).pi(),
        "sigma": lambda g: spectrum(g).sigma(),
        "product": lambda a, b: orderset.product_spectrum(spectrum(a), spectrum(b)),
        "wreath2": lambda a: orderset.wreath2_spectrum(spectrum(a)),
        "gk": lambda g: primegraph.build_gk(spectrum(g)),
        "cocliques_gk": lambda g: primegraph.build_gk(spectrum(g)).max_cocliques(),
        "cocliques": lambda v, e: graph(v, e).max_cocliques(),
    }

    def answer(kind, value):
        if kind in ("product", "wreath2"):
            return list(value.maximal_elements)
        if kind == "gk":
            return [list(value.vertices), [list(e) for e in sorted(value.edges)]]
        if kind in ("pi",):
            return list(value)
        return value

    return calls, answer


def _run_stream(record, workload, inputs_path):
    with open(inputs_path, encoding="utf-8") as fh:
        data = json.load(fh)
    make = _semidirect_ops if workload == "semidirect" else _spectra_ops
    calls, answer = make(data)
    ops = data["ops"]
    calibration = record["calibration"]
    record["setup_done"] = time.monotonic()
    record["setup_spent"] = calibration.spent
    if record["setup_only"]:
        return 0
    tracer = record.get("tracer")
    if tracer is not None:
        tracer.install()
        calls = {kind: tracer.wrap("op." + kind, fn) for kind, fn in calls.items()}
    latency = record["latency"]
    results = record["results"]
    clock = time.perf_counter
    start_spent = calibration.spent
    record["op_start"] = time.monotonic()
    for op in ops:
        kind = op[0]
        fn = calls[kind]
        spent = calibration.spent
        t0 = clock()
        try:
            value = fn(*op[1:])
        except Exception as exc:  # an error is an answer, checked like any other
            latency.append(clock() - t0 - (calibration.spent - spent))
            results.append(canon({"raise": type(exc).__name__}))
            continue
        latency.append(clock() - t0 - (calibration.spent - spent))
        results.append(canon(answer(kind, value)))
    record["op_end"] = time.monotonic()
    record["op_spent"] = calibration.spent - start_spent
    return 0


def main(argv):
    tree, workload, inputs_path, out_path, mode = argv
    calibration = Calibration()
    calibration.start()
    sys.path.insert(0, tree)
    record = {
        "latency": [],
        "results": [],
        "calibration": calibration,
        "setup_only": mode == "setup",
    }
    if mode == "1":
        from spans import Tracer

        record["tracer"] = Tracer()
    if workload == "verify":
        code = _run_verify(record)
    else:
        code = _run_stream(record, workload, inputs_path)
    import gkspec

    record["backend"] = gkspec.backend_name() if hasattr(gkspec, "backend_name") else "pure"

    tracer = record.pop("tracer", None)
    if tracer is not None:
        record["trace"] = tracer.report(out_path + ".spans")
    calibration.stop()
    record["calibration"] = calibration.samples
    record["spent"] = calibration.spent
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
