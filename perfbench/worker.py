"""One benchmark pass, in a fresh interpreter.

Usage::

    python3 perfbench/worker.py INPUTS.json [--trace]
    python3 perfbench/worker.py --import-time

A pass runs every op of INPUTS.json once, one at a time, and times each
op; outputs are checked against the references and oracles in the inputs
only after the clock stops.  The pass prints one JSON object on stdout.
With ``--trace`` the engine's layer functions are wrapped first (see
:mod:`layers`) and the per-layer metrics are added to the output.
``--import-time`` prints the seconds needed to import the modules a CLI
call needs, measured from a bare interpreter.

Normalized time.  On a shared 2-vCPU virtual machine the speed of the CPU
was seen to change by up to 1.7x within seconds, and its average over a
40 s run by 25% between runs, so raw wall times of separate runs cannot be
compared within a useful bound.  A fixed stdlib-only kernel
(:func:`calibrate`) is therefore timed right before and right after every
op (and right after the imports), and each measured time is rescaled by
``CAL_REF_S / kernel seconds``: a normalized second is a second on a
machine where the kernel takes :data:`CAL_REF_S`.  The raw wall times are
reported next to the normalized ones.
"""

from __future__ import annotations

import time  # the only module imported before the import-time clock starts
import sys

SETUP_MODULES = ("g2forms.catalog", "g2forms.gstruct", "g2forms.exterior", "g2forms.liealg")
CAL_REF_S = 0.01
CAL_ITERATIONS = 4000


def calibrate() -> float:
    """Seconds taken by a fixed Fraction-arithmetic kernel, with gc paused.

    The kernel does the same kind of work as the engine (small-rational
    arithmetic in pure Python) but none of its code, so an engine change
    cannot move it; pausing gc keeps the engine's heap size out of it.
    """
    import gc
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CAL_ITERATIONS):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _import_time() -> None:
    start = time.perf_counter()
    for name in SETUP_MODULES:
        __import__(name)
    seconds = time.perf_counter() - start
    print(seconds, seconds * CAL_REF_S / calibrate())


def _run_op(op: dict, engine: dict):
    """The timed part of one op; returns what the checks need."""
    catalog, exterior, gstruct = engine["catalog"], engine["exterior"], engine["gstruct"]
    kind = op["kind"]
    if kind == "verify":
        return catalog.verify_case(op["case"])
    if kind == "load_verify":
        return catalog.verify_case(catalog.load_case(op["path"]))
    if kind == "g2":
        phi = exterior.parse_form(op["form"], 7, 3)
        return gstruct.g2_torsion_report(engine["flat7"], phi)
    if kind == "su3":
        omega = exterior.parse_form(op["omega"], 6, 2)
        psi = exterior.parse_form(op["psi"], 6, 3)
        return gstruct.su3_check(engine["flat6"], omega, psi)
    raise ValueError(f"unknown op kind {kind!r}")


def _check_case(op: dict, report) -> list:
    """Compare a case report with the seed's (status, computed) per check index."""
    reference = op["reference"]
    problems = []
    if report.case_id != op["case"]:
        problems.append(f"report is for case {report.case_id!r}")
    if len(report.results) != len(reference):
        problems.append(f"{len(report.results)} checks, reference has {len(reference)}")
    for index, (result, (status, computed)) in enumerate(zip(report.results, reference)):
        if result.status == "mismatch":
            problems.append(f"check {index} ({result.check}) reports mismatch")
        if (result.status, result.computed) != (status, computed):
            problems.append(f"check {index} ({result.check}) differs from the seed reference")
    return problems


def _check_g2(op: dict, report) -> list:
    from fractions import Fraction

    expect = op["expect"]
    definiteness = report.definiteness
    problems = []
    got = {
        "verdict": definiteness.verdict,
        "orientation": definiteness.orientation,
        "minors": [str(m) for m in definiteness.minors],
        "closed": report.closed,
        "coclosed": report.coclosed,
        "classification": report.classification,
    }
    for key, value in got.items():
        if value != expect[key]:
            problems.append(f"{key}: got {value!r}, oracle {expect[key]!r}")
    if report.definite != (expect["verdict"] == "definite"):
        problems.append("definite flag disagrees with the oracle verdict")
    b = [[Fraction(x) for x in row] for row in expect["b"]]
    signs = set()
    for value, vec in definiteness.witnesses:
        quad = sum(vec[i] * b[i][j] * vec[j] for i in range(7) for j in range(7))
        if quad != Fraction(value) or not any(vec):
            problems.append(f"witness with B(v,v) = {value} fails the oracle B")
        signs.add((quad > 0) - (quad < 0))
    needed = {"indefinite": {-1, 1}, "degenerate": {0}}.get(expect["verdict"], set())
    if signs != needed:
        problems.append(f"witness signs {sorted(signs)}, oracle needs {sorted(needed)}")
    return problems


def _check_su3(op: dict, report) -> list:
    from fractions import Fraction

    expect = op["expect"]
    problems = []
    if report.lam != Fraction(expect["lambda"]):
        problems.append(f"lambda {report.lam}, oracle {expect['lambda']}")
    if report.flags() != expect["flags"]:
        problems.append(f"flags {report.flags()}, oracle {expect['flags']}")
    return problems


CHECKS = {"verify": _check_case, "load_verify": _check_case, "g2": _check_g2, "su3": _check_su3}


def run_pass(ops: list, trace: bool) -> dict:
    import resource

    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    from g2forms import catalog, exterior, gstruct
    from g2forms.liealg import HomogeneousSpaceData

    engine = {
        "catalog": catalog,
        "exterior": exterior,
        "gstruct": gstruct,
        "flat7": HomogeneousSpaceData(7, [], {}),
        "flat6": HomogeneousSpaceData(6, [], {}),
    }
    outcomes, op_seconds, scales = [], [], []
    kernel = [calibrate()]  # kernel[k] and kernel[k + 1] bracket op k
    layer_s = {}  # normalized self seconds per traced function
    for op in ops:
        before = dict(tracer.self_s) if tracer else {}
        start = time.perf_counter()
        try:
            outcomes.append((_run_op(op, engine), None))
        except Exception as exc:  # an engine error is a failed op, not a crash
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        op_seconds.append(time.perf_counter() - start)
        kernel.append(calibrate())
        scales.append(2 * CAL_REF_S / (kernel[-2] + kernel[-1]))
        for key, value in before.items():
            layer_s[key] = layer_s.get(key, 0.0) + (tracer.self_s[key] - value) * scales[-1]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = []
    for index, (op, (result, error)) in enumerate(zip(ops, outcomes)):
        problems = [error] if error else CHECKS[op["kind"]](op, result)
        if problems:
            failures.append({"op": index, "case": op.get("case", op["kind"]), "problems": problems})
    out = {
        "pass_s": sum(t * k for t, k in zip(op_seconds, scales)),
        "pass_wall_s": sum(op_seconds),
        "op_s": op_seconds,
        "kernel_s": kernel,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = {f"{key}.self_s": value for key, value in layer_s.items()}
        out["layers"].update(tracer.counts())
    return out


def main(argv: list) -> int:
    if argv == ["--import-time"]:
        _import_time()
        return 0
    import json

    trace = "--trace" in argv
    paths = [a for a in argv if a != "--trace"]
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(paths[0], encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    print(json.dumps(run_pass(ops, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
