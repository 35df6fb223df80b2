"""The g2forms benchmark: three closed-loop workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalog|dense-basis|pointwise \\
        --seed N --seconds S --trace 0|1

One client sends one op at a time.  Every pass over a workload's inputs
runs in a fresh interpreter (``worker.py``), because users run one
``g2forms verify --all`` per process: no pass can reuse engine state from an
earlier one.  Passes repeat while the next one is expected to end within
``--seconds`` (at least :data:`MIN_PASSES`).  Every op's output is checked
against the seed reference (``reference.json``) or an exact oracle
(``workloads.py``), so a fast wrong answer counts as a failed op.

``--trace 0`` reports the end-to-end metrics, all medians over the run:

* ``pass_s``: normalized seconds of one pass (the ops only);
* ``setup_s``: normalized seconds to import the modules a CLI call needs,
  in a fresh interpreter, :data:`SETUP_PER_PASS` interpreters after every
  pass;
* ``peak_rss_mb``: peak resident memory of the process running a pass.

Normalized seconds are wall seconds rescaled by the speed of a fixed
calibration kernel timed around each op (see ``worker.py``); the raw wall
medians are printed and recorded too, as ``pass_wall_s`` and
``setup_wall_s``.

The share of failed ops, ``fail_share``, is printed by name and reported
as ``failed`` / ``attempted``; it is 0 when the engine is right.

``--trace 1`` alternates untraced and traced passes (see ``layers.py``) and
reports, per pass, each wrapped function's normalized self time and call
count, the count metrics, and ``trace_overhead``, traced over untraced
``pass_s``.

Each run writes a record to ``perfbench/results/`` (Python version, CPU
count, git sha, source digest, seed, load average, every sample) and
prints one JSON object as its last line.  The run exits non-zero without
a result when the engine sources are missing or a pass process crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CASE_DIR = SRC / "g2forms" / "catalog" / "cases"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

MIN_PASSES = 3
# import-time samples taken after each untraced pass, so that set-up is
# sampled across the whole run rather than in one burst
SETUP_PER_PASS = 3
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, crashed pass)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, hence same counts, every pass
    return env


def _child(args: list) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_pass(inputs: Path, trace: bool) -> dict:
    return json.loads(_child([str(inputs)] + (["--trace"] if trace else [])).splitlines()[-1])


def make_ops(workload: str, seed: int, work: Path) -> list:
    reference = workloads.load_reference()
    if workload == "catalog":
        return workloads.catalog_ops(reference)
    if workload == "dense-basis":
        return workloads.dense_basis_ops(reference, CASE_DIR, work, seed)
    return workloads.pointwise_ops(seed)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "g2forms").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD of the checkout, or None outside a git work tree (see source_sha256)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _metric(value: float, unit: str, samples: list) -> dict:
    return {"value": value, "unit": unit, "samples": len(samples), "raw": samples}


def end_to_end(passes: list, setup: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw wall-clock medians beside them."""
    pass_s = [p["pass_s"] for p in passes]
    setup_s = [normalized for _, normalized in setup]
    rss = [p["peak_rss_mb"] for p in passes]
    pass_wall = [p["pass_wall_s"] for p in passes]
    setup_wall = [wall for wall, _ in setup]
    return {
        "pass_s": _metric(statistics.median(pass_s), "s", pass_s),
        "setup_s": _metric(statistics.median(setup_s), "s", setup_s),
        "peak_rss_mb": _metric(statistics.median(rss), "MB", rss),
    }, {
        "pass_wall_s": _metric(statistics.median(pass_wall), "s", pass_wall),
        "setup_wall_s": _metric(statistics.median(setup_wall), "s", setup_wall),
    }


def per_layer(untraced: list, traced: list) -> tuple[dict, bool]:
    """Medians of self times; counts from the traced passes, which must agree."""
    out = {}
    repeat = True
    for name in layers.metric_names():
        values = [p["layers"][name] for p in traced]
        if name.endswith(".self_s"):
            out[name] = _metric(statistics.median(values), "s", values)
        else:
            repeat = repeat and len(set(values)) == 1
            out[name] = _metric(values[0], "count", values)
    ratio = statistics.median(p["pass_s"] for p in traced) / statistics.median(
        p["pass_s"] for p in untraced)
    pairs = [t["pass_s"] / u["pass_s"] for t, u in zip(traced, untraced)]
    out["trace_overhead"] = _metric(ratio, "ratio", pairs)
    return out, repeat


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "g2forms" / "__init__.py").is_file() or not CASE_DIR.is_dir():
        raise BenchError(f"engine sources not found under {SRC}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "loadavg_start": os.getloadavg(),
    }
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = make_ops(workload, seed, work)
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps({"ops": ops}), encoding="utf-8")
        if workload == "dense-basis":
            record["density"] = {
                op["case"]: {"before": op["density_before"], "after": op["density_after"]}
                for op in ops
            }
        if not trace:
            _child(["--import-time"])  # warm-up: byte-compiles the sources once
        untraced, traced, setup = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(inputs, False))
            if trace:
                traced.append(run_pass(inputs, True))
            else:
                setup += [tuple(map(float, _child(["--import-time"]).split()))
                          for _ in range(SETUP_PER_PASS)]
            elapsed = time.perf_counter() - start
            next_pass = elapsed / len(untraced)
            if len(untraced) >= MIN_PASSES and elapsed + next_pass > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    all_passes = untraced + traced
    failures = [f for p in all_passes for f in p["failures"]]
    record["attempted"] = sum(p["attempted"] for p in all_passes)
    record["failed"] = len(failures)
    record["failures"] = failures[:20]
    record["ops_per_pass"] = len(ops)
    record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    record["op_names"] = [op.get("case", op["kind"]) for op in ops]
    record["op_s"] = [p["op_s"] for p in untraced]
    record["kernel_s"] = [p["kernel_s"] for p in untraced]
    if trace:
        record["metrics"], record["counts_repeat"] = per_layer(untraced, traced)
    else:
        record["metrics"], record["wall"] = end_to_end(untraced, setup)
    record["loadavg_end"] = os.getloadavg()
    return record


def report(record: dict) -> dict:
    """Print the human-readable summary; return the one-line result object."""
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['passes']['untraced']} untraced + {record['passes']['traced']} traced "
          f"passes of {record['ops_per_pass']} ops")
    for name, m in {**record["metrics"], **record.get("wall", {})}.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"  {'fail_share':52s} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for failure in record["failures"]:
        print(f"  FAILED op {failure['op']} ({failure['case']}): {'; '.join(failure['problems'])}")
    if record["trace"] and not record["counts_repeat"]:
        print("  WARNING: count metrics differ between traced passes")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = report(record)
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
