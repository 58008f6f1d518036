"""balancelab's benchmark: one workload per run, outputs checked, metrics as JSON.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 perfbench/run.py --workload sweep_gradmod --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``sweep_gradmod``, ``method_matrix`` and
``evaluate_file``; ``--workload all`` runs the three one after another in one
process (``peak_rss_mb`` is then the process peak so far). The load is a
closed loop with one caller: library calls run one after another in this
process, ``jobs=1``, no extra threads, in whole rounds of calls until
``--seconds`` have passed. An op is one cell, or one checkpoint
evaluation; the ops of a multi-cell call share its time. The seed becomes the
config's master ``seed`` (and the dataset seed of ``evaluate_file``), so the
program only sees generated inputs. Tune on any seed; confirm a claimed gain
on the held-out seed ``HELD_OUT_SEED``.

``BENCHMARK.json`` lists ``sweep_gradmod`` and ``evaluate_file`` only;
``method_matrix`` runs on request. One round of it (40 cells) takes about
40 s, and on a 2-core VM whose speed drifts, three workloads cannot each get
runs long enough to keep their time spreads inside the bounds within an hour
of benchmark runs.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: import time plus the median of ``SETUP_REPEATS`` set-ups, each
  parsing the config, writing the workload's files and running one warm-up
  call of one op; the first comes before the timed rounds, the others are
  spread between them (their time is not counted as timed);
- ``ops_per_s``: correct ops per second of time spent inside ops;
- ``op_s_p50`` and ``op_s_tail``: median op time, and the op time at the
  highest percentile that still has ten ops beyond it (percentile and sample
  count go to the detail line);
- ``peak_rss_mb``: peak resident memory of the process;
- ``ok_frac``: ops that passed their checks over ops attempted.

``--trace 1`` sets up once with tracing on, then repeats the first round
until ``--seconds`` have passed, each call once untraced and once traced
(their outputs must match byte for byte), and prints per-layer figures (see
``tracer.py``) for one set-up plus one round, and ``trace.overhead_frac``.

Every call's outputs are checked: finite accuracy and imbalance, Shapley
efficiency, and, at ``RECORDED_SEED`` on the numpy/BLAS build the digests
were recorded with, sha256 digests from ``expected.json``. Any failure makes
the run print ``"correct": false`` and exit 1. ``--record-digests`` rewrites
the digests for a workload after a deliberate change of results.

Host drift: a fixed numpy loop that does not use the package is timed before
and after each run and stored beside the results, never used to rescale them.
Work files go to ``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")

RECORDED_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_package():
    """Import balancelab from this checkout's ``src/``, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "balancelab", "__init__.py")):
        print(f"error: no balancelab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import balancelab

    if os.path.dirname(os.path.abspath(balancelab.__file__)) != os.path.join(SRC, "balancelab"):
        print(f"error: imported balancelab from {balancelab.__file__}", file=sys.stderr)
        sys.exit(2)


# --- environment stamp and drift probe ----------------------------------------


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, "r", encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().strip()
    return None


def _openblas_runtime():
    """Core name, config string and thread count of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"core": corename().decode(), "config": config().decode(),
                    "threads": threads(), "library": os.path.basename(path)}
    return None


def env_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_runtime": _openblas_runtime(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none",
    }


def drift_probe() -> float:
    """Median seconds of a fixed small-matrix numpy loop that skips the package."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 12))
    w1 = rng.standard_normal((24, 12))
    w2 = rng.standard_normal((4, 24))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(3000):
            h = np.maximum(x @ w1.T, 0.0)
            g = (h @ w2.T).T @ h
            w2 -= 1e-9 * g
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# --- ops -----------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class Runner:
    """Runs ops in fresh directories, checks them and keeps the tally."""

    def __init__(self, workload, work_dir, expected: dict | None):
        self.workload = workload
        self.work_dir = work_dir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._next_dir = 0

    def execute(self, state, call, tracer=None):
        """Run and check one call; return (seconds, output texts, problems)."""
        out_dir = os.path.join(self.work_dir, f"call{self._next_dir}")
        self._next_dir += 1
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result, texts = self.workload.run(state, call, out_dir)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failing call is tallied, the run goes on
            return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(out_dir, ignore_errors=True)
        problems = self.workload.check(state, call, result, texts)
        return elapsed, texts, problems + self._digest_problems(call, texts)

    def tally(self, call, problems: list[str]) -> int:
        """Count the ops of one call as attempted; return how many passed."""
        ops = self.workload.ops_in(call)
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(f"{self.workload.key(call)}: {p}" for p in problems)
            return 0
        return ops

    def _digest_problems(self, call, texts) -> list[str]:
        if self.expected is None:
            return []
        problems = []
        for name, text in texts.items():
            key = f"{self.workload.name}/{self.workload.key(call)}/{name}"
            want = self.expected["digests"].get(key)
            if want is None:
                problems.append(f"no recorded digest for {key}")
            elif _digest(text) != want:
                problems.append(f"{name} differs from the recorded digest")
        return problems


def set_up(workload, seed: int, work_dir, runner, tracer=None):
    """Set-up plus one warm-up call; returns (state, seconds).

    The warm-up call is checked after timing and tallied only when it fails.
    """
    os.makedirs(work_dir)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        state = workload.setup(seed, work_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    _, _, problems = runner.execute(state, state["warm_up"], tracer)
    elapsed = time.perf_counter() - start
    if problems:
        runner.tally(state["warm_up"], problems)
    return state, elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """Op time at the highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload, seed: int, seconds: float, work_dir, runner, import_s: float):
    # the set-ups are spread over the run, so they sample the host's speed
    # as the timed rounds do; the first one's state serves the rounds
    state, elapsed = set_up(workload, seed, os.path.join(work_dir, "setup0"), runner)
    setup_times = [elapsed]
    cycle = state["cycle"]
    times, ok, calls = [], 0, 0
    timed = 0.0
    while timed < seconds:
        start = time.perf_counter()
        for call in cycle[calls % len(cycle):][: workload.group]:
            elapsed, _, problems = runner.execute(state, call)
            calls += 1
            ops = workload.ops_in(call)
            times.extend([elapsed / ops] * ops)  # a call's ops share its time
            ok += runner.tally(call, problems)
        timed += time.perf_counter() - start
        while len(setup_times) < min(SETUP_REPEATS, timed * SETUP_REPEATS / seconds):
            extra_dir = os.path.join(work_dir, f"setup{len(setup_times)}")
            setup_times.append(set_up(workload, seed, extra_dir, runner)[1])
            shutil.rmtree(extra_dir, ignore_errors=True)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": ok / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    detail = {"import_s": import_s, "setup_runs_s": setup_times, "op_s": times,
              "op_s_tail_percentile": tail_pct, "op_s_tail_samples": len(times)}
    return metrics, detail


def measure_traced(workload, seed: int, seconds: float, work_dir, runner, spans_path):
    from tracer import Tracer

    tracer = Tracer()
    state, setup_s = set_up(workload, seed, os.path.join(work_dir, "setup"), runner, tracer)
    calls = state["cycle"][: workload.group]
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for j, call in enumerate(calls):
            tracer.op = passes * len(calls) + j
            twins = {}
            # alternate which twin runs first, so drift favours neither
            for traced in ((False, True) if (passes + j) % 2 == 0 else (True, False)):
                twins[traced] = runner.execute(state, call, tracer if traced else None)
            plain_s += twins[False][0]
            traced_s += twins[True][0]
            if None not in (twins[False][1], twins[True][1]) and twins[False][1] != twins[True][1]:
                twins[True][2].append("traced outputs differ from untraced")
            runner.tally(call, twins[False][2])
            runner.tally(call, twins[True][2])
        passes += 1
    tracer.write(spans_path)
    metrics = tracer.layer_metrics(passes)
    metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    detail = {"setup_s": setup_s, "passes": passes, "calls_per_pass": len(calls),
              "untraced_op_s": plain_s, "traced_op_s": traced_s, "spans": spans_path,
              "flop_rates": "computed from FlopsLedger counts over traced self time; "
                            "not measured hardware rates"}
    return metrics, detail


# --- digests ------------------------------------------------------------------


def _build(env: dict) -> dict:
    return {"numpy": env["numpy"], "blas_core": (env["blas_runtime"] or {}).get("core")}


def _load_expected(seed: int, env: dict) -> tuple[dict | None, str]:
    if seed != RECORDED_SEED:
        return None, f"skipped: seed {seed} is not the recorded seed {RECORDED_SEED}"
    with open(EXPECTED, "r", encoding="ascii") as fh:
        expected = json.load(fh)
    if expected["build"] != _build(env):
        return None, f"skipped: digests were recorded on {expected['build']}, not {_build(env)}"
    return expected, "checked"


def record_digests(workload, work_dir, env: dict) -> None:
    """Run the warm-up and one full cycle at RECORDED_SEED; store every output's digest."""
    runner = Runner(workload, work_dir, None)
    state, _ = set_up(workload, RECORDED_SEED, os.path.join(work_dir, "setup"), runner)
    digests = {}
    for call in dict.fromkeys([state["warm_up"], *state["cycle"]]):
        _, texts, problems = runner.execute(state, call)
        if problems:
            raise RuntimeError(f"cannot record digests, {workload.key(call)} failed: {problems}")
        for name, text in texts.items():
            digests[f"{workload.name}/{workload.key(call)}/{name}"] = _digest(text)
    expected = {"digests": {}}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, "r", encoding="ascii") as fh:
            expected = json.load(fh)
    kept = {k: v for k, v in expected["digests"].items() if not k.startswith(workload.name + "/")}
    expected.update(seed=RECORDED_SEED, build=_build(env),
                    digests=dict(sorted({**kept, **digests}.items())))
    with open(EXPECTED, "w", encoding="ascii") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests for {workload.name}")


# --- main -----------------------------------------------------------------------


def run_workload(workload, args, spec: dict, env: dict, import_s: float) -> dict | None:
    """Measure one workload, print its metric lines and detail, return its result."""
    work_dir = os.path.join(OUT, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        if args.record_digests:
            record_digests(workload, work_dir, env)
            return None
        expected, digest_check = _load_expected(args.seed, env)
        runner = Runner(workload, work_dir, expected)
        drift_before = drift_probe()
        if args.trace:
            spans = os.path.join(results_dir, f"spans_{workload.name}.npz")
            values, detail = measure_traced(workload, args.seed, args.seconds, work_dir,
                                            runner, spans)
            wanted = spec["per_layer"]
        else:
            values, detail = measure(workload, args.seed, args.seconds, work_dir, runner,
                                     import_s)
            wanted = spec["end_to_end"]
        drift_after = drift_probe()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail.update({
        "workload": workload.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "digest_check": digest_check,
        "drift_probe_s": {"before": drift_before, "after": drift_after},
        "failures": runner.failures, "env": env,
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    sidecar = os.path.join(results_dir, f"{workload.name}_seed{args.seed}_trace{args.trace}.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "op_s"}}, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_package()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}, "
                     f"choose from all, {', '.join(WORKLOADS)}")
    env = env_stamp()
    results = {name: run_workload(WORKLOADS[name](), args, spec, env, import_s) for name in names}
    if args.record_digests:
        return 0
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
