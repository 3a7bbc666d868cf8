"""End-to-end benchmark of the ``wcsp`` command line, with an optional layer trace.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tractable-scale --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``wcsp.cli.main([...])`` call (``eval``,
``reduce pin-vars``, ``reduce interpolate`` or ``reduce mobius-pin``) on a
seeded input file, covering read, parse, classify, evaluate and format.  One
client runs the workload's operations in whole rounds, each call after the
previous one returns, until ``--seconds`` of calls have been measured and
the tail percentile has ten samples beyond it.  Inputs and expected values
are made before timing starts, and every emitted value is compared exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
once plain and once with the layer wrappers of ``tracing.py`` installed, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is 0 when every
value emitted was correct, 1 when one was wrong, and 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tractable-scale", "enum-reduce")
SETUP_SAMPLES = 15
MAX_MEASURED_S = 100.0  # rounds stop here even if the tail is still short of samples
OUTCOMES = ("ok", "wrong", "crash", "refused", "input")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import ``wcsp.cli`` and the oracle module from this checkout only."""
    src = ROOT / "src"
    if not (src / "wcsp" / "cli.py").is_file():
        _fail(f"no program source at {src / 'wcsp'}; run from a full checkout")
    oracle_path = ROOT / "tests" / "oracles.py"
    if not oracle_path.is_file():
        _fail(f"no oracle module at {oracle_path}")
    sys.path.insert(0, str(src))
    import wcsp.cli

    if Path(wcsp.cli.__file__).resolve().parent != (src / "wcsp").resolve():
        _fail(f"imported wcsp from {wcsp.cli.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return wcsp.cli, oracles


def import_times(count: int) -> list[float]:
    """Seconds to import ``wcsp.cli`` in each of ``count`` fresh interpreters."""
    probe = (
        "import time; t = time.perf_counter(); import wcsp.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip()))
    return samples


class Runner:
    def __init__(self, cli, workload, tracer=None) -> None:
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.records: list[tuple[int, float, str]] = []  # (op index, seconds, outcome)
        self.examples: dict[str, dict[str, str]] = {kind: {} for kind in OUTCOMES}

    def call(self, index: int, argv: list[str]) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        code: object = None
        crashed = None
        tracer = self.tracer
        started = perf_counter()
        if tracer is not None:
            tracer.start_op(len(self.records))
            root = tracer.begin("cli.main")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is the outcome being measured
            crashed = exc
        finally:
            if tracer is not None:
                tracer.end(root)
        elapsed = perf_counter() - started

        op = self.workload.ops[index]
        if crashed is not None:
            outcome, detail = "crash", f"{type(crashed).__name__}: {crashed}"[:160]
        elif code == 0:
            emitted = json.loads(out.getvalue()).get("value")
            if emitted == op.expected_text:
                outcome, detail = "ok", ""
            else:
                outcome = "wrong"
                detail = f"emitted {str(emitted)[:60]!r}, expected {op.expected_text[:60]!r}"
        elif code == 2:
            outcome, detail = "input", err.getvalue().strip()[:160]
        elif code == 3:
            outcome, detail = "refused", err.getvalue().strip()[:160]
        else:
            outcome, detail = "crash", f"exit code {code!r}: {err.getvalue().strip()[:120]}"
        self.records.append((index, elapsed, outcome))
        self.examples[outcome].setdefault(op.label, detail)
        return elapsed, outcome

    def run_round(self, round_number: int) -> float:
        measured = 0.0
        for index in range(len(self.workload.ops)):
            argv = self.workload.argv(index, round_number)
            measured += self.call(index, argv)[0]
        return measured

    def run_until(self, seconds: float, min_ops: int) -> int:
        """Whole rounds until ``seconds`` are measured and ``min_ops`` are done."""
        measured, rounds = 0.0, 0
        while measured < MAX_MEASURED_S and (
            measured < seconds or len(self.records) < min_ops
        ):
            measured += self.run_round(rounds)
            rounds += 1
        return rounds


def _nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Value at the percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def report_outcomes(runner: Runner, lines: list[str]) -> dict[str, int]:
    counts = {kind: 0 for kind in OUTCOMES}
    for _, _, outcome in runner.records:
        counts[outcome] += 1
    attempted = len(runner.records)
    failed = attempted - counts["ok"]
    lines.append(
        f"outcomes: {attempted} attempted, {counts['ok']} ok, {failed} failed "
        f"(failed_frac {failed / attempted:.4f} = {failed}/{attempted})"
    )
    for kind in OUTCOMES[1:]:
        lines.append(
            f"  failed_frac.{kind} {counts[kind] / attempted:.4f} = {counts[kind]}/{attempted}"
        )
        for label, detail in runner.examples[kind].items():
            lines.append(f"    {kind}: {label}: {detail}")
    over = {i for i, op in enumerate(runner.workload.ops) if op.over_digit_limit}
    crashed = {index for index, _, outcome in runner.records if outcome == "crash"}
    lines.append(
        f"  operations whose value exceeds 4300 decimal digits: {len(over)} of "
        f"{len(runner.workload.ops)}; exactly these crash: {'yes' if over == crashed else 'no'}"
    )
    return counts


def op_medians(runner: Runner, lines: list[str]) -> list[float]:
    """Median call time of each base operation, one report row per operation."""
    by_op: dict[int, list[tuple[float, str]]] = {}
    for index, seconds, outcome in runner.records:
        by_op.setdefault(index, []).append((seconds, outcome))
    medians = []
    for index, op in enumerate(runner.workload.ops):
        rows = by_op[index]
        median = statistics.median(seconds for seconds, _ in rows)
        kinds = ",".join(sorted({outcome for _, outcome in rows}))
        lines.append(f"  op {op.label:44} {median:10.6f} s x{len(rows)} {kinds}")
        medians.append(median)
    return medians


def end_to_end(runner: Runner, setup_samples: list[float], lines: list[str]) -> dict:
    """End-to-end metrics of a run made of whole rounds.

    The median is taken over the round's operations, each at its own median
    call time.  Every operation has the same number of calls, so this is the
    median call of the mix; when machine noise makes neighbouring operations'
    times overlap, it moves less than the median of the pooled calls.
    """
    medians = op_medians(runner, lines)
    counts = report_outcomes(runner, lines)
    latencies = sorted(seconds for _, seconds, _ in runner.records)
    busy = sum(latencies)
    tail, beyond = _nearest_rank(latencies, runner.workload.tail_percentile)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct = f"p{runner.workload.tail_percentile:g}"
    metrics = {
        "solved_per_s": (counts["ok"] / busy, "1/s", f"{counts['ok']} correct / {busy:.3f} s of calls"),
        "latency_p50_s": (
            statistics.median(medians),
            "s",
            f"median over {len(medians)} operations of each one's median call; "
            f"pooled median of {len(latencies)} calls {statistics.median(latencies):.6g} s",
        ),
        "latency_tail_s": (tail, "s", f"{pct} of {len(latencies)} calls, {beyond} beyond it"),
        "solved_frac": (
            counts["ok"] / len(latencies),
            "frac",
            f"{counts['ok']} correct / {len(latencies)} attempted",
        ),
        "setup_s": (
            statistics.median(setup_samples),
            "s",
            f"median of {len(setup_samples)} fresh imports of wcsp.cli, "
            f"{min(setup_samples):.4f}..{max(setup_samples):.4f}",
        ),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the benchmark process"),
    }
    for name, (value, unit, base) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit} ({base})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, oracles = _load_program()
    # The program runs with its defaults: no budget override, no digit limit change.
    os.environ.pop("WCSP_BUDGET", None)
    import tracing
    import workloads

    workloads.check_reference_values(oracles)
    # The first import writes the bytecode cache, as an installed copy would
    # have it, and is not timed.
    import_times(1)

    run_dir = ROOT / ".perfbench_run"
    workdir = run_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} (python {sys.version.split()[0]}, "
        f"int digit limit {sys.get_int_max_str_digits()})"
    ]
    try:
        workload = workloads.build(args.workload, args.seed, workdir, oracles)
        lines.append(f"{len(workload.ops)} operations per round")

        # Warm-up: one call per command kind, checked but not counted.
        warm = Runner(cli, workload)
        for kind in dict.fromkeys(op.command for op in workload.ops):
            index = next(i for i, op in enumerate(workload.ops) if op.command == kind)
            warm.call(index, workload.argv(index, 0))

        # Objects the benchmark holds (instances, expected values) are left
        # out of the collector's scans, which would otherwise bill the
        # program for memory a command-line user's process never holds.
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            # Set-up is sampled before and after the timed rounds, so the
            # median spans the run rather than one moment of the machine.
            setup_samples = import_times(SETUP_SAMPLES // 2)
            runner = Runner(cli, workload)
            rounds = runner.run_until(args.seconds, workload.min_ops)
            setup_samples += import_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            lines.append(f"{rounds} rounds, {len(runner.records)} calls")
            metrics = end_to_end(runner, setup_samples, lines)
            runners = [warm, runner]
        else:
            # Each round runs untraced and then traced, so both halves of the
            # overhead ratio see the machine in the same state.
            plain = Runner(cli, workload)
            tracer = tracing.Tracer()
            traced = Runner(cli, workload, tracer)
            plain_s = traced_s = 0.0
            rounds = 0
            while plain_s < args.seconds / 2:
                plain_s += plain.run_round(rounds)
                with tracer.installed():
                    traced_s += traced.run_round(rounds)
                rounds += 1
            overhead = traced_s / plain_s - 1
            lines.append(
                f"{rounds} rounds, each untraced ({plain_s:.3f} s in all) "
                f"then traced ({traced_s:.3f} s in all)"
            )
            report_outcomes(traced, lines)
            layer, bases = tracing.layer_metrics(tracer.spans, len(traced.records), overhead)
            spans_path = run_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)
            lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            for name, value in layer.items():
                base = f" ({bases[name]})" if bases[name] else ""
                lines.append(f"{name} {value:.6g} {tracing.LAYER_UNITS[name]}{base}")
            metrics = {
                name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                for name, value in layer.items()
            }
            runners = [warm, plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for runner in runners[1:] for r in runner.records]
    wrong = sum(1 for runner in runners for _, _, outcome in runner.records if outcome == "wrong")
    failed = sum(1 for _, _, outcome in records if outcome != "ok")
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
