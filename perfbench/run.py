"""covwave benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep_gaussian --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
driven through its real entry point, ``covwave.cli.main``, one invocation at
a time in this process (a closed loop with one client), with BLAS/OpenMP
threads held to the number of usable cores.  Inputs come from ``--seed``
(see workloads.py) and every invocation's outputs are checked (checks.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced invocations and reports the per-layer metrics derived
from the spans (spans.py).  The last line of standard output is the JSON
result; the lines before it are the same figures for a reader.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SECONDS_PER_INVOCATION = 0.05  # `check` time taken after each timed invocation
TAIL_Q = 0.75  # run_s.tail is this nearest-rank percentile, the same for every program
TAIL_BEYOND = 5  # samples that a run takes at least beyond that percentile
MIN_SAMPLES = math.ceil(TAIL_BEYOND / (1.0 - TAIL_Q))


class Tally:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems[: max(0, 5 - len(self.reasons))])
        return not problems


def invoke(main, argv: list[str]) -> tuple[object, float, str, str]:
    """Run main(argv) with its output captured: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads_pinned": threads,
    }


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Nearest-rank TAIL_Q percentile: (value, its rank from 1, samples beyond it)."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_Q * len(ordered))
    return ordered[rank - 1], rank, len(ordered) - rank


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "covwave" / "cli.py").is_file():
        print(f"perfbench: no covwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import workloads
    from covwave import cli
    from spans import Tracer, invocation_summary, layer_metrics

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, args.seed)
    workdir = OUT / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        config = workloads.write_inputs(w, workdir)
        report = workdir / "report.csv"
        argv = workloads.argv(w, config, report)
        refs = checks.reference_frames(w)
        tally = Tally()
        first_report: list[str] = []
        health = dict.fromkeys(checks.HEALTH, 0.0)

        def stable_report() -> list[str]:
            return [ln for ln in report.read_text().splitlines()
                    if not ln.startswith("# generated=")]

        def run_once() -> tuple[float, bool]:
            """One checked invocation of the workload: (seconds, succeeded)."""
            report.unlink(missing_ok=True)  # so a stale output cannot pass the checks
            shutil.rmtree(workdir / "signals", ignore_errors=True)
            code, seconds, _, err = invoke(cli.main, argv)
            if code != 0:
                return seconds, tally.record([f"exit {code}: {err.strip()[:200]}"])
            problems, figures = checks.check_run(w, report, workdir / "signals", refs)
            if not problems and not first_report:
                first_report.extend(stable_report())
                health.update(figures)
            elif not problems and stable_report() != first_report:
                problems.append("report differs from the first invocation's")
            return seconds, tally.record(problems)

        run_once()  # warm-up, and the whole of a fresh process's first invocation
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment(threads)

        lines = [f"workload={w.name} seed={args.seed} trace={args.trace} "
                 f"frames={w.frames} command={w.command}",
                 "env " + json.dumps(env)]
        if args.trace == 0:
            setup: list[float] = []

            def set_up_until(seconds: float) -> None:
                """Time `covwave check` on the config until it has taken `seconds` (once at least)."""
                start = len(setup)
                while len(setup) == start or sum(setup[start:]) < seconds:
                    code, took, out, err = invoke(cli.main, ["check", "--config", str(config)])
                    tally.record([] if code == 0 and out == "ok\n" else [f"check: exit {code} {err}"])
                    setup.append(took)

            # set-up samples are spread over the whole run, after every invocation,
            # so that their median sees the same host as the run's timings; a slow
            # program runs past --seconds until the tail has TAIL_BEYOND samples
            times, done = [], []
            while sum(times) < args.seconds or len(times) < MIN_SAMPLES:
                seconds, ok = run_once()
                times.append(seconds)
                if ok:
                    done.append(seconds)
                set_up_until(SETUP_SECONDS_PER_INVOCATION)
            value, rank, beyond = tail(times)
            metrics = {
                "run_s.p50": (statistics.median(times), "s"),
                "run_s.tail": (value, "s"),
                "frames_per_s": (w.frames * len(done) / sum(done) if done else 0.0, "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            lines.append(f"run_s: n={len(times)} samples; tail is p{100 * TAIL_Q:.0f}, "
                         f"sample {rank} of {len(times)}, with {beyond} beyond it; "
                         f"setup_s over {len(setup)} checks")
        else:
            tracer = Tracer()
            traced, untraced, summaries, starts = [], [], [], []
            while sum(traced) + sum(untraced) < args.seconds:
                # alternate which side of each pair goes first
                for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                    if traced_turn:
                        starts.append(len(tracer.spans))
                        tracer.install()
                        try:
                            seconds, _ = run_once()
                        finally:
                            tracer.uninstall()
                        traced.append(seconds)
                        summaries.append(
                            invocation_summary(tracer.spans[starts[-1]:], starts[-1]))
                    else:
                        untraced.append(run_once()[0])
            metrics = layer_metrics(summaries, traced, untraced, health)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{w.name}.jsonl", starts, env)
            kernel = metrics["spectral.synthesize.s"]["value"] + metrics["photon.field.s"]["value"]
            lines.append(f"traced invocations: {len(traced)}, untraced: {len(untraced)}; "
                         f"synthesis kernels take {kernel / statistics.median(traced):.1%} "
                         f"of the traced run_s.p50 {statistics.median(traced):.4f} s")

        correct = tally.failed == 0
        lines.append(f"fail_ratio {tally.failed / tally.attempted:.6g} "
                     f"({tally.failed} of {tally.attempted} invocations)")
        lines += [f"{name:36s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines += [f"failure: {r}" for r in tally.reasons]
        print("\n".join(lines))
        print(json.dumps({"correct": correct, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
