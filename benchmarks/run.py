#!/usr/bin/env python3
"""End-to-end benchmark of the ``cdmr`` CLI.

    python3 benchmarks/run.py --workload maps --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` each CLI
invocation is a fresh Python process (import included), timed from outside;
the run repeats whole passes over the workload's command list until
``--seconds`` have gone by.  With ``--trace 1`` one pass is replayed in this
process with every layer wrapped (see tracing.py) and per-layer metrics are
reported instead.  Either way the outputs of the last pass are checked by
oracles.py.  The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "import sys; from cdmr.cli import main; sys.exit(main())"
# Set-up probes (`cdmr --version`): a few before the first pass and one after
# each pass, so their median samples the machine over the whole run.
SETUP_PROBES_FIRST = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150.0
# The known fault: argparse reads a negative number in scientific notation as
# a flag and exits 2, the code the CLI also documents for numerical failure, so
# the message tells the two apart.
KNOWN_FAULT_EXIT = 2
KNOWN_FAULT_MESSAGE = "expected one argument"

END_TO_END = [
    ("setup_s", "s"), ("workload_s", "s"), ("peak_rss_mb", "MB"),
    ("heavy_cmd_s", "s"), ("second_cmd_s", "s"), ("short_cmd_s", "s"),
]


def child_env():
    """Environment of a CLI child: this checkout's sources, default thread setting."""
    env = dict(os.environ)
    env.pop("CDMR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, env, cwd, stderr_path):
    """Run one CLI child to its end: (wall seconds, exit code, peak RSS in MB)."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=cwd,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _tail(path, limit=300):
    try:
        return Path(path).read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""


def judge_exit(command, code, errors, detail=""):
    """True when the invocation failed; records a failure that is not the known fault."""
    if code == 0:
        return False
    if not (command.expect_fail and code == KNOWN_FAULT_EXIT
            and KNOWN_FAULT_MESSAGE in detail):
        errors.append(f"{command.key} exited {code}: {detail}")
    return True


def measure(workload, seconds, work, errors):
    """Untraced passes for about ``seconds``.

    Returns (metrics, attempted, failed, keys that succeeded in the last pass,
    passes).  A further pass starts only while it is expected to end less
    than half a pass after the deadline.
    """
    env = child_env()
    log = work / "stderr.txt"
    setup = []

    def probe_setup():
        wall, code, _ = run_cli(["--version"], env, work, log)
        if code != 0:
            raise SystemExit(f"cdmr --version exited {code}: {_tail(log)}")
        setup.append(wall)

    passes, peaks, by_role = [], [], {role: [] for role in workloads.ROLES}
    attempted = failed = 0
    started = time.perf_counter()
    for _ in range(SETUP_PROBES_FIRST):
        probe_setup()
    while not passes or time.perf_counter() - started + passes[-1] / 2 < seconds:
        pass_start, peak, succeeded = time.perf_counter(), 0.0, set()
        for command in workload.commands:
            wall, code, rss = run_cli(command.argv, env, work, log)
            attempted += 1
            peak = max(peak, rss)
            if judge_exit(command, code, errors, _tail(log)):
                failed += 1
            else:
                succeeded.add(command.key)
                if command.role:
                    by_role[command.role].append(wall)
        passes.append(time.perf_counter() - pass_start)
        peaks.append(peak)
        probe_setup()
    metrics = {"setup_s": statistics.median(setup), "workload_s": statistics.median(passes),
               "peak_rss_mb": statistics.median(peaks)}
    for role, name in workloads.ROLES.items():
        metrics[name] = statistics.median(by_role[role]) if by_role[role] else float("nan")
    return metrics, attempted, failed, succeeded, len(passes)


def import_breakdown(work):
    """(import.total_ms, import.scipy_ms), medians over ``python -X importtime`` probes."""
    totals, scipy_ms = [], []
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)")
    for _ in range(IMPORT_PROBES):
        log = work / "importtime.txt"
        with open(log, "wb") as stderr:
            subprocess.run([sys.executable, "-X", "importtime", "-c", "import cdmr.cli"],
                           env=child_env(), cwd=work, stderr=stderr,
                           stdout=subprocess.DEVNULL, check=True)
        cumulative = {}
        for match in pattern.finditer(log.read_text()):
            cumulative.setdefault(match.group(2), int(match.group(1)))
        totals.append(cumulative.get("cdmr.cli", 0) / 1e3)
        scipy_ms.append((cumulative.get("scipy.special", 0)
                         + cumulative.get("scipy.optimize", 0)) / 1e3)
    return statistics.median(totals), statistics.median(scipy_ms)


def replay(workload, errors):
    """One pass in this process: (seconds, attempted, failed, succeeded keys)."""
    from cdmr.cli import main

    failed, succeeded = 0, set()
    started = time.perf_counter()
    for command in workload.commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(list(command.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if judge_exit(command, code, errors, sink.getvalue()[-300:]):
            failed += 1
        else:
            succeeded.add(command.key)
    return time.perf_counter() - started, len(workload.commands), failed, succeeded


def traced(workload, work, seed, errors):
    """Per-layer metrics from one traced in-process pass."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("CDMR_THREADS", None)
    import cdmr.cli

    if Path(cdmr.cli.__file__).resolve().parent != (SRC / "cdmr").resolve():
        raise SystemExit(f"imported cdmr from {cdmr.cli.__file__}, not from {SRC}")
    # Untraced passes before and after the traced one; their mean is the
    # baseline of the tracing overhead, so warm-up and drift cancel to first order.
    tracer = tracing.Tracer()
    runs = [replay(workload, errors)]
    restore, missing = tracing.install(tracer)
    try:
        runs.append(replay(workload, errors))
    finally:
        restore()
    runs.append(replay(workload, errors))
    metrics = tracing.layer_metrics(tracer)
    metrics["import.total_ms"], metrics["import.scipy_ms"] = import_breakdown(work)
    metrics["trace.overhead_s"] = runs[1][0] - 0.5 * (runs[0][0] + runs[2][0])
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{workload.name}-seed{seed}.json.gz")
    return metrics, sum(r[1] for r in runs), sum(r[2] for r in runs), runs[1][3], missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdmr" / "cli.py").is_file():
        print(f"no cdmr sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        errors, missing = [], []
        if args.trace:
            values, attempted, failed, succeeded, missing = traced(
                workload, work, args.seed, errors)
            units = tracing.PER_LAYER
            passes = 3
        else:
            values, attempted, failed, succeeded, passes = measure(
                workload, args.seconds, work, errors)
            units = END_TO_END
        errors += oracles.check(workload, succeeded)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in errors:
        print(f"CHECK FAILED: {message}")
    if missing:
        # A hook whose target is gone reads 0, which is not a speed-up.
        line = f"{tracing.DEAD_HOOKS}: {', '.join(missing)}"
        print(line)
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {passes} pass(es), {attempted} invocations, "
          f"{failed} failed, {'correct' if not errors else 'INCORRECT'}")
    if not args.trace:
        names = workloads.ROLE_NAMES[args.workload]
        print("  " + ", ".join(f"{names[role]} = {values[slot]:.4f} s"
                               for role, slot in workloads.ROLES.items()))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
