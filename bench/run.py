"""End-to-end benchmark of the tvload command line.

    python3 bench/run.py --workload estimate-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's inputs are generated
from ``--seed`` and set up three times (the median is ``setup_s``).  Then
whole rounds of one CLI command run for ``--seconds`` seconds, each in a fresh
Python process, one at a time, all started by one small launcher process
(``launch.py``) so that their max RSS is their own.  The commands get no
``--threads`` and no ``TVLOAD_THREADS``, so they run under the program's own
worker-thread policy, with one BLAS thread.  Every command's outputs are
checked.  With
``--trace 1`` each round runs the command once untraced and once under
``tracer.py``, and the per-layer metrics come from the traced runs.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Every process of a run, the commands included, uses one BLAS thread.  Under
# the default settings each of the program's pool threads calls a
# multi-threaded OpenBLAS; on a 2-CPU machine one bootstrap-bands command then
# took 4 to 9.5 s, and the run-to-run spread of the medians passed the bounds.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from layers import PER_LAYER, RUN_LEVEL, layer_metrics  # noqa: E402
from workloads import WORKLOADS, artifact_hashes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

END_TO_END = (
    ("command_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
)
SETUP_REPEATS = 3
COMMAND_LIMIT_S = 120.0


class CommandFailed(Exception):
    pass


def program_env() -> dict[str, str]:
    """The commands' environment: no TVLOAD_THREADS, the checkout's source."""
    env = {k: v for k, v in os.environ.items() if k != "TVLOAD_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """The small process that starts every command and measures it (launch.py)."""

    def __init__(self):
        self.env = program_env()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> dict:
        request = {"argv": argv, "env": self.env, "cwd": str(WORK), "log": str(log),
                   "limit_s": COMMAND_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise CommandFailed(f"the launcher exited {self.proc.wait()}")
        return json.loads(line)

    def tvload(self, args: list[str], log: Path) -> dict:
        return self.run([sys.executable, "-m", "tvload.cli", *args], log)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_LIMIT_S)
        self.proc.stdout.close()


def set_up(workload, launcher: Launcher) -> float:
    """Generate the inputs and run the program's first process; seconds taken."""
    if workload.inputs.exists():
        shutil.rmtree(workload.inputs)
    workload.inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    workload.make_inputs()
    proc = launcher.tvload(workload.setup_args(), WORK / "setup.log")
    elapsed = time.perf_counter() - t0
    if proc["code"] != 0:
        raise CommandFailed(f"set-up command exited {proc['code']}; see {WORK / 'setup.log'}")
    problems = workload.check_setup()
    if problems:
        raise CommandFailed("set-up outputs failed their checks: " + "; ".join(problems))
    return elapsed


class Operations:
    """Runs and checks the timed commands, and tells repeated outputs apart."""

    def __init__(self, workload, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def run(self, n: int, traced: bool) -> dict | None:
        self.attempted += 1
        outdir = WORK / f"out{n:03d}"
        args = self.workload.command_args(outdir)
        log = WORK / f"out{n:03d}.log"
        if traced:
            spans = WORK / f"spans{n:03d}.json"
            proc = self.launcher.run(
                [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args], log)
        else:
            proc = self.launcher.tvload(args, log)
        if proc["code"] != 0:
            self.failed += 1
            self.problems.append(f"command {n} exited {proc['code']}: {log.read_text()[-500:]}")
            return None
        try:
            hashes = artifact_hashes(outdir, skip=self.workload.volatile)
            if self.reference is None:
                problems = self.workload.check(outdir)
                self.reference = hashes
            elif hashes != self.reference:
                problems = ["artifacts differ from the first command's"]
            else:
                problems = []
        except Exception as exc:  # noqa: BLE001 - a broken artifact is a failed check
            problems = [f"checking raised {exc!r}"]
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.correct = False
            self.problems += [f"command {n}: {p}" for p in problems]
            return None
        if traced:
            proc["trace"] = json.loads(spans.read_text())
        return proc


def blas_build() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def metric_values(setups, plain, traced) -> dict[str, float]:
    """End-to-end metrics of the untraced commands or, when traced commands are
    given, the per-layer metrics and the tracing overhead."""
    if not traced:
        return {
            "command_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(setups),
        }
    per_run = [layer_metrics(t["trace"]) for t in traced]
    values = {name: statistics.median(r[name] for r in per_run) for name, _ in PER_LAYER}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    values["trace.command_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    return values


def measure(workload, launcher: Launcher, seconds: float,
            trace: bool) -> tuple[dict, Operations, dict]:
    setups = [set_up(workload, launcher) for _ in range(1 if trace else SETUP_REPEATS)]
    ops = Operations(workload, launcher)
    plain, traced = [], []
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        for mode in (False, True) if trace else (False,):
            n += 1
            result = ops.run(n, traced=mode)
            if result is not None:
                (traced if mode else plain).append(result)
    extra = {"setups_s": setups, "commands": plain, "traced": [
        {k: v for k, v in t.items() if k != "trace"} for t in traced]}
    complete = plain and (traced or not trace)
    return (metric_values(setups, plain, traced) if complete else {}), ops, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tvload" / "cli.py").is_file():
        print(f"no tvload source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    workload = WORKLOADS[args.workload](args.seed, WORK / "inputs", ROOT)
    launcher = Launcher()
    try:
        values, ops, extra = measure(workload, launcher, args.seconds, bool(args.trace))
    except CommandFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    units = dict(PER_LAYER + RUN_LEVEL) if args.trace else dict(END_TO_END)
    result = {
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "blas": blas_build(), "blas_threads": 1,
            "problems": ops.problems, **extra}
    (WORK / f"BENCH_{args.workload}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
