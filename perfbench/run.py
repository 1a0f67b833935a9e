"""exactspin benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the library from
``src/`` and builds nothing.  One client runs one command at a time
(closed loop).  Every command's output is checked; a command that exits
non-zero or fails its check counts as failed.

``--trace 0`` measures the end-to-end metrics.  Each command runs in
turn in a fresh process (cold) and then in a long-lived worker that has
already run every command once (warm), until ``--seconds`` is spent.

* ``setup_s``     -- median time from starting a fresh interpreter to
  ``import exactspin`` done, over every process the run starts;
* ``wall_s``      -- the workload's commands cold, start-up included (what
  a CLI user pays): per-command median wall time, summed;
* ``cpu_s``       -- user + sys CPU of the cold processes, per-command
  median, summed;
* ``peak_rss_mb`` -- the largest per-command median peak RSS of a cold
  process;
* ``warm_s``      -- the same commands through ``exactspin.cli.main`` in
  the warm worker (what a library or notebook user pays): per-command
  median wall time, summed.

``--trace 1`` measures the per-layer metrics: calls and self time of
each traced library function in a cold pass (``.calls``, ``.self_s``)
and in a warm pass (``.warm_self_s``), peak traced allocation of the
large-array functions, and the tracing overhead (traced minus untraced
cold wall time).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# the whole run ends within this, whatever the program does
DEADLINE_S = 165.0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in output order."""
    units = {}
    for name in spantrace.target_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.warm_self_s"] = "s"
    for name in spantrace.PEAK_TARGETS:
        units[f"{name}.peak_mb"] = "MB"
    for name in spantrace.DIM_TARGETS:
        units[f"{name}.max_dim"] = "count"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.absent"] = "count"
    return units


class RunError(Exception):
    """A phase got no sample: the deadline passed or its process died."""


class Run:
    """The processes, samples and failures of one benchmark run."""

    def __init__(self, commands: list[dict], run_dir: str, deadline: float):
        self.commands = commands
        self.run_dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self._names = 0

    def remaining(self, phase: str) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError(phase)
        return left

    def new_path(self, kind: str) -> str:
        self._names += 1
        return os.path.join(self.run_dir, f"{kind}{self._names}")

    def new_dir(self, kind: str) -> str:
        path = self.new_path(kind)
        os.makedirs(path)
        return path

    def write_job(self, job: dict) -> tuple[str, dict]:
        base = self.new_path("job")
        job = dict(job, result=base + ".result.json")
        with open(base + ".json", "w") as fh:
            json.dump(job, fh)
        return base, job

    def read_result(self, job: dict, t0: float) -> dict | None:
        if not os.path.exists(job["result"]):
            return None
        with open(job["result"]) as fh:
            result = json.load(fh)
        self.setup.append(result["imported"] - t0)
        return result

    def spawn(self, job: dict) -> dict:
        """Run worker.py on job in a fresh process; wall, CPU, RSS and its result."""
        base, job = self.write_job(job)
        remaining = self.remaining(job["mode"])
        with open(base + ".log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, WORKER, base + ".json"],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            lock = threading.Lock()
            exited = False

            def kill():
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                # wait without reaping, so kill() can never hit a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                t1 = time.monotonic()
                with lock:
                    exited = True
            finally:
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        result = self.read_result(job, t0)
        if t1 - t0 >= remaining:
            raise RunError(job["mode"])
        return {"wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode, "result": result,
                "log": base + ".log"}

    def record(self, command: dict, rc: int, output: str, log: str | None = None) -> None:
        """Count one attempted command; check its output."""
        self.attempted += 1
        if rc != 0:
            problem = f"exit code {rc}" + (f": {_last_line(log)}" if log else "")
        else:
            problem = checks.check_output(output, command["check"])
        if problem is not None:
            self.failures.append(f"{command['name']}: {problem}")

    def cold(self, command: dict, out_dir: str, trace: bool = False) -> dict:
        """One command in a fresh process, as the console script runs it; checked."""
        run = self.spawn({"mode": "cold", "commands": [command], "trace": trace,
                          "out_root": out_dir})
        self.record(command, run["rc"], command["output"].format(out=out_dir), run["log"])
        return run

    def cold_pass(self, trace: bool = False) -> dict:
        """Every command once, each in its own fresh process."""
        out_dir = self.new_dir("cold")
        runs = [self.cold(command, out_dir, trace) for command in self.commands]
        result = {"wall_s": sum(r["wall_s"] for r in runs)}
        if trace:
            traced = [r["result"] for r in runs if r["result"] is not None]
            outputs = [c["output"].format(out=out_dir) for c in self.commands]
            result["layers"] = merge([spantrace.summarize(t["spans"]) for t in traced])
            result["absent"] = traced[0]["absent"] if traced else []
            result["output_bytes"] = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
        return result


class WarmWorker:
    """A long-lived worker that runs commands through cli.main on request."""

    def __init__(self, run: Run, trace: bool = False):
        self.run = run
        base, self.job = run.write_job({"mode": "serve", "commands": run.commands,
                                        "trace": trace})
        self.log = open(base + ".log", "w")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, WORKER, base + ".json"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, cwd=ROOT, text=True)

    def run_commands(self, indices: list[int]) -> list[float]:
        """Run the commands at indices, checked; each one's wall time inside the worker."""
        out_dir = self.run.new_dir("warm")
        try:
            self.proc.stdin.write(json.dumps({"out": out_dir, "commands": indices}) + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], self.run.remaining("warm"))
            line = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            line = ""
        if not line:
            self.run.failures.append(f"warm process died: {_last_line(self.log.name)}")
            raise RunError("warm")
        answer = json.loads(line)
        for index, rc in zip(indices, answer["codes"]):
            command = self.run.commands[index]
            self.run.record(command, rc, command["output"].format(out=out_dir))
        return answer["wall_s"]

    def run_pass(self) -> float:
        return sum(self.run_commands(list(range(len(self.run.commands)))))

    def close(self) -> dict | None:
        """End the worker; its result (spans when traced), or None if it died."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(self.run.deadline - time.monotonic(), 0.1))
        except (subprocess.TimeoutExpired, BrokenPipeError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        return self.run.read_result(self.job, self.t0)


def _last_line(path: str) -> str:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[-1] if lines else "(no output)"


def merge(summaries: list[dict]) -> dict:
    """Sum calls and self time, take the largest peak and dim, over processes."""
    total = spantrace.summarize([])
    for summary in summaries:
        for name, row in summary.items():
            acc = total.setdefault(name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0, "dim": 0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
            acc["peak_bytes"] = max(acc["peak_bytes"], row["peak_bytes"])
            acc["dim"] = max(acc["dim"], row["dim"])
    return total


def measure_end_to_end(run: Run, seconds: int) -> tuple[dict, dict]:
    """A warm-up pass, then the commands in turn, each cold and then warm, until --seconds.

    Alternating cold and warm runs of one command at a time spreads the
    samples of every metric over the whole run, so a slow spell on a
    shared machine moves all of them a little rather than one of them a
    lot.  Every command runs at least once each way.
    """
    started = time.monotonic()
    count = len(run.commands)
    cold = [[] for _ in range(count)]
    warm_s = [[] for _ in range(count)]
    warm = WarmWorker(run)
    try:
        warm.run_pass()
        step = 0
        while True:
            index = step % count
            cold[index].append(run.cold(run.commands[index], run.new_dir("cold")))
            warm_s[index] += warm.run_commands([index])
            step += 1
            if step >= count:
                upcoming = step % count
                cost = (statistics.median(r["wall_s"] for r in cold[upcoming])
                        + statistics.median(warm_s[upcoming]))
                # stop where the run ends nearest to --seconds
                if time.monotonic() - started + cost / 2 > seconds:
                    break
    finally:
        warm.close()

    def summed(samples, key=None):
        """Per-command medians, summed: one slow process does not move it much."""
        return sum(statistics.median(s if key is None else [r[key] for r in s]) for s in samples)

    values = {
        "setup_s": statistics.median(run.setup),
        "wall_s": summed(cold, "wall_s"),
        "warm_s": summed(warm_s),
        "cpu_s": summed(cold, "cpu_s"),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in s) for s in cold),
    }
    per_command = [len(s) for s in cold]
    samples = {"setup_s": len(run.setup), "per_command_min": min(per_command),
               "per_command_max": max(per_command), "commands": count}
    return values, samples


def measure_per_layer(run: Run, seconds: int) -> tuple[dict, dict]:
    """Untraced and traced cold passes in turn, then one traced warm pass."""
    started = time.monotonic()
    warm = WarmWorker(run, trace=True)
    try:
        warm.run_pass()  # the warm-up, traced as command ids "0:*"
        plain, traced = [], []
        while True:
            plain.append(run.cold_pass())
            traced.append(run.cold_pass(trace=True))
            # a pair costs two passes: stop where the run ends nearest to --seconds
            if time.monotonic() - started + statistics.median(
                    p["wall_s"] for p in plain + traced) > seconds:
                break
        warm.run_pass()
    finally:
        result = warm.close()
    if result is None:
        raise RunError("warm")
    warm_layers = spantrace.summarize(result["spans"], keep=lambda cmd: cmd.startswith("1:"))
    first = traced[0]["layers"]
    values = {}
    for name in spantrace.target_names():
        values[f"{name}.calls"] = first[name]["calls"]
        values[f"{name}.self_s"] = statistics.median(p["layers"][name]["self_s"] for p in traced)
        values[f"{name}.warm_self_s"] = warm_layers[name]["self_s"]
    for name in spantrace.PEAK_TARGETS:
        values[f"{name}.peak_mb"] = first[name]["peak_bytes"] / 2**20
    for name in spantrace.DIM_TARGETS:
        values[f"{name}.max_dim"] = first[name]["dim"]
    values["cli.output_bytes"] = traced[0]["output_bytes"]
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    values["trace.absent"] = len(traced[0]["absent"])
    if traced[0]["absent"]:
        print(f"# absent (reported as 0): {', '.join(traced[0]['absent'])}")
    samples = {"traced_cold_passes": len(traced), "untraced_cold_passes": len(plain),
               "traced_warm_passes": 1}
    return values, samples


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "exactspin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (os.path.join("src", "exactspin", "__init__.py"), "recipes"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from an exactspin checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    started = time.monotonic()
    run_dir = os.path.join(ROOT, ".bench_build", f"perfbench-{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        commands = workloads.build_commands(args.workload, args.seed, ROOT, run_dir)
        run = Run(commands, run_dir, started + DEADLINE_S)
        measure = measure_per_layer if args.trace else measure_end_to_end
        try:
            values, samples = measure(run, args.seconds)
        except RunError as exc:
            print(f"error: no sample from the {exc} phase", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    print(f"# env {json.dumps(environment(args.workload, args.seed))}")
    print(f"# samples {json.dumps(samples)}")
    print(f"# failed_frac {len(run.failures) / max(run.attempted, 1):.6g} "
          f"({len(run.failures)} of {run.attempted} commands)")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"# {name:<48} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
