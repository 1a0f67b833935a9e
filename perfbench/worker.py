"""One fresh benchmark process: import exactspin, then run a job.

    python3 perfbench/worker.py JOB.json

The first thing it does is import exactspin from the checkout's ``src``
and note ``time.monotonic()``; the parent noted the same clock just
before starting the process, so the difference is the interpreter's
start-up plus the import (``setup_s``).  Then it runs the job:

* ``cold``  -- one command, as the ``exactspin`` console script would.
* ``serve`` -- stay alive and, for each JSON line
  ``{"out": DIR, "commands": [INDEX, ...]}`` read on stdin, run those
  commands through ``exactspin.cli.main`` with outputs in DIR; answer
  with one JSON line ``{"wall_s": [...], "codes": [...]}`` on stdout, one
  entry per command.  End of input ends the job.

With ``trace`` set, the span tracer is installed before the first
command.  The result, spans included, is written to ``result`` at exit.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import exactspin  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

import exactspin.cli  # noqa: E402
import workloads  # noqa: E402


def run_command(command: dict, out_dir: str) -> int:
    """Run one command; its exit code, 1 for an uncaught exception."""
    try:
        if command["kind"] == "confront":
            return workloads.confront(command["model"], command["output"].format(out=out_dir))
        return exactspin.cli.main([arg.format(out=out_dir) for arg in command["argv"]])
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def serve(commands: list[dict], tracer) -> None:
    # answers go to the original stdout; anything the commands print goes to stderr
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    for request, line in enumerate(sys.stdin):
        order = json.loads(line)
        walls, codes = [], []
        for index in order["commands"]:
            if tracer is not None:
                tracer.command = f"{request}:{index}"
            t0 = time.perf_counter()
            codes.append(run_command(commands[index], order["out"]))
            walls.append(time.perf_counter() - t0)
        answers.write(json.dumps({"wall_s": walls, "codes": codes}) + "\n")
        answers.flush()


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"imported": IMPORTED}
    codes = [0]
    tracer = None
    if job.get("trace"):
        import spantrace

        tracer = spantrace.Tracer()
        result["absent"] = tracer.install()
    try:
        if job["mode"] == "cold":
            command = job["commands"][0]
            if tracer is not None:
                tracer.command = command["name"]
            codes = [run_command(command, job["out_root"])]
        elif job["mode"] == "serve":
            serve(job["commands"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
        with open(job["result"], "w") as fh:
            json.dump(result, fh)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
