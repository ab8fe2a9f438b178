"""The cli workload: every `qpmap` subcommand run as a subprocess.

One command runs at a time, on the five fixtures, on two maps generated at
n = 8 (one symplectic, one generic) and on one malformed document. The gate
checks the exit code of the CLI contract and the shape of what the command
wrote.
"""

import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from qpmaps import documents, sampling
from workloads import Op

CHILD_TIMEOUT_S = 60


def run_child(argv, env, stdout_path, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion with stdout and stderr sent to files.

    Returns (exit code, wall seconds, peak RSS of the child in KiB); the
    child is killed and TimeoutError raised after ``timeout`` seconds.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]

    def expire(signum, frame):
        raise TimeoutError(f"{argv[3:4]} ran for more than {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Cli:
    """What users run: `python -m qpmaps <subcommand> ...`, one process per op."""

    name = "cli"
    SPEED_SLICE = "spawn"  # see speed.py
    # (subcommand, input, arguments, expected exit code, expected output).
    # Inputs name a fixture, a generated document (sym8, generic8) or the
    # malformed document; "{x0}" is the generated state of sym8; "{out}"
    # is an --out path. Output kinds: ("verdict", first word of stdout),
    # ("csv", rows, columns, "stdout" | "out"), ("map", "stdout" | "out"),
    # ("text", substring of stdout), ("map_or_text", substring) for --out,
    # ("empty",) for no stdout, ("error",) for an input error message.
    # Start-up makes most commands cost about the same; four of the twenty
    # do more work (a long horizon or 2000 samples), so p90 falls inside
    # them rather than in the noise of the start-up tail.
    ROUND = (
        ("check", "dim2_variant", (), 1, ("verdict", "NOT SYMPLECTIC")),
        ("check", "dim4", (), 0, ("verdict", "SYMPLECTIC")),
        ("check", "sym8", (), 0, ("verdict", "SYMPLECTIC")),
        ("check", "generic8", (), 1, ("verdict", "NOT SYMPLECTIC")),
        ("check", "malformed", (), 2, ("error",)),
        ("solve", "dim2", ("--x0", "1,2", "--t-min", "-20", "--t-max", "20", "--out", "{out}"),
         0, ("csv", 41, 3, "out")),
        ("solve", "sym8", ("--x0", "{x0}", "--t-min", "-2000", "--t-max", "2000"),
         0, ("csv", 4001, 9, "stdout")),
        ("solve", "dim2_variant", ("--x0", "1,2", "--t-max", "10"), 1, ("empty",)),
        ("iterate", "dim2", ("--x0", "1,2", "--steps", "30"), 0, ("csv", 31, 3, "stdout")),
        ("iterate", "sym8", ("--x0", "{x0}", "--steps", "2000", "--out", "{out}"),
         0, ("csv", 2001, 9, "out")),
        ("transform", "dim2", ("--qmt", "diag12"), 0, ("map", "stdout")),
        ("transform", "dim2_variant", ("--qmt", "solver_s1", "--out", "{out}"), 0, ("map", "out")),
        ("transform", "dim4", ("--solver-c", "--out", "{out}"), 0, ("map", "out")),
        ("transform", "sym8", ("--scale", "2"), 0, ("map", "stdout")),
        ("canonical", "dim2_variant", (), 0, ("map", "stdout")),
        ("canonical", "dim4", (), 0, ("text", "trivial")),
        ("canonical", "generic8", ("--out", "{out}"), 0, ("map_or_text", "degenerate")),
        ("verify", "dim2_variant", (), 1, ("text", "FAIL")),
        ("verify", "dim4", ("--seed", "{seed}", "--samples", "2000"), 0, ("text", "PASS")),
        ("verify", "sym8", ("--seed", "{seed}", "--samples", "2000"), 0, ("text", "PASS")),
    )
    TINY = (
        ROUND[1], ROUND[4], ROUND[5], ROUND[8], ROUND[10], ROUND[15],
        ("verify", "dim4", ("--samples", "10"), 0, ("text", "PASS")),
    )
    FIXTURES = {
        "dim2": "dim2.qpmap.json", "dim2_variant": "dim2_variant.qpmap.json",
        "dim4": "dim4.qpmap.json", "diag12": "diag12.qmt.json",
        "solver_s1": "solver_s1.qmt.json",
    }
    # sym8 is solved over t in [-2000, 2000]; |log k_i| <= 0.25 keeps that in range.
    PHI_BOUND = 0.25

    def __init__(self, root, tiny=False):
        self.root = Path(root)
        self.round = self.TINY if tiny else self.ROUND
        self.env = child_env(root)
        self.peak_kb = 0
        self.workdir = None

    def generate(self, seed, workdir):
        """Writes the generated documents into workdir; returns the ops."""
        self.workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        sym8 = sampling.random_symplectic_map(rng, 8, 8, phi_bound=self.PHI_BOUND)
        x0 = ",".join(repr(float(v)) for v in sampling.random_state(rng, 8))
        generic8 = sampling.random_valid_map(rng, 8, 8)
        verify_seed = str(int(rng.integers(0, 2**31)))
        texts = {
            "sym8": json.dumps(documents.map_to_document(sym8), indent=2),
            "generic8": json.dumps(documents.map_to_document(generic8), indent=2),
            "malformed": json.dumps({"n": 2, "m": 1, "lambda": ["1", "-1"],
                                     "A": [["2"], ["-2"]], "B": [["1", "1/0"]]}),
        }
        paths = {name: self.root / "fixtures" / file for name, file in self.FIXTURES.items()}
        for name, text in texts.items():
            paths[name] = self.workdir / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")

        ops = []
        for k, (sub, source, args, code, shape) in enumerate(self.round):
            out = self.workdir / f"out{k}"
            shown = [arg.format(x0=x0, seed=verify_seed, out="OUT") for arg in args]
            argv = [sys.executable, "-m", "qpmaps", sub, str(paths[source])]
            argv += [str(out) if a == "OUT" else str(paths[a]) if a in paths else a
                     for a in shown]
            label = " ".join([sub, source, *shown])
            doc = json.dumps({"command": label, "input": texts.get(source, source)})
            ops.append(Op(label, sub, doc, {"argv": argv, "out": out, "code": code,
                                             "shape": shape}))
        return ops

    def execute(self, op):
        out = op.expect["out"]
        if out.exists():
            out.unlink()
        stdout_path, stderr_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        code, _, peak_kb = run_child(op.expect["argv"], self.env, stdout_path, stderr_path)
        self.peak_kb = max(self.peak_kb, peak_kb)
        written = out.read_text(encoding="utf-8") if out.exists() else None
        return (code, stdout_path.read_text(encoding="utf-8"),
                stderr_path.read_text(encoding="utf-8"), written)

    def gate(self, op, result):
        code, stdout, stderr, written = result
        if code != op.expect["code"]:
            return f"exit {code}, expected {op.expect['code']}: {stderr.strip()[-200:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        kind, *spec = op.expect["shape"]
        if kind == "verdict":
            first = stdout.split("\n", 1)[0]
            if first.split(" (", 1)[0] != spec[0]:
                return f"first line {first!r}, expected {spec[0]}"
        elif kind == "csv":
            rows, cols, where = spec
            text = stdout if where == "stdout" else written
            lines = (text or "").splitlines()
            if len(lines) != rows + 1 or any(len(line.split(",")) != cols for line in lines):
                return f"CSV has {len(lines) - 1} rows, expected {rows} of {cols} columns"
        elif kind == "map":
            return _map_shape_error(stdout if spec[0] == "stdout" else written)
        elif kind == "map_or_text":
            if written is None and spec[0] not in stdout:
                return f"no --out document and no {spec[0]!r} note"
            if written is not None:
                return _map_shape_error(written)
        elif kind == "text":
            if spec[0] not in stdout:
                return f"{spec[0]!r} missing from stdout"
        elif kind == "empty":
            if stdout:
                return "unexpected stdout"
        elif kind == "error":
            if stdout or not stderr.strip():
                return "expected only an error message on stderr"
        return None

    def peak_rss_kb(self):
        return self.peak_kb


def _map_shape_error(text):
    try:
        doc = json.loads(text or "")
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    missing = {"n", "m", "lambda", "A", "B"} - set(doc)
    return f"map document lacks {sorted(missing)}" if missing else None


def import_probe(root, workdir, repeats=5):
    """Start-up costs of a `qpmap` process, as medians over fresh interpreters (ms)."""
    env = child_env(root)
    stdout_path, stderr_path = Path(workdir) / "probe.out", Path(workdir) / "probe.err"
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter();"
            " import qpmaps.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)")
    interpreter, numpy_import, total_import = [], [], []
    for _ in range(repeats):
        interpreter.append(run_child([sys.executable, "-c", "pass"], env,
                                     stdout_path, stderr_path)[1])
        run_child([sys.executable, "-c", code], env, stdout_path, stderr_path)
        numpy_s, import_s = map(float, stdout_path.read_text().split())
        numpy_import.append(numpy_s)
        total_import.append(import_s)
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(interpreter),
        "cli.numpy_import_ms": 1e3 * statistics.median(numpy_import),
        "cli.import_ms": 1e3 * statistics.median(total_import),
    }
