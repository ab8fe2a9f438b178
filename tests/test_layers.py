"""The exact layer runs without numpy; the float names load it on first use.

Each check of what loads runs in a fresh interpreter, since this test
process has long imported numpy; the count of imports per residual call
runs here.
"""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpmaps
from qpmaps import symplectic

from helpers import dim4_map

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
MAPS = ("dim2.qpmap.json", "dim4.qpmap.json", "dim2_variant.qpmap.json", "malformed.qpmap.json")
ARGS = (["check"], ["canonical"], ["transform", "--qmt", str(FIXTURES / "diag12.qmt.json")],
        ["transform", "--scale", "2"], ["transform", "--solver-c"])

# Runs every case through cli.main in one process, numpy blocked or not, and
# prints [exit code, stdout, stderr] per case as JSON. Fails when the cases
# loaded dataclasses or inspect, which cost start-up time and qpmaps needs
# neither, or when only exact subcommands ran and qpmaps.cli_float loaded.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
before = set(sys.modules)
from qpmaps.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = repr(exc)
    results.append([code, out.getvalue(), err.getvalue()])
assert sys.argv[1] != "blocked" or sys.modules["numpy"] is None
unwanted = {"dataclasses", "inspect"}
if all(argv[0] in ("check", "transform", "canonical") for argv in json.loads(sys.argv[2])):
    unwanted.add("qpmaps.cli_float")
loaded = unwanted & (set(sys.modules) - before)
assert not loaded, f"the cases loaded {sorted(loaded)}"
print(json.dumps(results))
"""


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cases(tmp):
    (tmp / MAPS[-1]).write_text('{"n": 2, "m": 1, "lambda": ["1", "1/0"]}')
    paths = [str(FIXTURES / name) for name in MAPS[:-1]] + [str(tmp / MAPS[-1])]
    return [[args[0], path, *args[1:]] for path in paths for args in ARGS]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cases = _cases(tmp_path_factory.mktemp("maps"))
    blocked, plain = (json.loads(_python("-c", RUNNER, mode, json.dumps(cases)))
                      for mode in ("blocked", "plain"))
    return cases, blocked, plain


@pytest.mark.parametrize("index", range(len(MAPS) * len(ARGS)),
                         ids=[f"{name.split('.')[0]}-{'_'.join(a.lstrip('-') for a in args[:2])}"
                              for name in MAPS for args in ARGS])
def test_exact_subcommands_run_without_numpy(runs, index):
    cases, blocked, plain = runs
    assert blocked[index] == plain[index], cases[index]
    assert plain[index][0] in (0, 1, 2)


def test_malformed_document_is_an_input_error(runs):
    cases, _, plain = runs
    assert [code for case, (code, _, _) in zip(cases, plain) if "malformed" in case[1]] == \
        [2] * len(ARGS)


FLOAT_ARGS = (["solve", "--x0", "1,1", "--t-max", "1"], ["iterate", "--x0", "1,1", "--steps", "1"],
              ["verify"])


@pytest.mark.parametrize("args", FLOAT_ARGS, ids=[args[0] for args in FLOAT_ARGS])
def test_float_subcommand_without_numpy_exits_2(args):
    argv = [args[0], str(FIXTURES / "dim2.qpmap.json"), *args[1:]]
    [(code, out, err)] = json.loads(_python("-c", RUNNER, "blocked", json.dumps([argv])))
    assert (code, out) == (2, "")
    assert err == f"qpmap {args[0]} needs numpy, which is not installed\n"


def test_residual_runs_no_import_after_its_first_call(monkeypatch):
    """The float layer is resolved once (maps.float_layer), not per call."""
    qp, x = dim4_map(), [1.0, 2.0, 0.5, 1.5]
    first = symplectic.symplectic_residual(qp, x)
    calls = []
    real_import = builtins.__import__

    def counting_import(*args, **kwargs):
        calls.append(args[0])
        return real_import(*args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    results = [symplectic.symplectic_residual(qp, x) for _ in range(10)]
    monkeypatch.undo()
    assert calls == []
    assert results == [first] * 10


def test_float_entry_points_without_numpy_raise_on_every_call():
    """A cache keeps no exception: each call raises ModuleNotFoundError anew,
    and importing the numpy-free modules still loads no numpy."""
    out = _python("-c", """if True:
        import sys
        sys.modules["numpy"] = None
        import qpmaps.symplectic as symplectic, qpmaps.transform as transform
        qp = symplectic.QPMap((1, -1), ((2,), (-2,)), ((1, 1),))
        t = transform.solver_qmt(1)
        calls = [lambda: symplectic.symplectic_residual(qp, (1.0, 2.0)),
                 lambda: symplectic.sampled_residuals(qp, 1, 0),
                 lambda: transform.push_state(t, (1.0, 2.0)),
                 lambda: transform.pull_state(t, (1.0, 2.0))]
        for call in calls * 2:
            try:
                call()
            except ModuleNotFoundError as exc:
                print(exc.name)
        print(sys.modules["numpy"])
    """)
    assert out.split() == ["numpy"] * 8 + ["None"]


def test_import_qpmaps_loads_no_numpy_until_a_float_name_is_used():
    out = _python("-c", "import sys, qpmaps; print('numpy' in sys.modules);"
                        " qpmaps.iterate; print('numpy' in sys.modules)")
    assert out.split() == ["False", "True"]


def test_qpmaps_loads_neither_dataclasses_nor_inspect():
    """Neither on import nor on solving; numpy itself loads inspect, so what
    `import numpy` loads is left out of the second check."""
    out = _python("-c", """if True:
        import sys
        before = set(sys.modules)
        import qpmaps
        print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
        import numpy
        before |= set(sys.modules)
        qpmaps.solve_closed_form(qpmaps.new_qp_map((1, -1), ((2,), (-2,)), ((1, 1),)), (1, 2))
        print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
    """)
    assert out.split() == ["[]", "[]"]


@pytest.mark.parametrize("name", [n for n in qpmaps.__all__ if n != "__version__"])
def test_public_name_is_its_submodule_object(name):
    obj = getattr(qpmaps, name)
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert name in dir(qpmaps)


def test_core_keeps_the_map_names():
    import qpmaps.core as core
    import qpmaps.maps as maps

    for name in ("QPMap", "new_qp_map"):
        assert getattr(core, name) is getattr(maps, name) is getattr(qpmaps, name)
    assert qpmaps.core is core
    assert qpmaps.solve.solve_closed_form is qpmaps.solve_closed_form


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qpmaps.no_such_name
    assert not hasattr(qpmaps, "no_such_name")
