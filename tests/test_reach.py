"""The engine modules hold only what a command runs, and the named oracles.

A fresh interpreter runs the golden commands (``test_golden``) and the
README's command block (``test_readme``) under a profile hook and lists
every function and method of ``detectors``, ``protocol``, ``pls``,
``params``, ``sweep`` and ``rng`` that none of them called on any thread
of that interpreter (a pool worker, another process, is not seen).  The
oracles, independent checks that no command runs, are exempt, with the
module functions they call: ``eve_observe``, ``ml_detect_batch``,
``empirical_eve_confusion``, ``DerivedStats.mixture_tables``, the view
of the state table that the benchmark's frozen oracle reads, and
``ThresholdSet.label``, the interval rule's labels: the tally and the
trace read its keep mask, which the tests check against these labels,
and ``demos/demo_detectors.py`` prints them.
``rhkljn.channel``, the raw-sample oracle, and ``rhkljn.exact``, the
closed-form one, are modules of their own and not checked.  Anything else
that no command reaches is dead code or an oracle that needs a name here.

Run as a script, this file prints the unreached names as JSON.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent

ORACLES = {
    "eve_observe",
    "ml_detect_batch",
    "empirical_eve_confusion",
    "DerivedStats.mixture_tables",
    "ThresholdSet.label",
}


def functions(module) -> dict:
    """The code object of each function and method defined in ``module``'s
    source, mapped to its qualified name (generated dataclass methods are
    not in the source, and are left out)."""
    found = {}
    for name, obj in vars(module).items():
        members = [(f"{name}.{k}", v) for k, v in vars(obj).items()] if inspect.isclass(obj) else [(name, obj)]
        for qualname, member in members:
            member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
            code = getattr(inspect.unwrap(member), "__code__", None) if callable(member) else None
            if code is not None and code.co_filename == module.__file__:
                found[code] = qualname
    return found


def unreached() -> list[str]:
    sys.path.insert(0, str(HERE))
    import test_golden
    import test_readme
    from rhkljn import cli, detectors, params, pls, protocol, rng, sweep

    argvs = [test_golden.golden_argv(name) for name in sorted(test_golden.STDOUT_SHA256)]
    argvs.append(test_golden.TRACE_ARGV + ("--trace", "trace.log"))
    argvs += [argv if argv[0] == "stats" else argv + ["--bits", "300"] for argv in test_readme.COMMANDS]
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    # the threads a command starts too: a --jobs pool pickles its tasks on
    # a queue's feeder thread
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    names = {}
    for module in (detectors, params, pls, protocol, rng, sweep):
        names.update({code: (module.__name__, name) for code, name in functions(module).items()})
    # an oracle is exempt with the module-level functions it calls, and theirs
    exempt = {code for code, (_, name) in names.items() if name in ORACLES}
    while True:
        called = {name for code in exempt for name in code.co_names}
        more = {code for code, (_, name) in names.items() if name in called} - exempt
        if not more:
            break
        exempt |= more
    return sorted(f"{module}.{name}" for code, (module, name) in names.items() if code not in reached | exempt)


def test_every_engine_function_is_reached_by_a_command(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_oracles_exist():
    # a renamed oracle would otherwise leave its exemption behind unnoticed
    from rhkljn import detectors, params, pls, protocol

    defined = {name for module in (detectors, pls, protocol) for name in vars(module)}
    defined |= {f"DerivedStats.{name}" for name in vars(params.DerivedStats)}
    defined |= {f"ThresholdSet.{name}" for name in vars(detectors.ThresholdSet)}
    assert ORACLES <= defined


if __name__ == "__main__":
    print(json.dumps(unreached()))
