"""The benchmark's per-layer trace (bench/traced.py) wraps womble functions by
name, listed in its PATCHES. Each must resolve the way Tracer.install looks
it up, and each module-level one must be a name that womble code loads from
that module, so a renamed or bypassed function fails here and not only in a
traced benchmark run. bench/ is read as text: nothing of it is imported or
installed."""

import ast
import dis
import importlib
import pkgutil
import types
from functools import cached_property
from pathlib import Path

import pytest

import womble

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _patches() -> list:
    for node in ast.parse(TRACED.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED} defines no PATCHES")


def _loaded_names() -> set:
    """(module, name) for each global name that a function or class body of a
    womble module loads, and for each attribute it reads off a module that
    it names by a global."""
    found = set()
    for info in pkgutil.iter_modules(womble.__path__, "womble."):
        mod = importlib.import_module(info.name)
        top = compile(Path(mod.__file__).read_text(), mod.__file__, "exec")
        todo = [c for c in top.co_consts if isinstance(c, types.CodeType)]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            prev = None
            for ins in dis.get_instructions(code):
                if ins.opname == "LOAD_GLOBAL":
                    found.add((info.name, ins.argval))
                elif (ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                      and prev is not None and prev.opname == "LOAD_GLOBAL"):
                    owner = getattr(mod, prev.argval, None)
                    if isinstance(owner, types.ModuleType):
                        found.add((owner.__name__, ins.argval))
                prev = ins
    return found


PATCHES = _patches()


@pytest.fixture(scope="module")
def loaded():
    return _loaded_names()


@pytest.mark.parametrize("modname, attr", [p[:2] for p in PATCHES],
                         ids=[f"{m}.{a}" for m, a, _ in PATCHES])
def test_hook_resolves(modname, attr, loaded):
    mod = importlib.import_module(modname)
    owner, _, member = attr.rpartition(".")
    if owner:
        raw = vars(getattr(mod, owner)).get(member)
        assert isinstance(raw, (cached_property, staticmethod)) or callable(raw), attr
    else:
        assert callable(getattr(mod, member, None)), f"{modname} has no {member}"
        assert (modname, member) in loaded, (
            f"no womble code loads {member} from {modname}, so its span never opens")
