"""Every defaulted parameter in ``src/repro`` is a knob some caller turns.

A default that no caller ever overrides is a constant in disguise: it
doubles the configurations a reader has to rule out and tests nothing.
This guard lists every defaulted parameter of a function, method or
constructor in ``src/repro``, and every defaulted dataclass or
``NamedTuple`` field, and requires each one to be *turned* somewhere in
``src/``, ``bench/``, ``examples/`` or ``tests/``.  A parameter is turned
when

* a call passes it a value other than its default, by position or by
  keyword (``f(x, delay=0.5)``; ``f(x, delay=0.001)`` against a default
  of ``0.001`` is not a turn); or
* its name is a string key of a dict literal, a ``dict(...)`` call or a
  subscript store (a scenario's ``{"num_switches": 4}``,
  ``values["x"] = ...``), since such dicts reach parameters as
  ``**params``.

A dataclass field is also turned by a store on a receiver other than
``self`` (``config.x = ...``) or a ``dataclasses.replace`` keyword.

Calls resolve by callee name, so ``obj.m(...)`` reaches every ``def m``
in ``src/repro``.  A class name reaches its ``__init__`` or its fields,
``cls(...)`` the enclosing class, and ``super().__init__(...)`` the
enclosing class's bases.  Three dispatch shapes resolve as well:

* a scheduler that forwards positional arguments: a function whose last
  positional parameter is a ``Callable`` followed by ``*args``, so
  ``sim.schedule(delay, fn, a, b)`` calls ``fn(a, b)``;
* a ``**kwargs`` parameter handed on: keywords a function does not name
  reach every callee it passes ``**kwargs`` to
  (``bus.configure_faults(p, reorder_delay=0.5)`` reaches
  ``ChannelFaults``); and
* a callee bound to a local name (``consumer_cls = A if seq else B``,
  then ``consumer_cls(...)`` reaches both).

Exempt are ``field(default_factory=...)`` containers and
``field(init=False)`` fields: accumulated state, not options.  The guard
has no allowlist; a default that fails it becomes a named constant, and
any branch only a non-default value reached goes with it.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.autoconfig import FrameworkConfig

ROOT = Path(__file__).resolve().parent.parent
DEFINED = ROOT / "src" / "repro"
CALLERS = ("src", "bench", "examples", "tests")


@dataclass(eq=False)
class Option:
    """One defaulted parameter or dataclass field."""

    where: str
    #: ``f(name)`` for a parameter of ``f``, ``Record.name`` for a field.
    label: str
    name: str
    default: ast.AST
    turned: bool = False

    def __str__(self) -> str:
        return f"{self.where} {self.label}"


@dataclass
class Signature:
    """What a call by one callee name can reach: the options by name and
    by position (``None`` for a required or keyword-only slot)."""

    by_name: Dict[str, Option] = field(default_factory=dict)
    by_position: List[Optional[Option]] = field(default_factory=list)
    #: Every parameter name, defaulted or not.
    params: Set[str] = field(default_factory=set)
    #: Index of the forwarded callable for a ``(..., fn, *args)`` scheduler.
    forwards: Optional[int] = None
    #: Callees that receive this function's ``**kwargs``.
    kw_forwards: Set[str] = field(default_factory=set)


# ------------------------------------------------------------- definitions

def _decorator_names(node: ast.AST) -> Set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        names.add(target.attr if isinstance(target, ast.Attribute)
                  else getattr(target, "id", ""))
    return names


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``: its annotated fields are its
    constructor's parameters."""
    return "dataclass" in _decorator_names(node) or any(
        getattr(base, "id", "") == "NamedTuple" for base in node.bases)


def _field_default(value: Optional[ast.AST]
                   ) -> Tuple[bool, Optional[ast.AST]]:
    """``(in_init, default)`` for a record field's right-hand side.  The
    default is None for a required field and for an exempt
    ``default_factory`` one; an ``init=False`` field is not in
    ``__init__`` at all."""
    if value is None:
        return True, None
    if isinstance(value, ast.Call) and _name_of(value.func) == "field":
        keywords = {kw.arg: kw.value for kw in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False, None
        return True, keywords.get("default")
    return True, value


def _function_signature(node: ast.FunctionDef, qualname: str, where: str,
                        owner: Optional[str]) -> Signature:
    args = node.args
    positional = args.posonlyargs + args.args
    if owner is not None and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]
    signature = Signature(params={arg.arg for arg in positional
                                  + args.kwonlyargs})
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        option = None
        if index >= first_default:
            option = Option(where, f"{qualname}({arg.arg})", arg.arg,
                            args.defaults[index - first_default])
            signature.by_name[arg.arg] = option
        signature.by_position.append(option)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            signature.by_name[arg.arg] = Option(
                where, f"{qualname}({arg.arg})", arg.arg, default)
    if args.vararg is not None and positional \
            and "Callable" in ast.dump(positional[-1].annotation or ast.Pass()):
        signature.forwards = len(positional) - 1
    if args.kwarg is not None:
        signature.kw_forwards = {
            owner if callee == "cls" else callee
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and any(kw.arg is None and getattr(kw.value, "id", "")
                    == args.kwarg.arg for kw in call.keywords)
            for callee in [_name_of(call.func)] if callee} - {None}
    return signature


def _record_signature(node: ast.ClassDef, where_of, bases: List[Signature],
                      ) -> Signature:
    signature = Signature()
    for base in bases:
        signature.by_name.update(base.by_name)
        signature.by_position.extend(base.by_position)
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)) \
                or "ClassVar" in ast.dump(statement.annotation):
            continue
        name = statement.target.id
        in_init, default = _field_default(statement.value)
        if not in_init:
            continue
        option = None
        if default is not None:
            option = Option(where_of(statement), f"{node.name}.{name}", name,
                            default)
            signature.by_name[name] = option
        signature.by_position.append(option)
    return signature


@dataclass
class Census:
    """Every option in ``src/repro``, indexed by the callee names that
    reach it."""

    options: List[Option] = field(default_factory=list)
    callees: Dict[str, List[Signature]] = field(default_factory=dict)
    #: Record (dataclass) field options by field name.
    fields: Dict[str, List[Option]] = field(default_factory=dict)

    def add(self, callee: str, signature: Signature) -> None:
        self.callees.setdefault(callee, []).append(signature)


def collect(census: Census, tree: ast.AST, relpath: str,
            counted: bool = True) -> None:
    """Add a module's definitions to ``census``; only a ``counted``
    module's options are listed, a helper elsewhere only forwards."""
    records: Dict[str, Signature] = {}

    def where_of(node: ast.AST) -> str:
        return f"{relpath}:{node.lineno}"

    def visit(node: ast.AST, prefix: str, owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                signature = _function_signature(child, qualname,
                                                where_of(child), owner)
                if counted:
                    census.options.extend(signature.by_name.values())
                if child.name == "__init__" and owner is not None:
                    census.add(owner, signature)
                else:
                    census.add(child.name, signature)
                visit(child, f"{qualname}.", None)
            elif isinstance(child, ast.ClassDef):
                if _is_record(child):
                    bases = [records[base.id] for base in child.bases
                             if isinstance(base, ast.Name)
                             and base.id in records]
                    signature = _record_signature(child, where_of, bases)
                    records[child.name] = signature
                    own = [option for option in signature.by_name.values()
                           if counted
                           and option.label.startswith(f"{child.name}.")]
                    census.options.extend(own)
                    for option in own:
                        census.fields.setdefault(option.name, []).append(
                            option)
                    census.add(child.name, signature)
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)


# ------------------------------------------------------------------ calls

def _same_value(passed: ast.AST, default: ast.AST) -> bool:
    try:
        return ast.literal_eval(passed) == ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return ast.dump(passed) == ast.dump(default)


def _name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _referenced(node: ast.AST) -> Set[str]:
    return {name for sub in ast.walk(node)
            for name in [_name_of(sub)] if name is not None}


@dataclass
class Call:
    callees: Set[str]
    positional: List[ast.AST]
    keywords: Dict[str, ast.AST]


def calls(tree: ast.AST) -> Iterator[Call]:
    """Every call in a module, with the callee names it may reach."""

    def visit(node: ast.AST, cls: Optional[ast.ClassDef],
              aliases: Dict[str, Set[str]]) -> Iterator[Call]:
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            aliases = dict(aliases)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            aliases.setdefault(target.id, set()).update(
                                _referenced(sub.value))
        elif isinstance(node, ast.Call):
            yield Call(_callees(node, cls, aliases), list(node.args),
                       {kw.arg: kw.value for kw in node.keywords if kw.arg})
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls, aliases)

    yield from visit(tree, None, {})


def _callees(node: ast.Call, cls: Optional[ast.ClassDef],
             aliases: Dict[str, Set[str]]) -> Set[str]:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "__init__" \
            and isinstance(func.value, ast.Call) \
            and getattr(func.value.func, "id", "") == "super":
        return {_name_of(base) for base in (cls.bases if cls else [])} \
            - {None}
    if isinstance(func, ast.Name):
        if func.id == "cls" and cls is not None:
            return {cls.name}
        return {func.id} | aliases.get(func.id, set())
    name = _name_of(func)
    return {name} if name else set()


# ----------------------------------------------------------------- census

def _turn(signature: Signature, call: Call) -> None:
    for index, arg in enumerate(call.positional):
        if isinstance(arg, ast.Starred):
            break
        if index < len(signature.by_position):
            option = signature.by_position[index]
            if option is not None and not _same_value(arg, option.default):
                option.turned = True
    for name, value in call.keywords.items():
        option = signature.by_name.get(name)
        if option is not None and not _same_value(value, option.default):
            option.turned = True


def _keys_and_stores(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """String keys of dict literals and subscript stores; attribute names
    stored on a receiver other than ``self``."""
    keys: Set[str] = set()
    stores: Set[str] = set()
    for node in ast.walk(tree):
        candidates: List[ast.AST] = []
        if isinstance(node, ast.Dict):
            candidates = [key for key in node.keys if key is not None]
        elif isinstance(node, ast.Call) and _name_of(node.func) == "dict":
            keys.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store):
            candidates = [node.slice]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "id", "") != "self":
            stores.add(node.attr)
        keys.update(key.value for key in candidates
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
    return keys, stores


def _reach(census: Census, call: Call, depth: int = 0) -> None:
    """Turn what ``call`` passes, following forwarded arguments."""
    for callee in call.callees:
        for signature in census.callees.get(callee, ()):
            _turn(signature, call)
            if depth == 2:
                continue
            passed_on = {name: value for name, value in call.keywords.items()
                         if name not in signature.params}
            index = signature.forwards
            if index is not None and len(call.positional) > index:
                _reach(census, Call(_referenced(call.positional[index]),
                                    call.positional[index + 1:], passed_on),
                       depth + 1)
            if signature.kw_forwards and passed_on:
                _reach(census, Call(signature.kw_forwards, [], passed_on),
                       depth + 1)


def take_census(modules: Dict[str, ast.AST], defined: Set[str]) -> Census:
    """Options of the ``defined`` modules (by relative path), turned by the
    calls, keys and stores of all ``modules``."""
    census = Census()
    for relpath, tree in modules.items():
        collect(census, tree, relpath, counted=relpath in defined)
    keys: Set[str] = set()
    stores: Set[str] = set()
    for tree in modules.values():
        module_keys, module_stores = _keys_and_stores(tree)
        keys |= module_keys
        stores |= module_stores
        for call in calls(tree):
            if "replace" in call.callees:
                stores.update(call.keywords)
            _reach(census, call)
    for option in census.options:
        if option.name in keys:
            option.turned = True
    for name in stores:
        for option in census.fields.get(name, ()):
            option.turned = True
    return census


def _parse_tree(top: str) -> Dict[str, ast.AST]:
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(),
                                                   str(path))
            for path in sorted((ROOT / top).rglob("*.py"))}


def unturned_options() -> List[str]:
    modules: Dict[str, ast.AST] = {}
    for top in CALLERS:
        modules.update(_parse_tree(top))
    defined = {relpath for relpath in modules
               if (ROOT / relpath).is_relative_to(DEFINED)}
    census = take_census(modules, defined)
    return [str(option) for option in census.options if not option.turned]


def test_every_defaulted_parameter_is_turned_by_some_caller():
    unturned = unturned_options()
    assert not unturned, (
        f"src/repro has {len(unturned)} defaulted parameter(s) that no call "
        f"in src/, bench/, examples/ or tests/ turns; fold each into a "
        f"named constant:\n" + "\n".join(unturned))


def test_every_framework_config_field_is_an_option_under_census():
    census = Census()
    path = DEFINED / "core" / "autoconfig.py"
    collect(census, ast.parse(path.read_text()), "autoconfig.py")
    under_census = {option.name for option in census.options
                    if option.label.startswith("FrameworkConfig.")}
    assert under_census == {spec.name for spec
                            in dataclasses.fields(FrameworkConfig)}


def _census_of(source: str) -> Dict[str, bool]:
    tree = ast.parse(source)
    census = take_census({"m": tree}, {"m"})
    return {option.label: option.turned for option in census.options}


def test_the_scan_sees_each_kind_of_write():
    assert _census_of(
        "from dataclasses import dataclass, field\n"
        "from typing import Callable\n"
        "def keyword(a=1, b=2): pass\n"
        "keyword(a=1, b=3)\n"
        "def positional(a=1, b=2): pass\n"
        "positional(1, 3)\n"
        "class Base:\n"
        "    def __init__(self, a=1, b=2): pass\n"
        "class Built(Base):\n"
        "    def __init__(self, c=3):\n"
        "        super().__init__(a=5)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(4)\n"
        "class Sim:\n"
        "    def schedule(self, delay, fn: Callable, *args, label=''): pass\n"
        "def handler(x, flag=False, other=0): pass\n"
        "sim.schedule(1.0, handler, 1, True)\n"
        "def local(a=1, b=2): pass\n"
        "def pick():\n"
        "    chosen = local if x else keyword\n"
        "    chosen(b=9)\n"
        "def from_dict(keyed=1, unkeyed=2): pass\n"
        "params = {'keyed': 7}\n"
        "def configure(pattern, **params):\n"
        "    return Faults(**params)\n"
        "@dataclass\n"
        "class Faults:\n"
        "    drop: float = 0.0\n"
        "    jitter: float = 0.0\n"
        "configure('t', jitter=0.5)\n"
        "@dataclass\n"
        "class Config:\n"
        "    stored: int = 0\n"
        "    kept: int = 0\n"
        "    acc: list = field(default_factory=list)\n"
        "    state: int = field(default=0, init=False)\n"
        "config.stored = 5\n"
        "self.kept = 5\n") == {
        "keyword(a)": False, "keyword(b)": True,
        "positional(a)": False, "positional(b)": True,
        "Base.__init__(a)": True, "Base.__init__(b)": False,
        "Built.__init__(c)": True,
        "Sim.schedule(label)": False,
        "handler(flag)": True, "handler(other)": False,
        "local(a)": False, "local(b)": True,
        "from_dict(keyed)": True, "from_dict(unkeyed)": False,
        "Faults.drop": False, "Faults.jitter": True,
        "Config.stored": True, "Config.kept": False,
    }
