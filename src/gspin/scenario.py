"""Scenario files: a JSON-compatible tree declaring characters, square
classes, cuspidal handles, parameters and requested computations.

Exact rationals are integers or strings 'p/q'.  Referenced ids must be
declared, and ids and names are unique.  A handle has 1 <= N <= 5, a tensor
origin only for N = 4, and characters that `check_selfdual` accepts; its
duality type is read off those characters, and a declared `sign` must agree
with it.  Every field is read by ``read`` or ``check``, which raise
ScenarioError naming its JSON path."""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .characters import CharacterGroup
from .exactlin import ExactMatrix
from .params import CuspidalHandle, FormalParameter, check_selfdual


class ScenarioError(ValueError):
    """Bad input: a wrong kind, a missing or unknown key, a bad or repeated id."""


@dataclass
class ParameterFixture:
    name: str
    parameter: FormalParameter
    root_number_minus: bool
    local_data: list[tuple[str, dict[str, int]]] = field(default_factory=list)


@dataclass
class Scenario:
    group: CharacterGroup
    parameters: dict[str, ParameterFixture]
    requests: list[Any]


REQUIRED = object()  # the default of a field that must be present
_KINDS = {str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}
_RATIONAL = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?")


def _at(path: str, key: str | int) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def check(value, kind: type, path: str):
    """value if it has the JSON kind (an integer is never a boolean)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{path}: expected {_KINDS[kind]}")
    return value


def read(node, path: str, schema: dict[str, tuple[type, Any]]) -> list:
    """The fields of the object at path, in schema order.  schema maps every
    allowed key to (kind, default); the default REQUIRED makes it required."""
    check(node, dict, path or "document")
    for key in node:
        if key not in schema:
            raise ScenarioError(f"{_at(path, key)}: unknown key")
    out = []
    for key, (kind, default) in schema.items():
        if key in node:
            out.append(check(node[key], kind, _at(path, key)))
        elif default is REQUIRED:
            raise ScenarioError(f"{_at(path, key)}: missing")
        else:
            out.append(default)
    return out


def entries(node, path: str, *kinds: type) -> list:
    """The items of a list with exactly one item of each kind."""
    if len(check(node, list, path)) != len(kinds):
        raise ScenarioError(f"{path}: expected {len(kinds)} entries")
    return [check(x, kind, _at(path, i)) for i, (x, kind) in enumerate(zip(node, kinds))]


def lookup(table: Mapping, name, what: str, path: str):
    """table[name], or ScenarioError '<path>: <what> <name>'."""
    if not isinstance(name, str) or name not in table:
        raise ScenarioError(f"{path}: {what} {name!r}")
    return table[name]


def _fresh(table: Mapping, name: str, path: str) -> str:
    if name in table:
        raise ScenarioError(f"{path}: duplicate {name!r}")
    return name


@contextmanager
def blame(path: str):
    """Report a ValueError of the declaration at path as bad input there."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{path}: {err}") from None


def parse_rational(value, path: str) -> Fraction:
    """An integer or a string 'p' or 'p/q' with q > 0; a float, a boolean or
    any other string is refused."""
    if (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, str) and _RATIONAL.fullmatch(value)
    ):
        return Fraction(value)
    raise ScenarioError(f"{path}: expected an integer or a string 'p/q'")


def parse_matrix(rows, path: str) -> ExactMatrix:
    """A matrix given as a list of rows of rationals."""
    rows = [check(row, list, _at(path, i)) for i, row in enumerate(check(rows, list, path))]
    with blame(path):
        return ExactMatrix([[parse_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
                            for i, row in enumerate(rows)])


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ScenarioError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return out


def parse_json(text: str):
    """The JSON document in text; bad syntax or a key repeated in one object is
    a ScenarioError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"parse error at line {err.lineno}, column {err.colno}: {err.msg}") from None


def load_scenario(text: str) -> Scenario:
    return build_scenario(parse_json(text))


def build_scenario(doc: dict) -> Scenario:
    chars_doc, class_docs, cusp_docs, param_docs, local_docs, requests = read(doc, "", {
        "characters": (dict, {}), "classes": (list, []), "cuspidals": (list, []),
        "parameters": (list, []), "local_data": (dict, {}), "requests": (list, []),
    })
    group = CharacterGroup()
    characters = {"1": group.trivial()}
    gens, defined = read(chars_doc, "characters", {"generators": (list, []), "defined": (dict, {})})
    for i, gen in enumerate(gens):
        at = f"characters.generators[{i}]"
        name, order_two = read(gen, at, {"name": (str, REQUIRED), "order_two": (bool, False)})
        _fresh(characters, name, f"{at}.name")
        characters[name] = group.declare_generator(name, order_two)
    for name, node in defined.items():
        at = _at("characters.defined", name)
        free, torsion = read(node, at, {"free": (dict, {}), "torsion": (list, [])})
        free = {g: check(e, int, _at(f"{at}.free", g)) for g, e in free.items()}
        torsion = [check(g, str, _at(f"{at}.torsion", k)) for k, g in enumerate(torsion)]
        with blame(at):
            characters[_fresh(characters, name, at)] = group.element(free, torsion)

    for i, node in enumerate(class_docs):
        at = f"classes[{i}]"
        token, char = read(node, at, {"token": (str, REQUIRED), "character": (str, REQUIRED)})
        character = lookup(characters, char, "undeclared character", f"{at}.character")
        with blame(at):
            group.declare_class(_fresh(group.classes, token, f"{at}.token"), character)

    cuspidals: dict[str, CuspidalHandle] = {}
    for i, node in enumerate(cusp_docs):
        at = f"cuspidals[{i}]"
        ident, n, omega, chi, sign, origin = read(node, at, {
            "id": (str, REQUIRED), "N": (int, REQUIRED), "central_character": (str, REQUIRED),
            "chi": (str, REQUIRED), "sign": (int, None), "tensor_origin": (list, None),
        })
        if not 1 <= n <= 5:
            raise ScenarioError(f"{at}.N: expected 1 to 5")
        if sign not in (None, 1, -1):
            raise ScenarioError(f"{at}.sign: expected 1 or -1")
        if origin is not None and n != 4:
            raise ScenarioError(f"{at}.tensor_origin: only a GL4 handle has one")
        handle = CuspidalHandle(
            id=_fresh(cuspidals, ident, f"{at}.id"),
            N=n,
            central_character=lookup(characters, omega, "undeclared character", f"{at}.central_character"),
            chi=lookup(characters, chi, "undeclared character", f"{at}.chi"),
            tensor_origin=tuple(entries(origin, f"{at}.tensor_origin", str, str)) if origin is not None else None,
        )
        if sign not in (None, handle.sign):
            raise ScenarioError(f"{at}.sign: declared {sign}, but the characters give {handle.sign}")
        with blame(at):
            check_selfdual(group, handle)
        cuspidals[ident] = handle

    parameters: dict[str, ParameterFixture] = {}
    for i, node in enumerate(param_docs):
        at = f"parameters[{i}]"
        name, chi, summand_docs, minus = read(node, at, {
            "name": (str, REQUIRED), "chi": (str, REQUIRED), "summands": (list, []),
            "root_number_minus": (bool, False),
        })
        summands = []
        for k, pair in enumerate(summand_docs):
            ref, d = entries(pair, f"{at}.summands[{k}]", str, int)
            summands.append((lookup(cuspidals, ref, "undeclared cuspidal", f"{at}.summands[{k}]"), d))
        chi = lookup(characters, chi, "undeclared character", f"{at}.chi")
        with blame(at):
            param = FormalParameter(chi=chi, summands=tuple(summands))
        parameters[_fresh(parameters, name, f"{at}.name")] = ParameterFixture(name, param, minus)
    for pname, places in local_docs.items():
        at = _at("local_data", pname)
        fixture = lookup(parameters, pname, "undeclared parameter", at)
        for k, place in enumerate(check(places, list, at)):
            label, values = entries(place, f"{at}[{k}]", str, dict)
            values = {s: check(v, int, _at(f"{at}[{k}][1]", s)) for s, v in values.items()}
            fixture.local_data.append((label, values))
    return Scenario(group=group, parameters=parameters, requests=requests)


def local_characters(fixture: ParameterFixture, sgroup) -> list[tuple[str, frozenset]]:
    out = []
    for k, (place, values) in enumerate(fixture.local_data):
        try:
            ch = sgroup.character(values)
        except ValueError as err:
            raise ScenarioError(f"{_at('local_data', fixture.name)}[{k}]: {err}") from None
        out.append((place, ch))
    return out
