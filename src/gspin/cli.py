"""Batch front end.

Subcommands:

  run <scenario.json> [--out <file>] [--seed <u64>]
  selftest [--seed <u64>]
  factor-involution <file>
  verify-endoscopy
  enumerate-weyl <group>

Exit codes: 0 success, 1 check failure, 2 input error.  Reports are
deterministic given (scenario, seed, version): all sampling is seeded and no
timestamps are emitted."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .dualgroups import GL4_GL1, GSPIN5, SP4_GL1, gspin_even_tag
from .exactlin import ExactMatrix, QuadraticSpace
from . import endoscopy
from .params import classify, component_group_table, multiplicity, psi_disc_membership
from .params import require_membership
from .restriction import project_parameter, restriction_count_identity, shape_catalog
from .scenario import REQUIRED, ScenarioError, load_scenario, local_characters, lookup, read
from .scenario import parse_json, parse_matrix, parse_rational
from .selftest import run_selftest
from .weyl import det_factor, enumerate_levis, enumerate_weyl_elements, is_regular
from .involutions import FactorizationUnsupportedError, SimilitudeElement, factor, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_GROUP_NAMES = {
    "gl4": GL4_GL1,
    "gspin5": GSPIN5,
    "gspin4": gspin_even_tag("1"),
    "gspin4a": gspin_even_tag("alpha"),
    "sp4": SP4_GL1,
}


def _matrix_json(m: ExactMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries()]


# ---------------------------------------------------------------------------
# request handlers for `run`: each returns its --out record and its lines


def _classify(scn, seed, at, name):
    fixture = lookup(scn.parameters, name, "undeclared parameter")
    cls = classify(scn.group, fixture.parameter, fixture.root_number_minus)
    trivial = cls.automorphy_character.is_trivial_on(cls.component_group)
    rec = {"parameter": fixture.name, "type": cls.arthur_type.label, "letter": cls.arthur_type.letter,
           "component_rank": cls.component_rank, "epsilon": "1" if trivial else "sgn",
           "sign_element": sorted(cls.sign_element.support())}
    line = ("classify[{parameter}]: type={type} letter={letter} component_rank={component_rank}"
            " epsilon={epsilon} sign_element={sign}").format(**rec, sign=rec["sign_element"] or "1")
    return rec, [line]


def _multiplicity(scn, seed, at, name, target):
    fixture = lookup(scn.parameters, name, "undeclared parameter")
    target = lookup(_GROUP_NAMES, target, "unknown target")
    # reject a psi outside the target's discrete set before reading its local data
    require_membership(scn.group, fixture.parameter, target)
    data = local_characters(fixture, component_group_table(fixture.parameter))
    m = multiplicity(scn.group, fixture.parameter, data, target, fixture.root_number_minus)
    return {"parameter": fixture.name, "multiplicity": m}, [f"multiplicity[{fixture.name}]: {m}"]


def _membership(scn, seed, at, name, target, alpha):
    fixture = lookup(scn.parameters, name, "undeclared parameter")
    tag = lookup(_GROUP_NAMES, target, "unknown target")
    if alpha is not None:
        alpha = lookup(scn.classes, alpha, "undeclared class", f"{at}.alpha")
        if tag.family != "gspin_even":
            raise ScenarioError(f"{at}.alpha: target {target!r} reads no square class")
    rep = psi_disc_membership(scn.group, fixture.parameter, tag, alpha)
    rec = {"parameter": fixture.name, "member": rep.ok, "reason": rep.reason}
    return rec, [f"membership[{fixture.name}]: {'yes' if rep.ok else 'no'} ({rep.reason})"]


def _restriction(scn, seed, at, shape):
    phi = lookup(shape_catalog(), shape, "unknown restriction shape")
    report = restriction_count_identity(project_parameter(phi))
    parts = {label: sorted(sorted(ch.rep) for ch in part) for label, part in report.constituents}
    rec = {"shape": shape, "ok": report.ok, "packet_sizes": list(report.packet_sizes),
           "dual_size": report.dual_size, "constituents": parts}
    return rec, [report.message()]


def _verify_endoscopy(scn, seed, at):
    ok, lines = _endoscopy_suite(seed)
    return {"ok": ok}, lines


def _selftest(scn, seed, at):
    ok, lines = run_selftest(seed)
    return {"ok": ok}, lines


# op -> (handler, {request key: default}); REQUIRED marks a key that must be given
_OPS = {
    "classify": (_classify, {"parameter": REQUIRED}),
    "multiplicity": (_multiplicity, {"parameter": REQUIRED, "target": "gspin5"}),
    "membership": (_membership, {"parameter": REQUIRED, "target": "gspin5", "alpha": None}),
    "restriction": (_restriction, {"shape": REQUIRED}),
    "verify-endoscopy": (_verify_endoscopy, {}),
    "selftest": (_selftest, {}),
}


def _run_requests(scn, seed: int) -> tuple[list[str], list[dict], bool]:
    lines, records = [], []
    for i, req in enumerate(scn.requests):
        if not isinstance(req, dict):
            raise ScenarioError(f"request {req!r} is not an object")
        op = req.get("op")
        handler, keys = lookup(_OPS, op, "unknown request op")
        at = f"requests[{i}]"
        _, *values = read(req, at, {"op": (str, REQUIRED), **{k: (object, d) for k, d in keys.items()}})
        record, out = handler(scn, seed, at, *values)
        records.append({"op": op, **record})
        lines.extend(out)
    return lines, records, all(rec.get("ok", True) for rec in records)


def _endoscopy_suite(seed: int) -> tuple[bool, list[str]]:
    reports = [endoscopy.verify_centralizer(d, seed=seed) for d in endoscopy.full_catalog()]
    reports.append(endoscopy.restriction_diagrams_commute(seed=seed, samples=20))
    return all(r.ok for r in reports), [r.message() for r in reports]


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            scn = load_scenario(fh.read())
        lines, records, ok = _run_requests(scn, args.seed)
    except (ScenarioError, OSError, UnicodeDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as err:
        print(f"computation error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for line in lines:
        print(line)
    if args.out:
        payload = {"version": __version__, "seed": args.seed, "results": records}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_selftest(args) -> int:
    ok, lines = run_selftest(seed=args.seed, corrupt=getattr(args, "corrupt", None))
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_factor_involution(args) -> int:
    try:
        with open(args.file) as fh:
            doc = parse_json(fh.read())
        gram, g, nu = read(doc, "", {k: (object, REQUIRED) for k in ("gram", "matrix", "similitude")})
        gram = parse_matrix(gram, "gram")
        space = QuadraticSpace(gram.rows, gram)
        element = SimilitudeElement(space, parse_matrix(g, "matrix"), parse_rational(nu, "similitude"))
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        pair = factor(element)
    except FactorizationUnsupportedError as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    good = verify(element, pair)
    payload = {"x": _matrix_json(pair.x), "y": _matrix_json(pair.y), "verified": good}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if good else EXIT_CHECK_FAILED


def cmd_verify_endoscopy(args) -> int:
    ok, lines = _endoscopy_suite(args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_enumerate_weyl(args) -> int:
    for levi in enumerate_levis(_GROUP_NAMES[args.group]):  # argparse checked the name
        elements = enumerate_weyl_elements(levi)
        regular = [w for w in elements if is_regular(w)]
        factors = sorted(str(det_factor(w)) for w in regular)
        print(
            f"levi[{levi.describe()}]: elements={len(elements)}"
            f" regular={len(regular)} det_factors={'[' + ','.join(factors) + ']'}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspin",
        description="Exact calculus for discrete parameters of GSp4/GSpin5 and companions",
    )
    parser.add_argument("--version", action="version", version=f"gspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="write a structured JSON report")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(fn=cmd_run)

    p_self = sub.add_parser("selftest", help="run the full invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--corrupt", help=argparse.SUPPRESS)  # test fixture hook
    p_self.set_defaults(fn=cmd_selftest)

    p_fac = sub.add_parser("factor-involution", help="factor a similitude into involutions")
    p_fac.add_argument("file")
    p_fac.set_defaults(fn=cmd_factor_involution)

    p_ver = sub.add_parser("verify-endoscopy", help="verify the endoscopic catalog")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify_endoscopy)

    p_enum = sub.add_parser("enumerate-weyl", help="list Levi classes and regular elements")
    p_enum.add_argument("group", choices=sorted(_GROUP_NAMES))
    p_enum.set_defaults(fn=cmd_enumerate_weyl)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
