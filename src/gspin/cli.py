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
from .characters import AlphaClass
from .dualgroups import GL4_GL1, GSPIN5, SP4_GL1, gspin_even_tag
from .exactlin import ExactMatrix, QuadraticSpace
from . import endoscopy
from .params import (
    classify,
    component_group_table,
    multiplicity,
    psi_disc_membership,
    require_membership,
)
from .restriction import (
    packet_members,
    project_parameter,
    restrict_member,
    restriction_count_identity,
    shape_catalog,
)
from .scenario import ScenarioError, load_scenario, local_characters, parse_matrix, parse_rational
from .selftest import run_selftest
from .weyl import det_factor, enumerate_levis, enumerate_weyl_elements, is_regular
from .involutions import (
    FactorizationUnsupportedError,
    SimilitudeElement,
    factor,
    verify,
)

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
# request handlers for `run`


def _run_requests(scn, seed: int) -> tuple[list[str], list[dict], bool]:
    lines: list[str] = []
    records: list[dict] = []
    ok = True
    for req in scn.requests:
        if not isinstance(req, dict):
            raise ScenarioError(f"request {req!r} is not an object")
        op = req.get("op")
        if op == "classify":
            fixture = _fixture(scn, req)
            cls = classify(scn.group, fixture.parameter, fixture.root_number_minus)
            eps = (
                "sgn"
                if not cls.automorphy_character.is_trivial_on(cls.component_group)
                else "1"
            )
            s_elt = sorted(cls.sign_element.support())
            lines.append(
                f"classify[{fixture.name}]: type={cls.arthur_type.label}"
                f" letter={cls.arthur_type.letter}"
                f" component_rank={cls.component_rank} epsilon={eps}"
                f" sign_element={s_elt if s_elt else '1'}"
            )
            records.append(
                {
                    "op": op,
                    "parameter": fixture.name,
                    "type": cls.arthur_type.label,
                    "letter": cls.arthur_type.letter,
                    "component_rank": cls.component_rank,
                    "epsilon": eps,
                    "sign_element": s_elt,
                }
            )
        elif op == "multiplicity":
            fixture = _fixture(scn, req)
            target = _target(req)
            # reject a psi outside the target's discrete set before reading its local data
            require_membership(scn.group, fixture.parameter, target)
            data = local_characters(fixture, component_group_table(fixture.parameter))
            m = multiplicity(
                scn.group,
                fixture.parameter,
                data,
                target=target,
                root_number_minus=fixture.root_number_minus,
            )
            lines.append(f"multiplicity[{fixture.name}]: {m}")
            records.append({"op": op, "parameter": fixture.name, "multiplicity": m})
        elif op == "membership":
            fixture = _fixture(scn, req)
            target = _target(req)
            alpha = AlphaClass(req["alpha"]) if "alpha" in req else None
            rep = psi_disc_membership(scn.group, fixture.parameter, target, alpha)
            lines.append(
                f"membership[{fixture.name}]: {'yes' if rep.ok else 'no'} ({rep.reason})"
            )
            records.append(
                {"op": op, "parameter": fixture.name, "member": rep.ok, "reason": rep.reason}
            )
        elif op == "verify-endoscopy":
            sub_lines, sub_ok = _verify_endoscopy_lines(seed)
            lines.extend(sub_lines)
            records.append({"op": op, "ok": sub_ok})
            ok &= sub_ok
        elif op == "restriction":
            shape = req.get("shape")
            catalog = shape_catalog()
            if not isinstance(shape, str) or shape not in catalog:
                raise ScenarioError(f"unknown restriction shape {shape!r}")
            proj = project_parameter(catalog[shape])
            report = restriction_count_identity(proj)
            ok &= report.ok
            parts = {
                m.label or "packet": sorted(sorted(ch.rep) for ch in restrict_member(m, proj))
                for m in packet_members(catalog[shape])
            }
            lines.append(report.message())
            records.append(
                {
                    "op": op,
                    "shape": shape,
                    "ok": report.ok,
                    "packet_sizes": list(report.packet_sizes),
                    "dual_size": report.dual_size,
                    "constituents": {k: [list(x) for x in v] for k, v in parts.items()},
                }
            )
        elif op == "selftest":
            sub_ok, sub_lines = run_selftest(seed)
            lines.extend(sub_lines)
            records.append({"op": op, "ok": sub_ok})
            ok &= sub_ok
        else:
            raise ScenarioError(f"unknown request op {op!r}")
    return lines, records, ok


def _fixture(scn, req):
    name = req.get("parameter")
    if not isinstance(name, str) or name not in scn.parameters:
        raise ScenarioError(f"undeclared parameter {name!r}")
    return scn.parameters[name]


def _target(req):
    name = req.get("target", "gspin5")
    if not isinstance(name, str) or name not in _GROUP_NAMES:
        raise ScenarioError(f"unknown target {name!r}")
    return _GROUP_NAMES[name]


def _verify_endoscopy_lines(seed: int) -> tuple[list[str], bool]:
    lines = []
    ok = True
    for d in endoscopy.full_catalog():
        report = endoscopy.verify_centralizer(d, seed=seed)
        ok &= report.ok
        lines.append(report.message())
    diagrams = endoscopy.restriction_diagrams_commute(seed=seed, samples=20)
    ok &= diagrams.ok
    lines.append(diagrams.message())
    return lines, ok


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            scn = load_scenario(fh.read())
        lines, records, ok = _run_requests(scn, args.seed)
    except ScenarioError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FileNotFoundError as err:
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
            doc = json.load(fh)
        gram = parse_matrix(doc["gram"])
        g = parse_matrix(doc["matrix"])
        nu = parse_rational(doc["similitude"])
        space = QuadraticSpace(gram.rows, gram)
        element = SimilitudeElement(space, g, nu)
    except (KeyError, ValueError, json.JSONDecodeError, FileNotFoundError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        pair = factor(element)
    except FactorizationUnsupportedError as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    good = verify(element, pair)
    print(json.dumps(
        {
            "x": _matrix_json(pair.x),
            "y": _matrix_json(pair.y),
            "verified": good,
        },
        indent=2,
        sort_keys=True,
    ))
    return EXIT_OK if good else EXIT_CHECK_FAILED


def cmd_verify_endoscopy(args) -> int:
    lines, ok = _verify_endoscopy_lines(seed=args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_enumerate_weyl(args) -> int:
    try:
        group = _GROUP_NAMES[args.group]
    except KeyError:
        print(f"input error: unknown group {args.group!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for levi in enumerate_levis(group):
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
