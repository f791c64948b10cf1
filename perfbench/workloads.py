"""Seeded inputs, operations and output checks for the three workloads.

Each workload turns the benchmark seed into a deterministic sequence of
operations.  ``Workload.op(i)`` builds operation ``i`` from its own RNG, so
op ``i`` is the same whatever ops ran before it.  An operation has a ``run``
method (the only timed part: one call into gspin) and a ``check`` method that
verifies the result outside the timed call.

The raw inputs are plain integers and JSON documents made here; gspin only
receives the generated matrices, scenario files and seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import isqrt

HERE = os.path.dirname(os.path.abspath(__file__))


def _rng(seed: int, *salt) -> random.Random:
    """An RNG for one (seed, salt) pair, stable across Python versions."""
    key = "/".join(str(x) for x in (seed, *salt)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def _schedule(seed: int, block: list, i: int):
    """Entry of ``block`` for op ``i``: ``block`` shuffled afresh for each
    block of ops, so every run sees the stated mix exactly, not a binomial
    draw of it."""
    order = list(block)
    _rng(seed, "block", i // len(block)).shuffle(order)
    return order[i % len(block)]


# ---------------------------------------------------------------------------
# integer matrix helpers for the input generators


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _antidiag(n):
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def _diag(values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _form(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)) if gram[i][j])


def _reflection(gram, v):
    """(numerator, denominator) of the reflection in v: (qI - 2 v (Gv)^T) / q."""
    q = _form(gram, v, v)
    gv = [sum(gram[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
    n = len(v)
    return [[q * (i == j) - 2 * v[i] * gv[j] for j in range(n)] for i in range(n)], q


def _anisotropic(rng, gram, lo=-2, hi=2):
    while True:
        v = [rng.randint(lo, hi) for _ in gram]
        if _form(gram, v, v) != 0:
            return v


def _is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


def _block_diag(a, b):
    n, m = len(a), len(b)
    return [list(r) + [0] * m for r in a] + [[0] * n + list(r) for r in b]


# ---------------------------------------------------------------------------
# factor-stream

# The six Gram matrices of the dimension-4/6/8 acceptance criterion.
FACTOR_GRAMS = {
    4: [_antidiag(4), _diag([1, 2, -3, 5])],
    6: [_antidiag(6), _diag([1, 1, 2, -1, 3, 1])],
    8: [_antidiag(8), _diag([1, 1, 1, 2, -2, 3, -3, 5])],
}

# (kind, Gram index, reflection count) of each op in a block of 40: 90%
# square similitude factor in equal thirds over dims 4/6/8, each third split
# evenly over both Grams and over 2 and 4 reflections; 7.5% dim-4 products
# x*y with non-square nu; 2.5% dim-8 non-square normal forms.
FACTOR_BLOCK = (
    [(f"d{dim}", gram, refl) for dim in (4, 6, 8) for gram in (0, 1) for refl in (2, 4)] * 3
    + [("search4", None, None)] * 3
    + [("search8", None, None)]
)


def _square_element(rng, dim, gram_index, reflections):
    """g = lambda * (product of the given number of reflections), nu = lambda^2."""
    gram = FACTOR_GRAMS[dim][gram_index]
    num, den = _identity(dim), 1
    for _ in range(reflections):
        r, q = _reflection(gram, _anisotropic(rng, gram))
        num, den = _matmul(num, r), den * q
    lam = rng.randint(1, 4) * rng.choice((1, -1))
    g = [[Fraction(lam * x, den) for x in row] for row in num]
    return gram, g, Fraction(lam * lam)


def _trace_zero_root(rng, nu, b_range):
    """A 2x2 integer matrix A = [[a, b], [c, -a]] with A^2 = nu."""
    while True:
        a = rng.randint(-3, 3)
        b = rng.choice(b_range)
        if (nu - a * a) % b == 0:
            return [[a, b], [(nu - a * a) // b, -a]]


def _nonsquare_nu(rng):
    while True:
        nu = rng.choice((1, -1)) * rng.randint(2, 12)
        if not _is_square(nu):
            return nu


def _lagrangian_y(a_block):
    """y = (A, J A^T J) on the Lagrangian splitting of the antidiagonal form;
    y^T G y = nu G and y^2 = nu whenever A^2 = nu."""
    k = len(a_block)
    j = _antidiag(k)
    d = _matmul(_matmul(j, [list(r) for r in zip(*a_block)]), j)
    return _block_diag(a_block, d)


def _search4_element(rng):
    """x * y in dim 4: y a Lagrangian normal form with non-square nu and x an
    isometry involution of determinant +1 (1, -1 or r_u r_w with u, w
    orthogonal)."""
    gram = FACTOR_GRAMS[4][0]
    nu = _nonsquare_nu(rng)
    y = _lagrangian_y(_trace_zero_root(rng, nu, (1, -1, 2, -2, 3, -3)))
    pick = rng.random()
    if pick < 0.2:
        x_num, x_den = _identity(4), 1
    elif pick < 0.3:
        x_num, x_den = [[-v for v in row] for row in _identity(4)], 1
    else:
        while True:
            u = _anisotropic(rng, gram)
            w0 = [rng.randint(-2, 2) for _ in range(4)]
            qu = _form(gram, u, u)
            w = [qu * w0[i] - _form(gram, w0, u) * u[i] for i in range(4)]
            if _form(gram, w, w) != 0:
                break
        ru, qu = _reflection(gram, u)
        rw, qw = _reflection(gram, w)
        x_num, x_den = _matmul(ru, rw), qu * qw
    g = [[Fraction(v, x_den) for v in row] for row in _matmul(x_num, y)]
    return gram, g, Fraction(nu)


def _search8_element(rng):
    """A dim-8 normal form y = (A, J A^T J), A two 2x2 roots of nu."""
    nu = _nonsquare_nu(rng)
    a = _block_diag(_trace_zero_root(rng, nu, (1, -1)), _trace_zero_root(rng, nu, (1, -1)))
    return FACTOR_GRAMS[8][0], [[Fraction(v) for v in row] for row in _lagrangian_y(a)], Fraction(nu)


_FACTOR_MAKERS = {
    "d4": lambda rng, *variant: _square_element(rng, 4, *variant),
    "d6": lambda rng, *variant: _square_element(rng, 6, *variant),
    "d8": lambda rng, *variant: _square_element(rng, 8, *variant),
    "search4": lambda rng, *_: _search4_element(rng),
    "search8": lambda rng, *_: _search8_element(rng),
}


def factor_input(seed: int, i: int, spec: tuple | None = None):
    """(kind, gram, g, nu) of op ``i``: integer Gram, Fraction entries.
    ``spec`` overrides the scheduled entry of ``FACTOR_BLOCK``."""
    kind, *variant = spec or _schedule(seed, FACTOR_BLOCK, i)
    return (kind, *_FACTOR_MAKERS[kind](_rng(seed, "factor", i), *variant))


class FactorOp:
    def __init__(self, gs, kind, gram, g, nu):
        self.gs = gs
        self.kind = kind
        lin, inv = gs.exactlin, gs.involutions
        space = lin.QuadraticSpace(len(gram), lin.ExactMatrix(gram))
        self.element = inv.SimilitudeElement(space, lin.ExactMatrix(g), nu)

    def run(self):
        return self.gs.involutions.factor(self.element)

    def check(self, pair) -> bool:
        return self.gs.involutions.verify(self.element, pair)


class FactorStream:
    name = "factor-stream"
    nominal_op_s = 0.08  # wall time per op and pass in a traced run

    def __init__(self, gs, seed: int):
        self.gs, self.seed = gs, seed

    def op(self, i: int) -> FactorOp:
        return FactorOp(self.gs, *factor_input(self.seed, i))

    def warm_up(self):
        """One fixed element of each kind but the seconds-long dim-8 search."""
        specs = (("d4", 0, 4), ("d6", 1, 4), ("d8", 0, 4), ("search4", None, None))
        for n, spec in enumerate(specs):
            op = FactorOp(self.gs, *factor_input(0, -1 - n, spec))
            if not op.check(op.run()):
                raise RuntimeError(f"factor warm-up op {spec[0]} failed its check")


# ---------------------------------------------------------------------------
# scenario-run

# Character data shared by every scenario: eta0 gives the square chi_sq =
# eta0^2, chi0 a non-square chi, beta an order-two character with class alpha.
_CHARACTERS = {
    "generators": [{"name": "eta0"}, {"name": "chi0"}, {"name": "beta", "order_two": True}],
    "defined": {
        "chi": {"free": {"chi0": 1}},
        "chi2": {"free": {"chi0": 2}},
        "chibeta": {"free": {"chi0": 1}, "torsion": ["beta"]},
        "chisq": {"free": {"eta0": 2}},
        "eta": {"free": {"eta0": 1}},
        "etabeta": {"free": {"eta0": 1}, "torsion": ["beta"]},
        "betac": {"torsion": ["beta"]},
    },
}

# letter -> (parameter chi, [(cuspidal suffix, N, central character, sign, d)], rank)
ARTHUR_TYPES = {
    "a": ("chi", [("Pi4", 4, "chi2", -1, 1)], 0),
    "b": ("chi", [("pi1", 2, "chi", None, 1), ("pi2", 2, "chi", None, 1)], 1),
    "c": ("chi", [("piDi", 2, "chibeta", None, 2)], 0),
    "d": ("chisq", [("piSK", 2, "chisq", None, 1), ("e1", 1, "eta", None, 2)], 1),
    "e": ("chisq", [("e1", 1, "eta", None, 2), ("e2", 1, "etabeta", None, 2)], 1),
    "f": ("chisq", [("e1", 1, "eta", None, 4)], 0),
}

RESTRICTION_SHAPES = ("irreducible", "two_two_generic", "two_two_dihedral", "principal_series")
OFF_TARGETS = ("gl4", "gspin4", "gspin4a")  # every generated parameter fails these
SCENARIO_BLOCK = 4


def _scenario_plan(seed: int, i: int) -> tuple[list[str], bool]:
    """(restriction shapes, verify-endoscopy) of scenario ``i``.  Each block
    of four scenarios has restriction counts 1, 2, 2 and 3, every catalog
    shape twice and one verify-endoscopy, so runs differ in order and detail
    but not in how much heavy work they carry."""
    rng = _rng(seed, "scenario-block", i // SCENARIO_BLOCK)
    counts, endoscopy = [1, 2, 2, 3], [True, False, False, False]
    rng.shuffle(counts)
    rng.shuffle(endoscopy)
    while True:
        shapes = rng.sample(RESTRICTION_SHAPES, 4) + rng.sample(RESTRICTION_SHAPES, 4)
        parts = [shapes[sum(counts[:k]):sum(counts[:k + 1])] for k in range(4)]
        if all(len(set(part)) == len(part) for part in parts):
            j = i % SCENARIO_BLOCK
            return parts[j], endoscopy[j]


def scenario_input(seed: int, i: int):
    """(scenario document, expected answers, cli seed) of op ``i``."""
    rng = _rng(seed, "scenario", i)
    letters = [rng.choice(sorted(ARTHUR_TYPES)) for _ in range(rng.randint(2, 6))]
    return build_scenario(rng, letters, *_scenario_plan(seed, i))


def build_scenario(rng, letters: list[str], shapes: list[str], endoscopy: bool):
    """A scenario with one parameter per Arthur-type letter, the given
    restriction shapes and optionally verify-endoscopy; returns (document,
    expected answers, cli seed)."""
    cuspidals, parameters, local_data, requests = [], [], {}, []
    expected = {"classify": {}, "multiplicity": {}, "membership": {}, "restriction": 0}
    for p, letter in enumerate(letters):
        chi, summands, rank = ARTHUR_TYPES[letter]
        name = f"psi{p}{letter}"
        labels = []
        for suffix, n, omega, sign, d in summands:
            ident = f"{name}_{suffix}"
            node = {"id": ident, "N": n, "central_character": omega, "chi": chi}
            if sign is not None:
                node["sign"] = sign
            cuspidals.append(node)
            labels.append((ident, d))
        minus = letter == "d" and rng.random() < 0.5
        parameters.append({
            "name": name, "chi": chi, "root_number_minus": minus,
            "summands": [[ident, d] for ident, d in labels],
        })
        # local characters: +-1 on each summand, trivial on the all-flip
        places, product = [], {ident: 1 for ident, _ in labels}
        for v in range(rng.randint(0, 3)):
            flip = rank > 0 and rng.random() < 0.5
            values = {ident: -1 if flip else 1 for ident, _ in labels}
            places.append([f"v{v}", values])
            product = {k: product[k] * values[k] for k in product}
        local_data[name] = places
        eps = -1 if minus else 1
        expected["classify"][name] = {
            "letter": letter, "component_rank": rank, "epsilon": "sgn" if minus else "1",
        }
        expected["multiplicity"][name] = int(all(s == eps for s in product.values()))
        targets = ["gspin5"] + rng.sample(OFF_TARGETS, rng.randint(1, 2))
        requests.append({"op": "classify", "parameter": name})
        for t in targets:
            requests.append({"op": "membership", "parameter": name, "target": t})
            expected["membership"].setdefault(name, []).append(t == "gspin5")
        expected["membership"][name].sort()
        requests.append({"op": "multiplicity", "parameter": name, "target": "gspin5"})
    for shape in shapes:
        requests.append({"op": "restriction", "shape": shape})
        expected["restriction"] += 1
    if endoscopy:
        requests.append({"op": "verify-endoscopy"})
    rng.shuffle(requests)
    doc = {
        "characters": _CHARACTERS,
        "classes": [{"token": "alpha", "character": "betac"}],
        "cuspidals": cuspidals,
        "parameters": parameters,
        "local_data": local_data,
        "requests": requests,
    }
    expected["endoscopy"] = endoscopy
    return doc, expected, rng.randrange(2**32)


def check_scenario_report(payload: dict, expected: dict) -> bool:
    """The --out report against the answers known by construction."""
    classify, multiplicity, membership = {}, {}, {}
    restrictions, endoscopy = [], []
    for rec in payload.get("results", []):
        op = rec.get("op")
        if op == "classify":
            classify[rec["parameter"]] = {
                k: rec[k] for k in ("letter", "component_rank", "epsilon")
            }
        elif op == "multiplicity":
            multiplicity[rec["parameter"]] = rec["multiplicity"]
        elif op == "membership":
            membership.setdefault(rec["parameter"], []).append(rec["member"])
        elif op == "restriction":
            restrictions.append(rec["ok"] is True)
        elif op == "verify-endoscopy":
            endoscopy.append(rec["ok"] is True)
    membership = {k: sorted(v) for k, v in membership.items()}
    return (
        classify == expected["classify"]
        and multiplicity == expected["multiplicity"]
        and membership == expected["membership"]
        and len(restrictions) == expected["restriction"] and all(restrictions)
        and endoscopy == ([True] if expected["endoscopy"] else [])
    )


class ScenarioOp:
    def __init__(self, gs, kind, path, out_path, doc, expected, cli_seed):
        self.gs, self.kind = gs, kind
        self.path, self.out_path = path, out_path
        self.expected = expected
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        self.argv = ["run", path, "--out", out_path, "--seed", str(cli_seed)]

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.gs.cli.main(self.argv)
        return code, sink.getvalue()

    def check(self, result) -> bool:
        code, stdout = result
        if code != 0 or "FAIL" in stdout:
            return False
        with open(self.out_path) as fh:
            return check_scenario_report(json.load(fh), self.expected)


class ScenarioRun:
    name = "scenario-run"
    nominal_op_s = 0.5
    pool = 256

    def __init__(self, gs, seed: int, out_dir: str):
        self.gs, self.seed, self.out_dir = gs, seed, out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.inputs = [scenario_input(seed, i) for i in range(self.pool)]

    def op(self, i: int) -> ScenarioOp:
        doc, expected, cli_seed = self.inputs[i % self.pool]
        kind = "endoscopy" if expected["endoscopy"] else "plain"
        path = os.path.join(self.out_dir, f"scenario-{i % self.pool}.json")
        out = os.path.join(self.out_dir, "report.json")
        return ScenarioOp(self.gs, kind, path, out, doc, expected, cli_seed)

    def warm_up(self):
        """One fixed scenario: every Arthur type, the cheapest restriction
        shape and verify-endoscopy."""
        doc, expected, cli_seed = build_scenario(
            _rng(0, "warm-up"), sorted(ARTHUR_TYPES), ["principal_series"], True
        )
        path = os.path.join(self.out_dir, "warm-up.json")
        out = os.path.join(self.out_dir, "report.json")
        op = ScenarioOp(self.gs, "warm-up", path, out, doc, expected, cli_seed)
        if not op.check(op.run()):
            raise RuntimeError("scenario warm-up op failed its check")


# ---------------------------------------------------------------------------
# selftest-seeds

DIGESTS_FILE = os.path.join(HERE, "selftest_digests.json")
SELFTEST_SEEDS = 64  # the pool is selftest seeds 0..63, one recorded digest each


def selftest_digest(lines: list[str]) -> str:
    """SHA-256 of the report exactly as `gspin selftest` prints it."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def load_digests() -> dict[int, str]:
    with open(DIGESTS_FILE) as fh:
        return {int(k): v for k, v in json.load(fh)["digests"].items()}


def selftest_input(seed: int, i: int, pool: list[int]) -> int:
    return _rng(seed, "selftest", i).choice(pool)


class SelftestOp:
    kind = "selftest"

    def __init__(self, gs, st_seed, digest, corrupt=None):
        self.gs, self.st_seed, self.digest, self.corrupt = gs, st_seed, digest, corrupt

    def run(self):
        return self.gs.selftest.run_selftest(self.st_seed, corrupt=self.corrupt)

    def check(self, result) -> bool:
        ok, lines = result
        return (
            ok
            and lines[-1] == "selftest PASS"
            and all(line.startswith("pass ") for line in lines[1:-1])
            and selftest_digest(lines) == self.digest
        )


class SelftestSeeds:
    name = "selftest-seeds"
    nominal_op_s = 3.2

    def __init__(self, gs, seed: int):
        self.gs, self.seed = gs, seed
        self.digests = load_digests()
        self.pool = list(range(SELFTEST_SEEDS))
        if any(s not in self.digests for s in self.pool):
            raise RuntimeError(f"{DIGESTS_FILE} lacks a digest for a seed below {SELFTEST_SEEDS}")

    def op(self, i: int) -> SelftestOp:
        s = selftest_input(self.seed, i, self.pool)
        return SelftestOp(self.gs, s, self.digests[s])

    def warm_up(self):
        """Every check but the three seconds-long ones, once."""
        heavy = {"check_involutions", "check_endoscopy_diagrams", "check_restriction_counting"}
        for fn in self.gs.selftest.CHECKS:
            if fn.__name__ not in heavy and not fn(self.pool[0], False).ok:
                raise RuntimeError(f"selftest warm-up {fn.__name__} failed")
