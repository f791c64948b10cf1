"""Symbolic Hecke characters and square classes.

Characters are elements of a finitely generated abelian group presented by
declared generators, each either of infinite order or of order two.  Every
handle is stored as an exponent vector over the generators, so products,
inverses, order-two tests and exact square detection are all decidable, and
the multiplication table is closed and associative by construction.

A square class is its token string alpha, with alpha * alpha = 1; the group
maps each declared token to the order-two character cutting out its
quadratic extension, and the token '1' to the trivial character.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping


@dataclass(frozen=True)
class HeckeCharacterHandle:
    """A named character with its exponent vector over the group's generators.

    free:    mapping generator -> integer exponent (infinite-order part)
    torsion: frozenset of order-two generators appearing with odd exponent
    """

    id: str
    free: tuple[tuple[str, int], ...]
    torsion: frozenset[str]

    @property
    def is_trivial(self) -> bool:
        return not self.free and not self.torsion

    @property
    def order_two(self) -> bool:
        return not self.free and bool(self.torsion)

    @property
    def square_root_exists(self) -> bool:
        return not self.torsion and all(e % 2 == 0 for _, e in self.free)


class CharacterGroup:
    """Declared character generators plus derived handles."""

    def __init__(self):
        self._free_gens: list[str] = []
        self._torsion_gens: list[str] = []
        self._classes: dict[str, HeckeCharacterHandle] = {"1": self.trivial()}

    # declarations -------------------------------------------------------

    def declare_generator(self, name: str, order_two: bool = False) -> HeckeCharacterHandle:
        if name in self._free_gens or name in self._torsion_gens:
            raise ValueError(f"generator {name!r} already declared")
        if order_two:
            self._torsion_gens.append(name)
            return self.element({}, {name})
        self._free_gens.append(name)
        return self.element({name: 1})

    def declare_class(self, token: str, character: HeckeCharacterHandle) -> None:
        """Declare a square class with its order-two character; declaring a
        token again is allowed with the same character only."""
        if token in self._classes:
            if self._classes[token] != character:
                raise ValueError(f"square class {token!r} is already declared with another character")
            return
        if not character.order_two:
            raise ValueError("nontrivial class needs an order-two character")
        self._classes[token] = character

    @property
    def classes(self) -> Mapping[str, HeckeCharacterHandle]:
        """The declared square classes, token -> character, '1' included."""
        return MappingProxyType(self._classes)

    def class_character(self, token: str) -> HeckeCharacterHandle:
        if token not in self._classes:
            raise ValueError(f"square class {token!r} is not declared")
        return self._classes[token]

    def class_of_character(self, chi: HeckeCharacterHandle) -> str | None:
        """The declared class whose character equals chi, if any."""
        for token, ch in self._classes.items():
            if ch == chi:
                return token
        return None

    # elements -------------------------------------------------------------

    def element(self, free: Mapping[str, int] | None = None, torsion: Iterable[str] = ()) -> HeckeCharacterHandle:
        free = dict(free or {})
        for g in free:
            if g not in self._free_gens:
                raise ValueError(f"unknown free generator {g!r}")
        tors = set(torsion)
        for g in tors:
            if g not in self._torsion_gens:
                raise ValueError(f"unknown order-two generator {g!r}")
        norm_free = tuple(sorted((g, e) for g, e in free.items() if e != 0))
        return HeckeCharacterHandle(self._name(norm_free, frozenset(tors)), norm_free, frozenset(tors))

    def trivial(self) -> HeckeCharacterHandle:
        return self.element({})

    @staticmethod
    def _name(free: tuple[tuple[str, int], ...], torsion: frozenset[str]) -> str:
        parts = [f"{g}^{e}" if e != 1 else g for g, e in free]
        parts += sorted(torsion)
        return "*".join(parts) if parts else "1"

    # arithmetic -----------------------------------------------------------

    def mul(self, a: HeckeCharacterHandle, b: HeckeCharacterHandle) -> HeckeCharacterHandle:
        free = dict(a.free)
        for g, e in b.free:
            free[g] = free.get(g, 0) + e
        torsion = set(a.torsion) ^ set(b.torsion)
        return self.element(free, torsion)

    def inv(self, a: HeckeCharacterHandle) -> HeckeCharacterHandle:
        return self.element({g: -e for g, e in a.free}, a.torsion)

    def pow(self, a: HeckeCharacterHandle, k: int) -> HeckeCharacterHandle:
        free = {g: k * e for g, e in a.free}
        torsion = set(a.torsion) if k % 2 else set()
        return self.element(free, torsion)

    def ratio(self, a: HeckeCharacterHandle, b: HeckeCharacterHandle) -> HeckeCharacterHandle:
        return self.mul(a, self.inv(b))
