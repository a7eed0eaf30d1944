"""Finite cyclic groups, subgroups, right cosets, vertex permutations, and
stabilizer chains of permutation groups, read off a base and strong
generating set the search kernel's first path already found.

Only cyclic voltage groups are implemented: every construction in this package
voltages over Z_m, and for abelian groups the left/right coset distinction
vanishes.  A coset is its canonical representative; the covering lift
decides coset incidence by a congruence on representatives, never by
member sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from operator import itemgetter
from typing import Iterator, Sequence


@dataclass(frozen=True)
class CyclicGroup:
    """Z_m with elements 0..m-1 under addition mod m."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.modulus)


@dataclass(frozen=True)
class Subgroup:
    """The subgroup dZ_m = {0, d, 2d, ...} of Z_m; requires d | m.

    The index [Z_m : dZ_m] equals d, and the trivial subgroup {0} is the
    case d = m.
    """

    group: CyclicGroup
    generator: int

    def __post_init__(self):
        m = self.group.modulus
        if not (1 <= self.generator <= m) or m % self.generator != 0:
            raise ValueError(f"generator {self.generator} must divide modulus {m}")

    @property
    def index(self) -> int:
        return self.generator

    @property
    def size(self) -> int:
        return self.group.modulus // self.generator

    def members(self) -> range:
        return range(0, self.group.modulus, self.generator)

    def cosets(self):
        """All [G:H] cosets, sorted by canonical representative."""
        return [Coset(self, r) for r in range(self.generator)]


@dataclass(frozen=True)
class Coset:
    """Right coset rep + dZ_m, canonicalized to 0 <= rep < d."""

    subgroup: Subgroup
    rep: int

    def __post_init__(self):
        object.__setattr__(self, "rep", self.rep % self.subgroup.generator)

    def members(self) -> range:
        return range(self.rep, self.subgroup.group.modulus, self.subgroup.generator)


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..n-1, stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if not (isinstance(x, int) and 0 <= x < n) or seen[x]:
                raise ValueError("images do not define a permutation")
            seen[x] = True

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Wrap an image tuple already known to be a permutation (a product
        of validated permutations), skipping ``__post_init__``."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(p * q)(x) = p(q(x))."""
        if self.degree != other.degree:
            raise ValueError("composing permutations of different degrees")
        return Permutation(tuple(self.images[x] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(tuple(inv))

    def orbits(self):
        """All cycles including fixed points, each starting at its minimum
        and listed in cycle order, sorted by minimum element."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycles(self):
        """Nontrivial cycles only (fixed points omitted)."""
        return [c for c in self.orbits() if len(c) > 1]

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def order(self) -> int:
        """Least t >= 1 with p^t = identity (lcm of cycle lengths)."""
        return lcm(*(len(c) for c in self.orbits())) if self.images else 1

    def fixed_points(self):
        return [i for i, x in enumerate(self.images) if i == x]


def _compose(p: tuple, q: tuple) -> tuple:
    """Image tuple of p * q, that is x -> p(q(x)).  Needs degree >= 2, as
    every permutation in a stabilizer chain has: for one index itemgetter
    returns a bare item, not a tuple."""
    return itemgetter(*q)(p)


class StabilizerChain:
    """Transversals of a permutation group along a base it is given with a
    strong generating set: the search kernel's first path and the
    generators it harvests along it (see
    ``search.automorphism_generators``), so no Schreier-Sims is run.

    ``generators`` must be strong relative to ``base``: for each i, those
    fixing ``base[:i]`` pointwise generate the pointwise stabilizer of
    ``base[:i]``.  Level i holds base point ``base[i]`` and a transversal
    taking each point y of the orbit of ``base[i]`` under those generators
    to a coset representative u with u(base[i]) = y.  Each group element
    is then exactly one product u_0 * u_1 * ... * u_{k-1} with u_i from
    transversal i, and the order is the product of the orbit lengths
    (Sims 1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    No generator fixes every base point, so the pointwise stabilizer of
    the base is trivial: only the identity fixes every base point.  Two
    elements with the same base images are then equal (g^-1 h fixes the
    base), so ``base_images`` names an element, and g^t is the identity
    exactly when it fixes every base point, so ``element_order`` is the
    lcm of the lengths of the base points' cycles alone.
    """

    def __init__(self, generators: Sequence[Permutation], base: Sequence[int], degree: int):
        self.degree = degree
        self.base = tuple(base)
        self._identity = tuple(range(degree))
        gens = [g.images for g in generators]
        self._transversal = [
            self._build_orbit(b, [g for g in gens if all(g[x] == x for x in self.base[:i])])
            for i, b in enumerate(self.base)]

    def _build_orbit(self, b: int, strong: list) -> dict:
        """Orbit point -> representative, in breadth-first discovery order."""
        trans = {b: self._identity}
        queue = [b]
        for y in queue:
            u = trans[y]
            for s in strong:
                z = s[y]
                if z not in trans:
                    trans[z] = _compose(s, u)
                    queue.append(z)
        return trans

    @property
    def orbit_lengths(self) -> tuple:
        """Basic orbit lengths |orbit of base[i] under the level-i group|."""
        return tuple(len(t) for t in self._transversal)

    @property
    def order(self) -> int:
        return prod(self.orbit_lengths)

    def base_images(self, g: Permutation) -> tuple:
        """g's images of the base points, which determine g in the group."""
        images = g.images
        return tuple(images[b] for b in self.base)

    def element_order(self, g: Permutation) -> int:
        """The order of the group element g: the lcm of the lengths of the
        g-cycles through the base points (1 for an empty base)."""
        images = g.images
        order = 1
        for b in self.base:
            length, x = 1, images[b]
            while x != b:
                length += 1
                x = images[x]
            order = lcm(order, length)
        return order

    def elements(self) -> Iterator[Permutation]:
        """Every group element once, identity first, in a fixed order: the
        products u_0 * ... * u_{k-1} with the level-0 factor varying
        slowest and each transversal in orbit discovery order."""
        levels = [list(t.values()) for t in self._transversal]
        if not levels:
            yield Permutation(self._identity)
            return
        last = len(levels) - 1
        trusted = Permutation._trusted

        def walk(i, prefix):
            if i == last:
                for u in levels[i]:
                    yield trusted(_compose(prefix, u))
            else:
                for u in levels[i]:
                    yield from walk(i + 1, _compose(prefix, u))

        yield from walk(0, self._identity)

