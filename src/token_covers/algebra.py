"""Subgroups of Z_m and vertex permutations.  Automorphism groups, with
their stabilizer chains, are ``symmetry.AutGroup``.

Only cyclic voltage groups are implemented: every construction in this package
takes its voltages in Z_m, an int in 0..m-1, and for abelian groups the
left/right coset distinction vanishes.  A coset r + dZ_m is its canonical
representative r, 0 <= r < d; the covering lift decides coset incidence by a
congruence on representatives, never by member sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm


@dataclass(frozen=True)
class Subgroup:
    """The subgroup dZ_m = {0, d, 2d, ...} of Z_m, given by m and its
    index d; requires d | m.  The trivial subgroup {0} is the case d = m,
    and the cosets are r + dZ_m for 0 <= r < d."""

    modulus: int
    index: int

    def __post_init__(self):
        m, d = self.modulus, self.index
        if not (1 <= d <= m) or m % d != 0:
            raise ValueError(f"index {d} must divide modulus {m}")

    @property
    def size(self) -> int:
        return self.modulus // self.index

    def members(self, r: int = 0) -> range:
        """The coset r + dZ_m; r = 0 is the subgroup itself."""
        return range(r, self.modulus, self.index)


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
        for x in images:  # bools are ints, but not vertices
            if not (type(x) is int and 0 <= x < n) or seen[x]:
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
