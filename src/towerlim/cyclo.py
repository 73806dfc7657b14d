"""Exact arithmetic in cyclotomic rings Z[zeta] for zeta of l-power order.

Elements are coefficient vectors over the power integral basis
1, zeta, ..., zeta^(phi-1), phi = phi(l^n) = (l-1) l^(n-1), for an odd prime
l.  Reduction exploits the shape of Phi_{l^n}(x) = sum_{j<l} x^(j l^(n-1)):
exponents first fold mod l^n (zeta has order l^n), then each surviving
exponent phi + t in [phi, l^n) is eliminated by

    zeta^(phi+t) = -(zeta^t + zeta^(t+m) + ... + zeta^(t+(l-2)m)),  m = l^(n-1).

A ring is *exact* (``prec=None``, arbitrary integers) or *fixed-precision*
(coefficients reduced mod l^prec).  Every ring product, in every ring and
in Z[zeta_p, zeta_{l^n}] alike, is one call of :func:`convolve`: Kronecker
substitution packs each operand into a single Python integer, so the
coefficient product is one big-integer multiply whatever the modulus or
degree, and the result is then wrapped mod l^n and folded as above.
The integer polynomials of the package (zeta numerators, aggregate
powers) are multiplied by the same :func:`convolve`, and every norm that
Galois stability puts in the base ring comes down to integers through
:func:`demote`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CheckFailed, InputError
from .padic import check_odd_prime, is_prime


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Full linear convolution c_k = sum_{i+j=k} a_i b_j of two non-empty
    signed integer sequences, by Kronecker substitution (Harvey,
    arXiv:0712.4046).

    Each sequence becomes one integer sum x_i 2^(s i).  A slot of s bits
    holds any |c_k| <= max|a| max|b| min(len a, len b) with a sign bit to
    spare, rounded up to whole bytes, so one integer product carries the
    whole convolution without slots spilling into each other.  Packing and
    unpacking go through two's-complement bytes: flipping the top bit of
    every slot (``signs``) turns a slot's two's-complement pattern into its
    value offset by 2^(s-1), which is never negative, so no borrow crosses
    a slot.
    """
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    width = (bound.bit_length() + 8) // 8
    signs = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    prod = _pack(a, width, signs) * _pack(b, width, signs)
    out = ((prod + signs) ^ signs).to_bytes(n * width, "little")
    return [int.from_bytes(out[i : i + width], "little", signed=True)
            for i in range(0, n * width, width)]


def _pack(xs: Sequence[int], width: int, signs: int) -> int:
    """sum x_i 2^(8 width i), from width-byte two's-complement slots."""
    raw = b"".join([x.to_bytes(width, "little", signed=True) for x in xs])
    return (int.from_bytes(raw, "little") ^ signs) - signs


def stretch(poly: Sequence[int], s: int) -> list[int]:
    """The coefficients of poly(y^s)."""
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return out


def demote(rows: Iterable[Sequence[int]], what: str, **context) -> list[int]:
    """row[0] of each row of basis coefficients, which Galois stability
    puts in the base ring; the first row with a nonzero entry past row[0]
    is a CheckFailed naming `what`, its index and `context`."""
    out = []
    for i, row in enumerate(rows):
        if any(row[1:]):
            raise CheckFailed(
                f"{what}: coefficient {i} is not in the base ring; Galois "
                "stability violated", **context, coefficient=i)
        out.append(row[0])
    return out


class CycloRing:
    """The ring Z[zeta_{l^n}], optionally with coefficients mod l^prec."""

    def __init__(self, ell: int, level: int, prec: int | None = None):
        check_odd_prime(ell)
        if level < 1:
            raise InputError(f"level must be >= 1, got {level}")
        if prec is not None and prec < 1:
            raise InputError(f"precision must be >= 1 or None, got {prec}")
        self.ell = ell
        self.level = level
        self.prec = prec
        self.order = ell**level  # order of zeta
        self.m = ell ** (level - 1)
        self.phi = (ell - 1) * self.m
        self.qmod = ell**prec if prec is not None else None

    # -- construction -----------------------------------------------------

    def elem(self, coeffs: Iterable[int]) -> "CycloElem":
        c = list(coeffs)
        if len(c) > self.phi:
            raise InputError(f"got {len(c)} coefficients for degree {self.phi}")
        c += [0] * (self.phi - len(c))
        if self.qmod is not None:
            c = [x % self.qmod for x in c]
        return CycloElem(self, tuple(c))

    def zero(self) -> "CycloElem":
        return self.elem([])

    def one(self) -> "CycloElem":
        return self.elem([1])

    def from_int(self, a: int) -> "CycloElem":
        return self.elem([a])

    def zeta(self, e: int = 1) -> "CycloElem":
        return self.from_exponent_counts([(e, 1)])

    def from_exponent_counts(self, pairs: Iterable[tuple[int, int]]) -> "CycloElem":
        """Sum of c * zeta^e over (e, c) pairs, reduced to the basis."""
        buf = [0] * self.order
        for e, c in pairs:
            buf[e % self.order] += c
        return CycloElem(self, tuple(self._fold_top(buf)))

    # -- reduction helpers ------------------------------------------------

    def _fold_top(self, buf: list[int]) -> list[int]:
        """Reduce a length-l^n exponent buffer to the power basis."""
        out = buf[: self.phi]
        for t in range(self.order - self.phi):
            c = buf[self.phi + t]
            if c:
                for i in range(self.ell - 1):
                    out[t + i * self.m] -= c
        if self.qmod is not None:
            out = [x % self.qmod for x in out]
        return out

    def _mul_coeffs(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        # 2 phi - 1 < 2 l^n, so the exponents wrap mod l^n at most once.
        conv = convolve(a, b)
        full = conv[: self.order]
        for e, c in enumerate(conv[self.order :]):
            full[e] += c
        return self._fold_top(full)

    # -- ring relations ---------------------------------------------------

    def embed_target(self) -> "CycloRing":
        return CycloRing(self.ell, self.level + 1, self.prec)

    def same_ring(self, other: "CycloRing") -> bool:
        return (
            self.ell == other.ell
            and self.level == other.level
            and self.prec == other.prec
        )

    def __repr__(self) -> str:
        p = "exact" if self.prec is None else f"mod {self.ell}^{self.prec}"
        return f"CycloRing(l={self.ell}, level={self.level}, {p})"


class CycloElem:
    """An element of a :class:`CycloRing`, stored as basis coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs: tuple[int, ...]):
        assert len(coeffs) == ring.phi
        self.ring = ring
        self.coeffs = coeffs

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "CycloElem":
        if isinstance(other, CycloElem):
            if not self.ring.same_ring(other.ring):
                raise InputError("elements from different cyclotomic rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q = self.ring.qmod
        if q is None:
            c = tuple(x + y for x, y in zip(self.coeffs, o.coeffs))
        else:
            c = tuple((x + y) % q for x, y in zip(self.coeffs, o.coeffs))
        return CycloElem(self.ring, c)

    __radd__ = __add__

    def __sub__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q = self.ring.qmod
        if q is None:
            c = tuple(x - y for x, y in zip(self.coeffs, o.coeffs))
        else:
            c = tuple((x - y) % q for x, y in zip(self.coeffs, o.coeffs))
        return CycloElem(self.ring, c)

    def __rsub__(self, other) -> "CycloElem":
        return (-self).__add__(other)

    def __neg__(self) -> "CycloElem":
        q = self.ring.qmod
        if q is None:
            return CycloElem(self.ring, tuple(-x for x in self.coeffs))
        return CycloElem(self.ring, tuple(-x % q for x in self.coeffs))

    def __mul__(self, other) -> "CycloElem":
        if isinstance(other, int):
            q = self.ring.qmod
            if q is None:
                return CycloElem(self.ring, tuple(x * other for x in self.coeffs))
            return CycloElem(self.ring, tuple(x * other % q for x in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloElem(self.ring, tuple(self.ring._mul_coeffs(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloElem):
            if not self.ring.same_ring(other.ring):
                return False
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self.ring.from_int(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.ell, self.ring.level, self.ring.prec, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloElem({self.ring!r}, {list(self.coeffs)})"

    # -- structure maps ---------------------------------------------------

    def embed_up(self) -> "CycloElem":
        """Image under zeta_{l^n} -> (zeta_{l^(n+1)})^l, one level up.

        Basis exponent j maps to l*j < phi(l^(n+1)), so no reduction is
        needed: the coefficients land directly on basis positions.
        """
        r = self.ring
        up = r.embed_target()
        buf = [0] * up.phi
        for j, c in enumerate(self.coeffs):
            buf[r.ell * j] = c
        return CycloElem(up, tuple(buf))

    def galois_act(self, a: int) -> "CycloElem":
        """sigma_a: zeta -> zeta^a, for a coprime to l."""
        r = self.ring
        if a % r.ell == 0:
            raise InputError(f"sigma_{a} is not a Galois element (l | a)")
        buf = [0] * r.order
        for j, c in enumerate(self.coeffs):
            if c:
                buf[a * j % r.order] += c
        return CycloElem(r, tuple(r._fold_top(buf)))


class BiCycloRing:
    """Z[zeta_p, zeta_{l^n}] for a prime p != l, exact integers only.

    Elements are (p-1) x phi(l^n) integer matrices over the tensor basis
    zeta_p^a zeta^j, 0 <= a < p-1, 0 <= j < phi.  Row reduction uses
    zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)); column reduction is
    the l-power rule of :class:`CycloRing`.
    """

    def __init__(self, p: int, ell: int, level: int):
        if p < 2 or not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if p == ell:
            raise InputError("p must differ from l")
        self.p = p
        self.cyclo = CycloRing(ell, level, None)
        self.rows = p - 1
        self.cols = self.cyclo.phi

    def elem(self, mat: Sequence[Sequence[int]]) -> "BiCycloElem":
        rows = [list(r) for r in mat]
        if len(rows) > self.rows or any(len(r) > self.cols for r in rows):
            raise InputError("matrix exceeds basis dimensions")
        out = []
        for a in range(self.rows):
            row = rows[a] if a < len(rows) else []
            out.append(tuple(row + [0] * (self.cols - len(row))))
        return BiCycloElem(self, tuple(out))

    def zero(self) -> "BiCycloElem":
        return BiCycloElem(
            self, tuple(tuple([0] * self.cols) for _ in range(self.rows))
        )

    def from_int(self, c: int) -> "BiCycloElem":
        return self.from_exponent_counts({(0, 0): c})

    def from_cyclo(self, x: CycloElem) -> "BiCycloElem":
        if not x.ring.same_ring(self.cyclo):
            raise InputError("cyclotomic part belongs to a different ring")
        return self.from_exponent_counts(
            {(0, j): c for j, c in enumerate(x.coeffs) if c}
        )

    def from_exponent_counts(self, counts: dict) -> "BiCycloElem":
        """Sum of c * zeta_p^a zeta^e over {(a, e): c}, fully reduced."""
        order = self.cyclo.order
        buf = [[0] * order for _ in range(self.p)]
        for (a, e), c in counts.items():
            buf[a % self.p][e % order] += c
        return self._reduce(buf)

    def _reduce(self, buf: list[list[int]]) -> "BiCycloElem":
        """Reduce a p x l^n buffer of zeta_p^a zeta^e coefficients to the
        tensor basis: row p - 1 is subtracted from every other row, then
        each row folds by the l-power rule."""
        last = buf[-1]
        fold = self.cyclo._fold_top
        return BiCycloElem(self, tuple(
            tuple(fold([x - y for x, y in zip(row, last)])) for row in buf[:-1]))


class BiCycloElem:
    __slots__ = ("ring", "mat")

    def __init__(self, ring: BiCycloRing, mat: tuple[tuple[int, ...], ...]):
        self.ring = ring
        self.mat = mat

    def _coerce(self, other) -> "BiCycloElem":
        if isinstance(other, BiCycloElem):
            if other.ring.p != self.ring.p or not other.ring.cyclo.same_ring(
                self.ring.cyclo
            ):
                raise InputError("elements from different bicyclotomic rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, CycloElem):
            return self.ring.from_cyclo(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "BiCycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BiCycloElem(
            self.ring,
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.mat, o.mat)
            ),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "BiCycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BiCycloElem(
            self.ring,
            tuple(
                tuple(x - y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.mat, o.mat)
            ),
        )

    def __neg__(self) -> "BiCycloElem":
        return BiCycloElem(self.ring, tuple(tuple(-x for x in r) for r in self.mat))

    def __mul__(self, other) -> "BiCycloElem":
        if isinstance(other, int):
            return BiCycloElem(
                self.ring, tuple(tuple(x * other for x in r) for r in self.mat)
            )
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # Row a of each operand sits at offset a * stride in one sequence;
        # j1 + j2 < stride, so the rows of the product do not overlap.
        br = self.ring
        p, order, stride = br.p, br.cyclo.order, 2 * br.cols - 1
        pad = (0,) * (stride - br.cols)
        conv = convolve([c for row in self.mat for c in row + pad],
                        [c for row in o.mat for c in row + pad])
        buf = [[0] * order for _ in range(p)]
        for k, c in enumerate(conv):
            if c:
                a, j = divmod(k, stride)
                buf[a % p][j % order] += c
        return br._reduce(buf)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, BiCycloElem):
            if other.ring.p != self.ring.p or not other.ring.cyclo.same_ring(
                self.ring.cyclo
            ):
                return False
            return self.mat == other.mat
        if isinstance(other, (int, CycloElem)):
            o = self._coerce(other)
            return self.mat == o.mat
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.p, self.ring.cyclo.level, self.mat))

    def embed_up(self) -> "BiCycloElem":
        """Raise the l-power level by one (zeta_p row structure unchanged)."""
        br = self.ring
        up = BiCycloRing(br.p, br.cyclo.ell, br.cyclo.level + 1)
        ell = br.cyclo.ell
        out = []
        for row in self.mat:
            buf = [0] * up.cols
            for j, c in enumerate(row):
                buf[ell * j] = c
            out.append(tuple(buf))
        return BiCycloElem(up, tuple(out))

    def __repr__(self) -> str:
        return f"BiCycloElem(p={self.ring.p}, {self.ring.cyclo!r})"
