"""Helpers shared by several test modules: seeded unimodular base changes,
local inclusion of one ideal in another, generator by generator, the
benchmark's job generators, and check-square jobs under polynomial base
changes whose verdict is known from their construction."""

from __future__ import annotations

import importlib.util
import pathlib
import random

from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix
from blocksplit.ring import Poly, VarTable, iter_monomials


def _random_poly(rng: random.Random, table: VarTable, degree: int, terms: int,
                 coeff_bound: int) -> Poly:
    pool = list(iter_monomials(len(table), degree + 1))
    acc = {}
    for _ in range(terms):
        mono = pool[rng.randrange(len(pool))]
        coeff = rng.randint(-coeff_bound, coeff_bound)
        if coeff:
            acc[mono] = acc.get(mono, 0) + coeff
    return Poly(table, acc)


def perfbench_workloads():
    """The benchmark's job generators, `perfbench/workloads.py` (they
    import nothing of blocksplit)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_unimodular(rng: random.Random, table: VarTable, n: int,
                      degree: int = 1, steps: int = 3) -> PolyMatrix:
    """Product of elementary transvections: determinant exactly 1."""
    M = PolyMatrix.identity(table, n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        p = _random_poly(rng, table, degree, 2, 2)
        E = [[Poly.const(table, 1 if r == c else 0) for c in range(n)]
             for r in range(n)]
        E[i][j] = p
        M = M * PolyMatrix(table, E)
    return M


def subset_local(I: Ideal, J: Ideal):
    """Is every generator of I in J locally?

    Returns (True, [Inclusion per generator]) or (False, first failing
    generator)."""
    witnesses = []
    for g in I.generators:
        ok, witness = member_local(g, J)
        if not ok:
            return False, g
        witnesses.append(witness)
    return True, witnesses


def _sympy_poly(rng: random.Random, symbols, low: int, high: int, terms: int):
    """A sympy sum of `terms` monomials of total degree in low..high with
    coefficients in {-2, -1, 1, 2}."""
    out = 0
    for _ in range(terms):
        mono = 1
        for _ in range(rng.randint(low, high)):
            mono *= rng.choice(symbols)
        out += rng.choice((-2, -1, 1, 2)) * mono
    return out


def _local_base_change(rng: random.Random, symbols, n: int):
    """A sympy n x n matrix U with det U(0) = +-1, so U is invertible over
    the local ring: rows of a unit upper triangular integer matrix in a
    random order, plus a term of degree 1 or 2 in some entries."""
    import sympy

    rows = list(range(n))
    rng.shuffle(rows)
    return sympy.Matrix(n, n, lambda i, j: (
        int(rows[i] == j) + (rng.choice((-1, 0, 1)) if rows[i] < j else 0)
        + (_sympy_poly(rng, symbols, 1, 2, 1) if rng.random() < 0.4 else 0)))


def local_sum(rng: random.Random, names: tuple[str, ...], size: int,
              near_miss: bool) -> dict:
    """A check-square job on A = U*B*V over Q[names], with U and V
    invertible over the local ring (det U(0)*det V(0) = +-1) but not
    constant, and its verdict as known from the construction.

    For a hidden sum, B = (f1) + A2 with A2 a (size-1) x (size-1) block
    of entries of order >= 1 and f2 = det A2, so A splits over the local
    ring and the job is Decomposable; its factors are (u*f1, f2) with
    u = det U * det V, so det A = (u*f1)*f2 exactly.  For a near miss,
    B = [[f1, g], [0, f2]] bordered by an identity block, with f1 and f2
    of order >= 2 and g of order 1: g lies in I_{n-1}(A) = I_{n-1}(B)
    but not in (u*f1, f2) + m^2, so by the paper's criterion the job is
    NotDecomposable.  Both kinds draw again until f1 and f2 are nonzero
    and sympy finds gcd(u*f1, f2) = 1, so every hypothesis holds: the
    factors vanish at the origin and are coprime."""
    import sympy

    symbols = sympy.symbols(names)
    while True:
        if near_miss:
            f1, f2 = (_sympy_poly(rng, symbols, 2, 3, 2) for _ in range(2))
            B = sympy.eye(size)
            B[0, 0], B[1, 1] = f1, f2
            B[0, 1] = (_sympy_poly(rng, symbols, 1, 1, 1)
                       + _sympy_poly(rng, symbols, 2, 2, 1))
        else:
            f1 = _sympy_poly(rng, symbols, 1, 2, 2)
            A2 = sympy.Matrix(size - 1, size - 1, lambda i, j: _sympy_poly(
                rng, symbols, 1, 2, 1))
            f2 = A2.det()
            B = sympy.diag(f1, A2)
        U, V = (_local_base_change(rng, symbols, size) for _ in range(2))
        F1, f2 = sympy.expand(U.det() * V.det() * f1), sympy.expand(f2)
        if f1 != 0 and f2 != 0 and sympy.gcd(F1, f2).is_number:
            break
    A = (U * B * V).applyfunc(sympy.expand)

    def text(e) -> str:
        return str(e).replace("**", "^")

    return {"doc": {"ring": {"vars": list(names)},
                    "matrix": [[text(e) for e in A.row(i)]
                               for i in range(size)],
                    "factors": [text(F1), text(f2)]},
            "expect": "NotDecomposable" if near_miss else "Decomposable"}
