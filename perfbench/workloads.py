"""Seeded job generators for the blocksplit benchmark, each job with an
answer known from outside the code under test.

Nothing here imports blocksplit: the polynomials that carry a known answer
(hidden direct-sum factors, constructed members and non-members) are built
with the small integer-coefficient arithmetic below, and the program sees
only the job documents.

Known answers come from three places:

* hand-derived verdicts for the fixed grids and rectangular jobs (the
  reasoning is next to each grid);
* construction: a vertex-wise base change of R1 + R2 is decomposable, and
  det K(R) = det K(R1) * det K(R2) because the base change is constant
  with determinant 1;
* construction again for membership: u * (c1*g1 + c2*g2) lies in (g1, g2),
  a monomial outside a monomial ideal does not, and an ideal with a
  generator of nonzero constant term is the whole local ring.  Random
  proper ideals carry no known answer; the benchmark referees them with
  the jet oracle outside the timed region.
"""

from __future__ import annotations

import itertools
import random

DECOMPOSABLE = "Decomposable"
NOT_DECOMPOSABLE = "NotDecomposable"
INCONCLUSIVE = "Inconclusive"

XY = ["x1", "x2"]

# Polynomials are {exponent tuple: int coefficient}, zero coefficients dropped.


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + sign * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def fmt(p: dict, names) -> str:
    """Text in the job-document grammar; terms sorted for determinism."""
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[mono]
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, mono) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else [])
                        + factors)
        pieces.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _random_poly(rng: random.Random, nvars: int, degree: int, terms: int,
                 nonzero: bool = False, constant: bool = True) -> dict:
    """Sum of `terms` random terms of degree <= `degree`, coefficients in
    [-5, 5] (the acceptance tests' generator, over exponent tuples);
    `constant=False` leaves out constant terms."""
    acc: dict = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0 if constant else 1, degree)):
            exps[rng.randrange(nvars)] += 1
        acc = _add(acc, {tuple(exps): rng.randint(-5, 5)})
    if nonzero and not acc:
        exps = [0] * nvars
        if not constant:
            exps[rng.randrange(nvars)] = 1
        acc = {tuple(exps): rng.randint(1, 5)}
    return acc


# ---------------------------------------------------------------------------
# small-jobs: the acceptance grids, a jet pass over the square grid,
# kernel-running rectangular jobs and 2-vertex hidden direct sums


def conj_grid() -> list[dict]:
    """[[x2, x1^k], [x1^l, x2]], k, l in 1..4.  The discriminant is
    4*x1^(k+l): odd k+l gives no square root at all, even k+l gives
    2*x1^((k+l)/2), which divides both off-diagonal entries only when
    k == l.  So Decomposable iff k == l, NotDecomposable otherwise."""
    jobs = []
    for k in range(1, 5):
        for l in range(1, 5):
            jobs.append({
                "id": f"conj-{k}-{l}",
                "command": "check-conj",
                "doc": {"ring": {"vars": XY},
                        "matrix": [["x2", f"x1^{k}"], [f"x1^{l}", "x2"]]},
                "expect": DECOMPOSABLE if k == l else NOT_DECOMPOSABLE,
            })
    return jobs


def square_grid(jet_order: int | None = None) -> list[dict]:
    """[[x2, x1^k, 0], [0, x2, x1^l], [-x1^(3n-k-l), 0, x2]] against
    f1 = x2 - x1^n, f2 = x2^2 + x2*x1^n + x1^(2n).  det = x2^3 - x1^(3n)
    = f1*f2 for every k, l; the factors are nonzero non-units, and f1 is
    irreducible and does not divide f2 (f2(x1^n) = 3*x1^(2n)), so every
    hypothesis passes and the verdict is Decomposable or NotDecomposable.
    The acceptance gate's rule: Decomposable exactly at k == l == n.
    Corners with 3n - k - l < 1 leave the setting and are skipped."""
    jobs = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                corner = 3 * n - k - l
                if corner < 1:
                    continue
                doc = {
                    "ring": {"vars": XY},
                    "matrix": [["x2", f"x1^{k}", "0"],
                               ["0", "x2", f"x1^{l}"],
                               [f"-x1^{corner}", "0", "x2"]],
                    "factors": [f"x2 - x1^{n}",
                                f"x2^2 + x2*x1^{n} + x1^{2 * n}"],
                }
                tag = "exact"
                if jet_order is not None:
                    doc["options"] = {"jet_order": jet_order}
                    tag = f"jet{jet_order}"
                jobs.append({
                    "id": f"square-{tag}-{n}-{k}-{l}",
                    "command": "check-square",
                    "doc": doc,
                    "expect": (DECOMPOSABLE if k == l == n
                               else NOT_DECOMPOSABLE),
                })
    return jobs


def rect_jobs() -> list[dict]:
    """2x3 matrices, so that the kernel hypothesis runs."""
    cases = [
        # I_2 = (x1*x2); the kernel holds (x2, -1, 0), whose unit
        # component escapes I_2
        ("rect-kernel-unit", [["x1", "x1*x2", "0"], ["0", "0", "x2"]],
         ["x1"], ["x2"], "kernel-condition"),
        # a zero column puts e3 in the kernel
        ("rect-zero-column", [["x1", "0", "0"], ["0", "x2", "0"]],
         ["x1"], ["x2"], "kernel-condition"),
        # I_2 = (x1, x2)^2 has grade 2, so the kernel is spanned by the
        # signed minors (x2^2, -x1*x2, x1^2) and the kernel hypothesis
        # holds; J1 = J2 = (x1, x2) multiply to I_2 but J1 cap J2 = m is
        # not inside m^2
        ("rect-not-coprime", [["x1", "x2", "0"], ["0", "x1", "x2"]],
         ["x1", "x2"], ["x1", "x2"], "ideal-coprimality"),
    ]
    return [{
        "id": name,
        "command": "check-rect",
        "doc": {"ring": {"vars": XY}, "matrix": rows,
                "ideals": {"J1": j1, "J2": j2}},
        "expect": INCONCLUSIVE,
        "failed_hypothesis": failed,
    } for name, rows, j1, j2, failed in cases]


NONZERO_SMALL = (-3, -2, -1, 1, 2, 3)


def _unimodular(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """Constant 2x2 integer matrix of determinant 1 and its inverse."""
    s, t = rng.choice(NONZERO_SMALL[1:-1]), rng.choice(NONZERO_SMALL[1:-1])
    g = [[1 + s * t, s], [t, 1]]        # [[1, s], [0, 1]] * [[1, 0], [t, 1]]
    if rng.random() < 0.5:              # also vary which corner is heavy
        g = [[1, s], [t, 1 + s * t]]    # [[1, 0], [t, 1]] * [[1, s], [0, 1]]
    inv = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]
    return g, inv


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def kronecker_names(nverts: int) -> list[str]:
    """The variables build_kronecker adjoins, in its order."""
    return ([f"x_{i + 1}_{j + 1}" for i in range(nverts)
             for j in range(nverts)] + [f"y_{i + 1}" for i in range(nverts)])


def kronecker_det(arrows: dict, nverts: int):
    """det K of a representation with rank 1 at every vertex, where
    arrows[(i, j)] scales the arrow j -> i: entry (i, j) of K is
    y_i*[i == j] + arrows[(i, j)] * x_i_j.  Returns (poly, names)."""
    names = kronecker_names(nverts)
    slot = {n: k for k, n in enumerate(names)}

    def var(name: str, c: int) -> dict:
        mono = [0] * len(names)
        mono[slot[name]] = 1
        return {tuple(mono): c} if c else {}

    entry = {}
    for i in range(nverts):
        for j in range(nverts):
            e = var(f"x_{i + 1}_{j + 1}", arrows[(i, j)])
            if i == j:
                e = _add(e, var(f"y_{i + 1}", 1))
            entry[(i, j)] = e
    total: dict = {}
    for perm in itertools.permutations(range(nverts)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2)
                         if a > b)
        term = {(0,) * len(names): 1}
        for i, j in enumerate(perm):
            term = _mul(term, entry[(i, j)])
        total = _add(total, term, -1 if inversions % 2 else 1)
    return total, names


def hidden_sum(rng: random.Random, nverts: int, job_id: str) -> dict:
    """check-quiver job on g.(R1 + R2): rank 2 at every vertex, all
    nverts^2 arrows, each Ri of rank 1 everywhere with small integer
    arrows, g a constant unimodular base change per vertex.

    Off-diagonal arrows of each Ri are nonzero, which makes det K(Ri) an
    invertible linear substitution of a generic determinant, hence
    irreducible; together with f1 != f2 that makes the factors coprime,
    so every hypothesis holds and the verdict is Decomposable.

    Loops are nonzero too and the base changes are never the identity:
    zeros make a job much cheaper, and with them the cost of a 3-vertex
    job spread over a range twice as wide."""
    while True:
        parts = [{(i, j): rng.choice(NONZERO_SMALL) for i in range(nverts)
                  for j in range(nverts)} for _ in range(2)]
        (f1, names), (f2, _) = (kronecker_det(p, nverts) for p in parts)
        if f1 != f2:
            break
    bases = [_unimodular(rng) for _ in range(nverts)]
    arrows_doc = []
    for i in range(nverts):
        for j in range(nverts):
            block = [[parts[0][(i, j)], 0], [0, parts[1][(i, j)]]]
            conj = _matmul(_matmul(bases[i][0], block), bases[j][1])
            arrows_doc.append({"from": j + 1, "to": i + 1,
                               "matrix": [[str(e) for e in row]
                                          for row in conj]})
    return {
        "id": job_id,
        "command": "check-quiver",
        "doc": {
            "ring": {"vars": []},
            "quiver": {"vertices": [{"id": v + 1, "rank": 2}
                                    for v in range(nverts)],
                       "arrows": arrows_doc},
            "factors": [fmt(f1, names), fmt(f2, names)],
        },
        "expect": DECOMPOSABLE,
        # the arrows of R1 and R2, [k][i][j] for the arrow j -> i
        "summands": [[[p[(i, j)] for j in range(nverts)]
                      for i in range(nverts)] for p in parts],
    }


SMALL_HIDDEN_SUMS = 8


def small_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = conj_grid() + square_grid() + square_grid(jet_order=8) + rect_jobs()
    jobs += [hidden_sum(rng, 2, f"hidden2-{k}")
             for k in range(SMALL_HIDDEN_SUMS)]
    return jobs


def quiver_sum(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [hidden_sum(rng, 3, f"hidden3-{k}") for k in range(count)]


# ---------------------------------------------------------------------------
# local-member: member_local on random, constructed and obstructed cases

# At four variables and degree 6 single instances ran past 20 s about once
# in a thousand, and rarer ones did at three variables and degree 4 and at
# four variables and degree 3; no run of fixed length averages that out.
# At two variables and degree 4 the slowest of 12000 instances took 0.2 s.
MEMBER_DEGREE = 4
MEMBER_VARS = 2


def _names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


def _member_case(case_id: str, kind: str, nvars: int, element: dict,
                 gens: list[dict], expect) -> dict:
    names = _names(nvars)
    return {"id": case_id, "kind": kind, "vars": names,
            "element": fmt(element, names),
            "ideal": [fmt(g, names) for g in gens], "expect": expect}


def random_member_case(rng: random.Random, case_id: str) -> dict:
    """The ROADMAP sweep shape: 1 to MEMBER_VARS variables, degree <=
    MEMBER_DEGREE, three terms in the element and one to three two-term
    generators.  An ideal with a generator of nonzero constant term is the
    whole local ring, so the element is a member; otherwise the answer is
    unknown here."""
    nvars = rng.randint(1, MEMBER_VARS)
    f = _random_poly(rng, nvars, MEMBER_DEGREE, 3, nonzero=True)
    gens = [_random_poly(rng, nvars, MEMBER_DEGREE, 2, nonzero=True)
            for _ in range(rng.randint(1, 3))]
    unit_ideal = any(sum(m) == 0 for g in gens for m in g)
    return _member_case(case_id, "unit-ideal" if unit_ideal else "random",
                        nvars, f, gens, True if unit_ideal else None)


def positive_case(rng: random.Random, case_id: str) -> dict:
    """u * (c1*g1 + c2*g2) with u(0) != 0 lies in (g1, g2) locally."""
    nvars = rng.randint(2, 3)
    while True:
        gens = [_random_poly(rng, nvars, 3, 2, nonzero=True, constant=False)
                for _ in range(2)]
        unit = _add({(0,) * nvars: rng.randint(1, 3)},
                    _random_poly(rng, nvars, 2, 2, constant=False))
        combo = _add(_mul(_random_poly(rng, nvars, 2, 2, nonzero=True),
                          gens[0]),
                     _mul(_random_poly(rng, nvars, 2, 2), gens[1]))
        f = _mul(unit, combo)
        if f:
            return _member_case(case_id, "positive", nvars, f, gens, True)


def negative_case(rng: random.Random, case_id: str) -> dict:
    """(x1^a, x2^b[, x1^c*x2^d]) is a monomial ideal, so a monomial lies in
    it locally iff a generator divides it.  The element is a monomial that
    no generator divides, padded by g1*(1 + x1), which lies in the ideal."""
    a, b = rng.randint(2, 4), rng.randint(2, 4)
    gens = [{(a, 0): 1}, {(0, b): 1}]
    if rng.random() < 0.5:
        c, d = rng.randint(1, a - 1), rng.randint(1, b - 1)
        gens.append({(c, d): 1})
    while True:
        i, j = rng.randint(0, a - 1), rng.randint(0, b - 1)
        if (i, j) == (0, 0):
            continue
        if not any(i >= m[0] and j >= m[1] for g in gens for m in g):
            break
    padding = _mul(gens[0], {(0, 0): 1, (1, 0): 1})
    f = _add({(i, j): 1}, padding)
    return _member_case(case_id, "negative", 2, f, gens, False)


def local_member(seed: int, count: int) -> list[dict]:
    """Blocks of ten: six random sweep cases, two constructed members and
    two constructed non-members, in seeded order within each block."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kinds = ["random"] * 6 + ["positive"] * 2 + ["negative"] * 2
        rng.shuffle(kinds)
        for kind in kinds:
            case_id = f"member-{len(cases)}"
            if kind == "random":
                cases.append(random_member_case(rng, case_id))
            elif kind == "positive":
                cases.append(positive_case(rng, case_id))
            else:
                cases.append(negative_case(rng, case_id))
    return cases[:count]
