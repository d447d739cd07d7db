import json
import random
from fractions import Fraction
from math import prod

import pytest
from test_golden_qforms import seeded_grams

from liftcalc import qforms
from liftcalc.intmat import BoundError, InputError
from liftcalc.qforms import (
    QForm,
    diagonalize,
    e8_form,
    even_clifford_split,
    even_clifford_split_oracle,
    hilbert_symbol,
    hyperbolic_plane,
    invariants,
    k3_primitive,
    quaternion_places,
    quaternion_splits_by_search,
    squarefree_class,
)


def test_from_gram_keeps_fraction_entries():
    # a parsed Gram file shares one Fraction per distinct entry and hands an
    # integral entry over as an int; wrapping either again would double the
    # time of a large file
    half = Fraction(1, 2)
    q = QForm.from_gram([[half, 0], [0, half]])
    assert q.gram[0][0] is q.gram[1][1] is half
    assert q.gram[0][1] == 0 and type(q.gram[0][1]) is int
    with pytest.raises(InputError, match="Gram matrix must be square"):
        QForm.from_gram([[1, 2], [3]])
    with pytest.raises(InputError, match="Gram matrix must be symmetric"):
        QForm.from_gram([[1, 2], [3, 4]])


def test_other_entries_are_refused_and_padding_is_int():
    # a float would be read at its binary value: 0.1 lies in the class of 7205759403792794
    for entry in ("1/2", True, 0.25, 0.1, None):
        for build in (lambda: QForm.from_gram([[1, entry], [entry, 2]]),
                      lambda: QForm.diagonal_form([3, entry]),
                      lambda: squarefree_class(entry)):
            with pytest.raises(InputError, match="expected an int or a Fraction"):
                build()
    s = QForm.diagonal_form([3, Fraction(1, 2)]).direct_sum(hyperbolic_plane())
    assert s.gram[0][:2] == (3, 0) and s.gram[1][1] == Fraction(1, 2)
    assert all(type(x) is int for i, r in enumerate(s.gram) for x in r if i != 1)


def _count_fractions(monkeypatch):
    """The argument tuples of every Fraction that qforms constructs from here on."""
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(qforms, "Fraction", counting)
    return made


# fixed integral forms: a rank-6 Gram of discriminant 110311 and a rank-5 Gram
# whose even Clifford algebra ramifies at 2 and 5
_RANK6 = [[-2, 2, 4, 3, -8, -6], [2, -8, 3, 1, 2, -5], [4, 3, -8, 1, 2, 1],
          [3, 1, 1, 2, 3, 0], [-8, 2, 2, 3, -6, 5], [-6, -5, 1, 0, 5, 2]]
_RANK5 = [[3, 2, 0, 0, 3], [2, -2, -3, -1, -2], [0, -3, 3, 0, 1],
          [0, -1, 0, -3, -3], [3, -2, 1, -3, 3]]


def test_invariants_of_an_integral_form_build_only_the_diagonal(monkeypatch):
    made = _count_fractions(monkeypatch)
    q = QForm.from_gram(_RANK6)
    inv = invariants(q)
    assert inv.discriminant == 110311 and inv.signature == (2, 4)
    assert len(made) <= q.rank


def test_clifford_oracle_of_an_integral_form_builds_only_the_diagonal(monkeypatch):
    made = _count_fractions(monkeypatch)
    q = QForm.from_gram(_RANK5)
    diagonalize(q)
    by_diagonalize = len(made)
    made.clear()
    res = even_clifford_split_oracle(q)
    assert not res.split and res.nontrivial_places == (2, 5)
    assert len(made) == by_diagonalize


def test_diagonalize_hyperbolic():
    # explicit change of basis (e+f, e-f) gives <2, -2>, rationally
    # congruent to <1, -1>: same signature, discriminant class, symbols
    diag = diagonalize(hyperbolic_plane())
    assert sorted(squarefree_class(d) for d in diag) == [-2, 2]
    inv = invariants(hyperbolic_plane())
    ref = invariants(QForm.diagonal_form([1, -1]))
    assert inv.signature == ref.signature == (1, 1)
    assert inv.discriminant == ref.discriminant == -1
    for p in set(inv.hasse) | set(ref.hasse):
        assert inv.hasse.get(p, 1) == ref.hasse.get(p, 1)


def test_diagonalize_identity():
    q = QForm.diagonal_form([1, 1, 1])
    assert diagonalize(q) == [1, 1, 1]


def test_diagonalize_e8_positive():
    diag = diagonalize(e8_form())
    assert len(diag) == 8 and all(d > 0 for d in diag)
    # oracle: Sylvester count via leading principal minors, all positive
    from liftcalc.intmat import IntMatrix
    g = IntMatrix.from_rows(e8_form().gram)
    for k in range(1, 9):
        sub = IntMatrix.from_rows([[int(g[i, j]) for j in range(k)] for i in range(k)])
        assert sub.det() > 0


def test_diagonalize_degenerate_rejected():
    with pytest.raises(InputError):
        diagonalize(QForm.diagonal_form([1, 0]))


def diagonalize_two_sided(q):
    """Diagonal entries by full row and column passes at each pivot."""
    n = q.rank
    m = [list(r) for r in q.gram]
    for i in range(n):
        if m[i][i] == 0:
            swap = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for r in m:
                    r[i], r[swap] = r[swap], r[i]
            else:
                found = next(((k, l) for k in range(i, n) for l in range(i, n)
                              if k != l and m[k][l] != 0), None)
                if found is None:
                    raise InputError("degenerate form")
                k, l = found
                for t in range(n):
                    m[k][t] += m[l][t]
                for t in range(n):
                    m[t][k] += m[t][l]
                m[i], m[k] = m[k], m[i]
                for r in m:
                    r[i], r[k] = r[k], r[i]
        if m[i][i] == 0:
            raise InputError("degenerate form")
        for k in range(i + 1, n):
            if m[k][i] != 0:
                f = m[k][i] / m[i][i]
                for t in range(n):
                    m[k][t] -= f * m[i][t]
                for t in range(n):
                    m[t][k] -= f * m[t][i]
    return [m[i][i] for i in range(n)]


def diagonalize_by_fractions(q):
    """Diagonal entries by Fraction elimination of the trailing block from each pivot row."""
    n = q.rank
    m = [list(r) for r in q.gram]
    for i in range(n):
        if m[i][i] == 0:
            swap = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for r in m:
                    r[i], r[swap] = r[swap], r[i]
            else:
                found = next(((k, l) for k in range(i, n) for l in range(i, n)
                              if k != l and m[k][l] != 0), None)
                if found is None:
                    raise InputError("degenerate form")
                k, l = found
                for t in range(n):
                    m[k][t] += m[l][t]
                for t in range(n):
                    m[t][k] += m[t][l]
                m[i], m[k] = m[k], m[i]
                for r in m:
                    r[i], r[k] = r[k], r[i]
        if m[i][i] == 0:
            raise InputError("degenerate form")
        pivot = m[i]
        for k in range(i + 1, n):
            row = m[k]
            if row[i] != 0:
                f = row[i] / pivot[i]
                for t in range(i + 1, n):
                    row[t] -= f * pivot[t]
                row[i] = 0
        pivot[i + 1:] = [0] * (n - i - 1)
    return [m[i][i] for i in range(n)]


def hasse_pairwise(diag, places):
    """The Hasse symbol at each place as the product of (a_i, a_j) over all pairs i < j."""
    classes = [squarefree_class(d) for d in diag]
    out = {}
    for place in places:
        s = 1
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                s *= hilbert_symbol(classes[i], classes[j], place)
        out[place] = s
    return out


def factor_by_trial_division(n):
    """Prime exponents of a positive integer by trial division alone, bounded as qforms bounds it."""
    out, p = {}, 2
    while p * p <= n:
        if p > qforms.TRIAL_DIVISION_CAP:
            raise BoundError(f"factoring needs trial divisors above {qforms.TRIAL_DIVISION_CAP}")
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def invariants_per_entry(q):
    """Signature, discriminant and -1 places, read entry by entry off a diagonalization.

    The numerator and denominator of every diagonal entry are factored on
    their own; the places are inf, 2 and every prime of odd exponent in some
    entry, and each Hasse symbol is the product of the pairwise symbols.
    """
    diag = diagonalize(q)
    classes, primes, disc_primes = [], {2}, set()
    for d in diag:
        odd = [p for part in (abs(d.numerator), d.denominator)
               for p, e in factor_by_trial_division(part).items() if e % 2]
        classes.append((-1 if d < 0 else 1) * prod(odd))
        primes.update(odd)
        disc_primes.symmetric_difference_update(odd)
    pos = sum(1 for d in diag if d > 0)
    disc = (-1) ** (len(diag) - pos) * prod(disc_primes)
    minus = {place for place in ["inf"] + sorted(primes)
             if prod(hilbert_symbol(a, b, place)
                     for i, a in enumerate(classes) for b in classes[i + 1:]) == -1}
    return (pos, len(diag) - pos), disc, minus


def _outcome(f, q):
    try:
        return f(q)
    except (InputError, BoundError) as exc:
        return type(exc).__name__


def seeded_dense_grams(seed=27):
    """2 000 Gram matrices of ranks 1 to 6 with entries in [-9, 9] over 1, 2 or 3,
    then 20 integral ones of rank 16 with entries in [-5, 5]."""
    rng = random.Random(seed)
    for k in range(2020):
        n, top, dens = (rng.randint(1, 6), 9, (1, 1, 2, 3)) if k < 2000 else (16, 5, (1,))
        a = [[Fraction(rng.randint(-top, top), rng.choice(dens)) for _ in range(n)]
             for _ in range(n)]
        yield [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def seeded_large_prime_grams(seed=31):
    """400 Gram matrices U^T D U of ranks 1 to 5, U unit upper triangular with
    entries in [-2, 2], so that D's entries are the diagonalization's.  Their
    numerators and denominators draw on four primes just above the
    trial-division cap, so det G holds several of them."""
    rng = random.Random(seed)
    big = (1000003, 1000033, 1000037, 1000039)
    for _ in range(400):
        n = rng.randint(1, 5)
        d = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30) * rng.choice((1, *big)),
                      rng.randint(1, 4) * rng.choice((1, 1, 1, *big))) for _ in range(n)]
        u = [[int(i == j) or (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
             for i in range(n)]
        yield [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]


def test_invariants_match_the_per_entry_route():
    outcomes = []
    for g in [*seeded_grams(), *seeded_dense_grams(), *seeded_large_prime_grams()]:
        q = QForm.from_gram(g)
        want = _outcome(invariants_per_entry, q)
        got = _outcome(invariants, q)
        if want == "BoundError":
            # every form the per-entry route answers still answers, and more do
            outcomes.append(got if type(got) is str else "answered now")
            continue
        if type(want) is str:
            assert got == want, g
        else:
            assert type(got) is not str, g
            _, disc, minus = want
            assert (got.signature, got.discriminant,
                    {p for p, s in got.hasse.items() if s == -1}) == want, g
            # listed: inf, 2, the primes of the discriminant and the -1 places;
            # disc is squarefree, so its listed primes multiply to |disc| when all are there
            of_disc = {p for p in got.hasse if p != "inf" and disc % p == 0}
            assert set(got.hasse) == {"inf", 2, *of_disc, *minus} and prod(of_disc) == abs(disc)
        outcomes.append(want if type(want) is str else "answered")
    assert outcomes.count("answered") > 2500 and "answered now" in outcomes


def _report(q):
    try:
        return json.dumps(invariants(q).to_json(), sort_keys=True)
    except (InputError, BoundError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_reports_do_not_depend_on_the_basis():
    # P^T G P for P a signed permutation times unitriangular matrices: P is
    # unimodular, so det G and the least common denominator do not change
    rng = random.Random(7)
    answered = 0
    for _ in range(200):
        n = 6
        a = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        g = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        perm = rng.sample(range(n), n)
        p = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        for lower in (True, False):
            t = [[int(i == j) or (rng.randint(-1, 1) if (i > j) == lower else 0)
                  for j in range(n)] for i in range(n)]
            p = [[sum(p[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        moved = [[sum(p[k][i] * g[k][l] * p[l][j] for k in range(n) for l in range(n))
                  for j in range(n)] for i in range(n)]
        want = _report(QForm.from_gram(g))
        assert _report(QForm.from_gram(moved)) == want, g
        answered += want.startswith("{")
    assert answered > 190


def test_an_integral_form_is_factored_at_most_twice(monkeypatch):
    calls = []
    real = qforms._factor
    monkeypatch.setattr(qforms, "_factor",
                        lambda n, parts=(): calls.append(n) or real(n, parts))
    assert invariants(QForm.from_gram(_RANK6)).discriminant == 110311
    assert len(calls) <= 2


def _oracle_forms():
    yield from seeded_grams()
    # a 60 x 60 diagonal form: no pivot column has a nonzero entry below it
    rng = random.Random(60)
    entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 4))
               for _ in range(60)]
    yield [[entries[i] if i == j else Fraction(0) for j in range(60)] for i in range(60)]


def test_diagonalize_and_hasse_match_oracles():
    checked = 0
    for g in _oracle_forms():
        q = QForm.from_gram(g)
        try:
            want = diagonalize_by_fractions(q)
        except InputError as exc:
            with pytest.raises(InputError, match=str(exc)):
                diagonalize(q)
            continue
        got = diagonalize(q)
        assert got == want
        assert all(type(d) is Fraction for d in got)
        inv = invariants(q)
        assert inv.hasse == hasse_pairwise(want, list(inv.hasse))
        checked += 1
    assert checked > 600


def _det(rows):
    m = [list(r) for r in rows]
    n, det = len(m), Fraction(1)
    for i in range(n):
        p = next((k for k in range(i, n) if m[k][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            m[i], m[p] = m[p], m[i]
            det = -det
        det *= m[i][i]
        for k in range(i + 1, n):
            f = m[k][i] / m[i][i]
            for t in range(i, n):
                m[k][t] -= f * m[i][t]
    return det


def test_diagonalize_matches_two_sided():
    rng = random.Random(7)
    degenerate = 0
    for trial in range(2000):
        n = rng.randint(1, 7)
        g = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if trial % 10 < 3:
            # a zero diagonal sends every pivot through the swap or hyperbolic branch
            for k in range(n):
                g[k][k] = Fraction(0)
        q = QForm.from_gram(g)
        try:
            want = diagonalize_two_sided(q)
        except InputError:
            degenerate += 1
            with pytest.raises(InputError):
                diagonalize(q)
            continue
        got = diagonalize(q)
        assert got == want
        assert prod(got) == _det(g)
    assert 0 < degenerate < 200


def test_hilbert_symbol_rejects_places_below_two():
    # at place 1 the valuation loop would never end, and at 0 it would divide by zero
    for place in (1, 0, -1):
        with pytest.raises(InputError, match="place must be a prime"):
            hilbert_symbol(3, 5, place)


@pytest.mark.parametrize("place", [4, 6, 9, 15, 2.5, 3.0, "x", "3", Fraction(3), True, 561,
                                   3215031751, (2 ** 19 - 1) * (2 ** 61 - 1)])
def test_hilbert_symbol_rejects_composite_and_non_integer_places(place):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and no
    # base divides the product of two Mersenne primes
    with pytest.raises(InputError, match="place must be a prime"):
        hilbert_symbol(3, 5, place)


@pytest.mark.parametrize("place", [2 ** 89 - 1, 2 ** 89 + 1, 3317044064679887385961981,
                                   pytest.param(10 ** 5000, id="10^5000")])
def test_hilbert_symbol_refuses_places_past_the_exact_bound(place):
    # the prime 2^89 - 1, the multiple 2^89 + 1 of 3, the least strong
    # pseudoprime to all 13 bases (1287836182261 * 2575672364521), and an
    # integer too long to print in an error message
    with pytest.raises(BoundError, match="cannot decide whether an integer of"):
        hilbert_symbol(3, 5, place)


def test_hilbert_symbol_accepts_exactly_the_primes():
    n = 5000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    for p in range(2, n):
        try:
            hilbert_symbol(-1, -1, p)
            assert sieve[p], p
        except InputError:
            assert not sieve[p], p
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert hilbert_symbol(3, 5, p) == 1
        assert hilbert_symbol(3, p, p) == (1 if pow(3, (p - 1) // 2, p) == 1 else -1)


def test_hilbert_symbol_table():
    # (-1, -1) ramifies exactly at 2 and infinity
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, 5) == 1
    # (1, anything) is trivial
    for p in (2, 3, 5, "inf"):
        assert hilbert_symbol(1, 7, p) == 1
    # (2, 3): ramifies at 2 and 3
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, 3, "inf") == 1


def test_hilbert_symbol_reads_a_fraction_at_its_square_class():
    # 3/2 = 6/4 lies in the class of 6, and 1/2 in the class of 2
    for p in (2, 3, "inf"):
        assert hilbert_symbol(Fraction(3, 2), -1, p) == hilbert_symbol(6, -1, p)
    assert hilbert_symbol(Fraction(3, 2), -1, 2) == -1
    assert hilbert_symbol(Fraction(1, 2), 3, 3) == hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(Fraction(-1, 3), Fraction(-5, 7), "inf") == -1


@pytest.mark.parametrize("a, b", [(1.5, -1), (-1, 1.5), ("3", 5), (True, 5), (None, 5)])
def test_hilbert_symbol_refuses_entries_that_are_not_rational(a, b):
    # a float was read at its truncation: (1.5, -1)_2 came out 1, not (6, -1)_2 = -1
    with pytest.raises(InputError, match="expected an int or a Fraction"):
        hilbert_symbol(a, b, 2)


def test_invariants_examples():
    inv = invariants(QForm.diagonal_form([1, 1]))
    assert all(v == 1 for v in inv.hasse.values())
    inv2 = invariants(QForm.diagonal_form([-1, -1]))
    assert inv2.hasse[2] == -1 and inv2.hasse["inf"] == -1
    assert all(v == 1 for k, v in inv2.hasse.items() if k not in (2, "inf"))
    # U + U: diagonalization <1,-1,1,-1>; the pair (-1,-1) makes the raw
    # pairwise symbol -1 at 2 and infinity, while the Witt (Clifford) class
    # is trivial everywhere
    inv3 = invariants(hyperbolic_plane().direct_sum(hyperbolic_plane()))
    assert inv3.discriminant == 1
    assert inv3.signature == (2, 2)
    ref = invariants(QForm.diagonal_form([1, -1, 1, -1]))
    for p in set(inv3.hasse) | set(ref.hasse):
        assert inv3.hasse.get(p, 1) == ref.hasse.get(p, 1)
    assert ref.hasse[2] == -1 and ref.hasse["inf"] == -1
    from liftcalc.qforms import witt_class_places
    assert witt_class_places(hyperbolic_plane().direct_sum(hyperbolic_plane())) == ()


def test_invariants_congruence_invariant():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 4)
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            gram = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
            q = QForm.from_gram(gram)
            try:
                base = invariants(q)
                break
            except InputError:
                continue
        # conjugate by a random invertible rational matrix
        while True:
            P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            det = _det(P)
            if det != 0:
                break
        new = [[sum(P[k][i] * q.gram[k][l] * P[l][j] for k in range(n) for l in range(n))
                for j in range(n)] for i in range(n)]
        inv2 = invariants(QForm.from_gram(new))
        assert inv2.signature == base.signature
        assert inv2.discriminant == base.discriminant
        places = set(base.hasse) | set(inv2.hasse)
        for p in places:
            assert base.hasse.get(p, 1) == inv2.hasse.get(p, 1)


def test_product_formula_random():
    rng = random.Random(5)
    count = 0
    while count < 200:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        gram = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        try:
            invariants(QForm.from_gram(gram))  # raises if the product formula fails
        except InputError:
            continue
        count += 1


def test_even_clifford_split_line():
    res = even_clifford_split(QForm.diagonal_form([1]))
    assert res.split and res.matrix_size == 1


def test_even_clifford_hamilton():
    res = even_clifford_split(QForm.diagonal_form([-1, -1, -1]))
    assert not res.split
    # oracle: C+ is generated by e1e2, e1e3 with squares -1, -1
    oracle = even_clifford_split_oracle(QForm.diagonal_form([-1, -1, -1]))
    assert not oracle.split
    assert set(oracle.nontrivial_places) == set(res.nontrivial_places) == {2, "inf"}


def test_even_clifford_split_rank3():
    res = even_clifford_split(QForm.diagonal_form([1, 1, 1]))
    # C+ = (-1, -1) over Q... wait: squares of e1e2, e1e3 are -1, -1
    oracle = even_clifford_split_oracle(QForm.diagonal_form([1, 1, 1]))
    assert res.split == oracle.split


def test_k3_split():
    res = even_clifford_split(k3_primitive(2))
    assert res.split and res.matrix_size == 2 ** 10


@pytest.mark.parametrize("q_eta", [2, 4, 6, 8])
def test_k3_split_stability(q_eta):
    res = even_clifford_split(k3_primitive(q_eta))
    assert res.split and res.matrix_size == 2 ** 10


def test_k3_signature():
    inv = invariants(k3_primitive(2))
    assert inv.signature == (2, 19)


def test_squarefree_class_bounded():
    # a prime above the trial-division cap survives as the cofactor
    assert squarefree_class(Fraction(-8 * 999983 ** 2 * 1000003, 75)) == -6 * 1000003
    with pytest.raises(BoundError):
        squarefree_class(Fraction(1000003 * 1000033))


def test_invariants_large_prime_across_entries():
    # det = 105 * 1000003^2 / 4 holds 1000003^2, past the trial-division
    # cap; its gcds with the two entries that hold 1000003 split it apart
    p = 1000003
    inv = invariants(QForm.diagonal_form([3 * p, Fraction(5 * p, 4), 7]))
    assert inv.discriminant == 105
    assert inv.signature == (3, 0)
    assert inv.hasse == {"inf": 1, 2: -1, 3: -1, 5: -1, 7: 1, p: -1}


def test_large_primes_in_different_entries_are_split_apart():
    p, q = 1000003, 1000033
    with pytest.raises(BoundError):
        squarefree_class(p * q)
    inv = invariants(QForm.diagonal_form([p, q]))
    assert (inv.signature, inv.discriminant) == ((2, 0), p * q)
    assert inv.hasse == hasse_pairwise([p, q], ["inf", 2, p, q])
    rank3 = QForm.diagonal_form([1, p, -q])
    inv = invariants(rank3)
    assert (inv.signature, inv.discriminant, {v for v, s in inv.hasse.items() if s == -1}) \
        == invariants_per_entry(rank3)
    # the even Clifford algebra of <1, p, -q> is the quaternion algebra (-p, q)
    split = even_clifford_split(rank3)
    assert set(split.nontrivial_places) == set(quaternion_places(-p, q))
    assert split.split == (not split.nontrivial_places)


def test_a_denominator_that_leaves_the_diagonal_is_not_factored():
    # m = (p q)^2 divides no diagonal entry, so none of its primes is a place
    pq = 1000003 * 1000033
    g = [[1, Fraction(1, pq)], [Fraction(1, pq), 1 + Fraction(1, pq * pq)]]
    assert diagonalize(QForm.from_gram(g)) == [1, 1]
    assert invariants(QForm.from_gram(g)) == invariants(QForm.diagonal_form([1, 1]))


def test_quaternion_search_agrees_with_symbols():
    rng = random.Random(6)
    for _ in range(100):
        x = rng.randint(-30, 30)
        y = rng.randint(-30, 30)
        if x == 0 or y == 0:
            continue
        xs, ys = squarefree_class(Fraction(x)), squarefree_class(Fraction(y))
        assert quaternion_splits_by_search(xs, ys) == (not quaternion_places(xs, ys))


@pytest.mark.parametrize("x, y", [(0, 3), (3, 0), (0, 0), (1.5, 3), (3, Fraction(1, 2)),
                                  (True, 3), ("3", 5)])
def test_quaternion_places_refuses_zero_and_non_int_entries(x, y):
    # a zero entry once left the 2-adic valuation loop running forever; a
    # non-integer is refused by intmat.int_tuple before any zero test
    zero = all(type(v) is int for v in (x, y))
    with pytest.raises(InputError, match="nonzero int entries" if zero else "expected an integer"):
        quaternion_places(x, y)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_agreement_random_odd_ranks(seed):
    rng = random.Random(seed)
    done = 0
    while done < 25:
        rank = rng.choice([1, 3, 5])
        rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[rows[i][j] + rows[j][i] for j in range(rank)] for i in range(rank)]
        q = QForm.from_gram(gram)
        try:
            table = even_clifford_split(q)
        except InputError:
            continue
        oracle = even_clifford_split_oracle(q)
        assert table.split == oracle.split, (gram, table, oracle)
        if rank >= 3:
            assert set(table.nontrivial_places) == set(oracle.nontrivial_places)
        done += 1


def test_even_rank_rejected():
    with pytest.raises(InputError):
        even_clifford_split(hyperbolic_plane())


def test_even_clifford_split_diagonalizes_once(monkeypatch):
    calls = []
    real = qforms.diagonalize
    monkeypatch.setattr(qforms, "diagonalize", lambda q: calls.append(q) or real(q))
    assert even_clifford_split(k3_primitive(2)).split
    assert len(calls) == 1
    degenerate = QForm.from_gram([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(InputError, match="degenerate form"):
        even_clifford_split(degenerate)
