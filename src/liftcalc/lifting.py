"""Lifting obstructions through central torus quotients.

The inputs are purely combinatorial: a based root datum with a chosen
torus extension of its center (a CentralQuotientData), and a family of
integral weights indexed by embedding labels.  Each label produces a
torsion class; lift decisions compare these classes across labels, with
the imaginary-field case delegating to the GL(1) feasibility criteria.
Archimedean parameter lifting and the L/C/W classification of parameters
run on the same lattices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cmdata import CMEmbeddingData, galois_char_feasible, gl1_obstruction
from .intmat import BoundError, InputError, int_tuple, rational_tuple
from .rootdata import (
    BasedRootDatum,
    CentralQuotientData,
    central_quotient_data,
    half_sum_positive_roots,
    longest_element_is_minus_one,
    minimal_torus_embed,
    simple_type,
)


# Largest --max-rank classify_simple_types accepts: validating each datum
# checks all 2^rank principal minors.  On a 2-vCPU Xeon with Python 3.11,
# rank 12 takes 3.5-4.4 s as a fresh process (rank 13 takes 7.8-9.8 s).
MAX_CLASSIFY_RANK = 12


@dataclass(frozen=True)
class HodgeFamily:
    """An integral weight mu_label in X(T) for every embedding label."""

    data: CMEmbeddingData
    mu: dict

    @staticmethod
    def make(data: CMEmbeddingData, mu) -> "HodgeFamily":
        if set(mu) != set(data.labels):
            raise InputError("weight family must cover exactly the labels")
        return HodgeFamily(data, {l: int_tuple(mu[l]) for l in data.labels})


def obstruction_classes(cqd: CentralQuotientData, h: HodgeFamily) -> dict:
    """The torsion class (k_1 mod d_1, ..., k_r mod d_r) of each label's weight.

    With the center embedded in a torus, the reduction modulo the image
    of torsion from the big center is the identity, so the class is just
    the normalized torsion coordinate tuple of mu in X(Z_G).
    """
    out = {}
    for l in sorted(h.mu):
        mu = h.mu[l]
        if len(mu) != cqd.G.rank:
            raise InputError(f"weight at {l!r} has length {len(mu)}, expected {cqd.G.rank}")
        out[l] = cqd.theta(mu)
    return out


@dataclass(frozen=True)
class ObstructionReport:
    decision: str                    # "lift_exists" | "obstructed"
    mode: str
    moduli: tuple
    classes: dict                    # label -> torsion class tuple
    witness: dict | None             # label -> tuple of Fractions (central twist weights)
    certificate: tuple | None        # (label, label) at which the failed criterion fails
    purity_weights: tuple            # per coordinate: common w_i mod d_i, or None
    hodge_symmetric: bool            # all purity weights exist
    notes: tuple = ()

    def __post_init__(self):
        if (self.decision == "lift_exists") != (self.witness is not None):
            raise AssertionError("witness must accompany exactly the lift_exists decision")
        if (self.decision == "obstructed") != (self.certificate is not None):
            raise AssertionError("certificate must accompany exactly the obstructed decision")

    def to_json(self):
        wit = None
        if self.witness is not None:
            wit = {l: [str(t) for t in v] for l, v in self.witness.items()}
        return {
            "decision": self.decision,
            "mode": self.mode,
            "moduli": list(self.moduli),
            "classes": {l: list(v) for l, v in self.classes.items()},
            "witness": wit,
            "certificate": list(self.certificate) if self.certificate else None,
            "purity_weights": list(self.purity_weights),
            "hodge_symmetric": self.hodge_symmetric,
            "notes": list(self.notes),
        }


def _first_differing_pair(classes: dict, labels: list, coords) -> tuple | None:
    """The first adjacent pair of sorted labels whose classes differ at one of coords."""
    for a, b in zip(labels, labels[1:]):
        if any(classes[a][i] != classes[b][i] for i in coords):
            return a, b
    return None


def geometric_lift_exists(cqd: CentralQuotientData, h: HodgeFamily, mode: str) -> ObstructionReport:
    """Decide geometric liftability of the weight family through the quotient.

    totally_real: coordinates with odd modulus never obstruct; the lift
    exists iff the even-modulus coordinates are label-independent.
    imaginary: each coordinate family must factor through the CM
    restriction and admit a purity weight; the witness twists come from
    the GL(1) construction.
    """
    if mode not in ("totally_real", "imaginary"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "totally_real" and h.data.mode != "totally_real":
        raise InputError("totally_real decision on non-totally-real embedding data")
    if mode == "imaginary" and h.data.mode == "totally_real":
        raise InputError("imaginary decision on totally real embedding data")
    classes = obstruction_classes(cqd, h)
    labels = sorted(classes)
    d = cqd.d
    notes = []

    if mode == "totally_real":
        even_idx = [i for i, di in enumerate(d) if di % 2 == 0]
        cert = _first_differing_pair(classes, labels, even_idx)
        purity = []
        for i, di in enumerate(d):
            doubled = {(2 * classes[l][i]) % di for l in labels}
            purity.append(next(iter(doubled)) if len(doubled) == 1 else None)
        symmetric = all(w is not None for w in purity)
        if cert is not None:
            return ObstructionReport(
                "obstructed", mode, d, classes, None, cert, tuple(purity), symmetric)
        if not symmetric:
            notes.append("odd-modulus coordinates vary across labels; the emitted twist "
                         "family is only realizable under the Hodge symmetry assumption")
        witness = {l: tuple(Fraction(classes[l][i], d[i]) for i in range(len(d)))
                   for l in labels}
        return ObstructionReport(
            "lift_exists", mode, d, classes, witness, None, tuple(purity), symmetric,
            tuple(notes))

    # imaginary mode: per coordinate, delegate to the GL(1) criterion
    purity = []
    families = []
    for i, di in enumerate(d):
        k = {l: classes[l][i] for l in labels}
        res = galois_char_feasible(h.data, di, k)
        if res is None:
            purity.append(None)
            families.append(None)
        else:
            purity.append(res.purity_weight)
            families.append(res.weights)
    if all(f is not None for f in families):
        witness = {l: tuple(families[i][l] for i in range(len(d))) for l in labels}
        return ObstructionReport(
            "lift_exists", mode, d, classes, witness, None, tuple(purity), True)
    # the certificate names the labels of the criterion that fails at the
    # first infeasible coordinate
    i = families.index(None)
    cert = gl1_obstruction(h.data, d[i], {l: classes[l][i] for l in labels})
    return ObstructionReport(
        "obstructed", mode, d, classes, None, cert, tuple(purity), False)


def twist_by_witness(cqd: CentralQuotientData, h: HodgeFamily, witness: dict) -> HodgeFamily:
    """Apply a central twist family: mu' = mu - sum_i (d_i t_i) u_i.

    u_i is the stored lift to X(T) of the i-th torsion basis class, so
    the twisted family has torsion classes k_i - d_i t_i mod d_i.  The
    witness gives r ints or Fractions t at exactly the family's labels.
    """
    if set(witness) != set(h.mu):
        raise InputError("twist witness must cover exactly the labels")
    new_mu = {}
    for l, mu in h.mu.items():
        t = rational_tuple(witness[l])
        if len(t) != cqd.r:
            raise InputError(f"twist witness at {l!r} must have {cqd.r} entries")
        c = tuple(x * di for x, di in zip(t, cqd.d))
        if any(x.denominator != 1 for x in c):
            raise InputError("twist weights must clear the moduli denominators")
        c = int_tuple(c)
        shift = [sum(ci * u[j] for ci, u in zip(c, cqd.torsion_lifts)) for j in range(cqd.G.rank)]
        new_mu[l] = tuple(m - s for m, s in zip(mu, shift))
    return HodgeFamily(h.data, new_mu)


# ---------------------------------------------------------------------------
# the simple-type classification table


@dataclass(frozen=True)
class SimpleTypeRow:
    name: str
    d: tuple
    two_torsion: tuple
    obstruction_possible: bool
    discrete_series_available: bool
    automorphic_counterexample: bool

    def to_json(self):
        return {
            "type": self.name,
            "d": list(self.d),
            "two_torsion": list(self.two_torsion),
            "obstruction_possible": self.obstruction_possible,
            "discrete_series_available": self.discrete_series_available,
            "automorphic_counterexample": self.automorphic_counterexample,
        }


def classify_simple_types(max_rank: int = 8) -> list:
    """Lifting-obstruction classification of all simply connected simple types.

    Every entry is computed: invariant factors via Smith normal form of
    the root-lattice inclusion, 2-torsion from them, and the discrete
    series flag from whether the longest Weyl element is -1.  Obstruction
    is possible exactly when the 2-torsion is nontrivial, and the
    counterexample flag marks types where a discrete-series construction
    can realize it.
    """
    if max_rank < 1:
        raise InputError(f"max rank must be at least 1, got {max_rank}")
    if max_rank > MAX_CLASSIFY_RANK:
        raise BoundError(f"max rank {max_rank} exceeds the bound {MAX_CLASSIFY_RANK}")
    types = []
    for n in range(1, max_rank + 1):
        types.append(("A", n))
    for n in range(2, max_rank + 1):
        types.append(("B", n))
        types.append(("C", n))
    for n in range(4, max_rank + 1):
        types.append(("D", n))
    for n in (6, 7, 8):
        if n <= max_rank:
            types.append(("E", n))
    if max_rank >= 4:
        types.append(("F", 4))
    if max_rank >= 2:
        types.append(("G", 2))
    rows = []
    for family, rank in types:
        rd = simple_type(family, rank, "sc")
        cqd = central_quotient_data(rd, minimal_torus_embed(rd))
        two = cqd.center.group.two_torsion()
        obstruction = not two.is_trivial
        ds = longest_element_is_minus_one(rd)
        rows.append(SimpleTypeRow(
            name=f"{family}{rank}",
            d=cqd.d,
            two_torsion=two.invariant_factors,
            obstruction_possible=obstruction,
            discrete_series_available=ds,
            automorphic_counterexample=obstruction and ds,
        ))
    return rows


# ---------------------------------------------------------------------------
# archimedean parameters


@dataclass(frozen=True)
class ParameterPair:
    mu: tuple
    nu: tuple

    @staticmethod
    def make(mu, nu) -> "ParameterPair":
        mu, nu = rational_tuple(mu), rational_tuple(nu)
        if len(mu) != len(nu):
            raise InputError("parameter components differ in length")
        if any((a - b).denominator != 1 for a, b in zip(mu, nu)):
            raise InputError("mu - nu must be an integral weight")
        return ParameterPair(mu, nu)


def _lcw_classes(inside, rho, parts) -> frozenset:
    """The L / C / W classes of mu and nu, given as (weight, central part) pairs.

    L asks inside(weight, central) of both parts as they are, C with rho
    taken off each weight (rho shifts only the X(T) part), and W with both
    parts doubled.
    """
    def twice(v):
        return tuple(2 * a for a in v)
    tests = {
        "L": parts,
        "C": [(tuple(a - b for a, b in zip(w, rho)), c) for w, c in parts],
        "W": [(twice(w), twice(c)) for w, c in parts],
    }
    return frozenset(k for k, ps in tests.items() if all(inside(w, c) for w, c in ps))


def algebraicity_class(rd: BasedRootDatum, p: ParameterPair) -> frozenset:
    """Which of the L / C / W integrality classes the pair satisfies."""
    if len(p.mu) != rd.rank:
        raise InputError("parameter length does not match the rank")
    return _lcw_classes(lambda w, c: all(x.denominator == 1 for x in w),
                        half_sum_positive_roots(rd),
                        [(p.mu, ()), (p.nu, ())])


@dataclass(frozen=True)
class LiftedParameter:
    label: str
    mu: tuple                 # X(T) part, ints and Fractions
    nu: tuple
    mu_central: tuple         # X(Ztilde) part in the original basis, Fractions
    nu_central: tuple
    classes: frozenset        # L/C/W classes of the lifted pair


@dataclass(frozen=True)
class ParameterLiftReport:
    recipe: str
    lifted: tuple             # LiftedParameter per label, sorted
    input_classes: dict
    l_lift_exists: bool
    w_lift_exists: bool
    two_torsion_images: dict  # label -> torsion class of mu - nu

    def to_json(self):
        return {
            "recipe": self.recipe,
            "lifted": [{
                "label": lp.label,
                "mu": [str(x) for x in lp.mu],
                "nu": [str(x) for x in lp.nu],
                "mu_central": [str(x) for x in lp.mu_central],
                "nu_central": [str(x) for x in lp.nu_central],
                "classes": sorted(lp.classes),
            } for lp in self.lifted],
            "input_classes": {l: sorted(v) for l, v in self.input_classes.items()},
            "l_lift_exists": self.l_lift_exists,
            "w_lift_exists": self.w_lift_exists,
            "two_torsion_images": {l: list(v) for l, v in self.two_torsion_images.items()},
        }


def lift_archimedean_parameter(cqd: CentralQuotientData, params: dict, recipe: str,
                               tempered: bool = True) -> ParameterLiftReport:
    """Lift archimedean parameters to the extended group.

    cm_typeA: the central component carries half the difference class,
    chosen so integral (L-algebraic) inputs lift to integral parameters.
    finite_order: the central component is zero; the report carries the
    verdict that an integral lift exists iff the 2-torsion images of the
    parameters agree across all labels.
    """
    if recipe not in ("cm_typeA", "finite_order"):
        raise InputError(f"unknown recipe {recipe!r}")
    rd = cqd.G
    labels = sorted(params)
    pairs = {l: params[l] for l in labels}
    for l, p in pairs.items():
        if len(p.mu) != rd.rank:
            raise InputError(f"parameter at {l!r} does not match the rank")
        if tempered and any(a + b != 0 for a, b in zip(p.mu, p.nu)):
            raise InputError(f"tempered flag inconsistent with mu + nu != 0 at {l!r}")

    input_classes = {l: algebraicity_class(rd, p) for l, p in pairs.items()}
    images = {}
    lifted = []
    m = cqd.ztilde_rank
    for l in labels:
        p = pairs[l]
        diff = tuple(a - b for a, b in zip(p.mu, p.nu))
        images[l] = cqd.theta(int_tuple(diff))
        if recipe == "finite_order":
            mu_c = (Fraction(0),) * m
            nu_c = (Fraction(0),) * m
        else:
            if "L" in input_classes[l]:
                # mu - nu is integral, so mu is integral exactly when the pair is
                ks = cqd.theta(int_tuple(p.mu))
            else:
                ks = [Fraction(k, 2) for k in images[l]]
            coeffs = [Fraction(0)] * m
            for i in range(cqd.r):
                w = cqd.basis_change.col(i)
                for j in range(m):
                    coeffs[j] += ks[i] * w[j]
            mu_c = tuple(coeffs)
            nu_c = tuple(-c for c in coeffs)
        # the L/C/W classes of the lifted pair in the extended character lattice
        classes = _lcw_classes(cqd.pair_in_extended_lattice, half_sum_positive_roots(rd),
                               [(p.mu, mu_c), (p.nu, nu_c)])
        lifted.append(LiftedParameter(l, p.mu, p.nu, mu_c, nu_c, classes))

    if recipe == "cm_typeA":
        # the produced lift is the answer over CM data
        l_exists = all("L" in lp.classes for lp in lifted)
    else:
        # integral lift exists iff the 2-torsion images agree across labels
        l_exists = len({images[l] for l in labels}) <= 1
    return ParameterLiftReport(
        recipe=recipe,
        lifted=tuple(lifted),
        input_classes=input_classes,
        l_lift_exists=l_exists,
        w_lift_exists=all("W" in c for c in input_classes.values()),
        two_torsion_images=images,
    )
