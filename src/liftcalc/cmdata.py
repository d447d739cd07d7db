"""Combinatorial embedding data of a number field and GL(1) feasibility tests.

A number field enters only through its shadow: a finite label set (the
complex embeddings), the conjugation involution, and the restriction to
the labels of the maximal CM subfield.  The two feasibility operations
decide when residue classes attached to the labels can be realized by a
type A character extension or by a character with prescribed fractional
weights, and in the second case they construct a verifiable witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmat import InputError, int_tuple

MODES = ("totally_real", "cm", "general_imaginary")


@dataclass(frozen=True)
class CMEmbeddingData:
    """Embedding data, checked against the structural axioms when built."""

    labels: tuple
    conj: dict
    cm_labels: tuple
    restrict: dict
    cm_conj: dict
    mode: str

    def __post_init__(self):
        diag = _diagnostic(self)
        if diag != "ok":
            raise InputError(f"invalid embedding data: {diag}")

    @staticmethod
    def make(labels, conj, cm_labels, restrict, cm_conj, mode) -> "CMEmbeddingData":
        return CMEmbeddingData(tuple(labels), dict(conj), tuple(cm_labels),
                               dict(restrict), dict(cm_conj), mode)

    @staticmethod
    def totally_real(k: int) -> "CMEmbeddingData":
        labels = tuple(f"v{i}" for i in range(k))
        ident = {l: l for l in labels}
        return CMEmbeddingData(labels, ident, labels, {l: l for l in labels},
                               dict(ident), "totally_real")

    @staticmethod
    def cm_pairs(k: int) -> "CMEmbeddingData":
        """A CM field with k conjugate pairs of embeddings."""
        labels = []
        conj = {}
        for i in range(k):
            a, b = f"s{i}", f"s{i}c"
            labels += [a, b]
            conj[a], conj[b] = b, a
        labels = tuple(labels)
        return CMEmbeddingData(labels, conj, labels, {l: l for l in labels},
                               dict(conj), "cm")

    def complex_labels(self):
        """Labels moved by conjugation (the complex places)."""
        return tuple(l for l in self.labels if self.conj[l] != l)


def _diagnostic(data: CMEmbeddingData) -> str:
    """Check the structural axioms; return "ok" or a diagnostic."""
    if not data.labels:
        return "label set is empty"
    if data.mode not in MODES:
        return f"unknown mode {data.mode!r}"
    labels = set(data.labels)
    cm_labels = set(data.cm_labels)
    if len(labels) != len(data.labels):
        return "a label is repeated"
    if len(cm_labels) != len(data.cm_labels):
        return "a cm label is repeated"
    if set(data.conj) != labels:
        return "conj is not defined on exactly the labels"
    if any(data.conj[l] not in labels for l in labels):
        return "conj does not map labels to labels"
    if any(data.conj[data.conj[l]] != l for l in labels):
        return "conj is not an involution"
    if set(data.cm_conj) != cm_labels:
        return "cm_conj is not defined on exactly the cm labels"
    if any(data.cm_conj[data.cm_conj[t]] != t for t in cm_labels):
        return "cm_conj is not an involution"
    if set(data.restrict) != labels:
        return "restrict is not defined on exactly the labels"
    if any(data.restrict[l] not in cm_labels for l in labels):
        return "restrict does not land in the cm labels"
    if cm_labels - {data.restrict[l] for l in labels}:
        return "restrict is not surjective"
    for l in labels:
        if data.restrict[data.conj[l]] != data.cm_conj[data.restrict[l]]:
            return f"restrict is not conjugation-equivariant at {l!r}"
    if data.mode == "totally_real":
        if any(data.conj[l] != l for l in labels):
            return "totally_real mode requires trivial conjugation"
        if any(data.cm_conj[t] != t for t in cm_labels):
            return "totally_real mode requires trivial cm conjugation"
    if data.mode == "cm":
        if len({data.restrict[l] for l in labels}) != len(labels):
            return "cm mode requires a bijective restriction"
        if any(data.cm_conj[t] == t for t in cm_labels):
            return "cm mode requires fixed-point-free cm conjugation"
    if data.mode == "general_imaginary":
        if any(data.conj[l] == l for l in labels):
            return "general_imaginary mode requires fixed-point-free conjugation"
    return "ok"


def _classes_mod(data, n: int, classes: dict) -> tuple:
    """n and the classes mod n at the labels, integers given at each label and nowhere else."""
    (n,) = int_tuple((n,))
    if n <= 0:
        raise InputError("modulus must be positive")
    if any(l not in classes for l in data.labels):
        raise InputError("a class must be given at every label")
    stray = set(classes) - set(data.labels)
    if stray:
        raise InputError(f"classes given at unknown labels {sorted(map(str, stray))}")
    return n, {l: k % n for l, k in zip(data.labels, int_tuple(classes[l] for l in data.labels))}


def _through_restrict(data, labels, classes: dict) -> dict | None:
    """The class at each cm label under ``labels``, or None when two classes there differ."""
    by_cm = {}
    for l in labels:
        if by_cm.setdefault(data.restrict[l], classes[l]) != classes[l]:
            return None
    return by_cm


@dataclass(frozen=True)
class HeckeFeasibility:
    typeA: bool
    finite_order: bool


def hecke_extension_feasible(data: CMEmbeddingData, n: int, m: dict) -> HeckeFeasibility:
    """Can residue classes m at the labels come from a type A extension?

    ``m`` maps each label to a class mod n; classes at conjugate labels
    must be opposite.  Type A extensions exist exactly when the classes
    at conjugation-moved labels factor through the CM restriction;
    finite-order extensions additionally need those classes to vanish.
    Classes at conjugation-fixed labels are 2-torsion and unconstrained.
    """
    n, m = _classes_mod(data, n, m)
    for l in data.labels:
        if (m[l] + m[data.conj[l]]) % n != 0:
            raise InputError(f"classes at {l!r} and its conjugate are not opposite")
    moved = data.complex_labels()
    type_a = _through_restrict(data, moved, m) is not None
    finite = all(m[l] == 0 for l in moved)
    return HeckeFeasibility(type_a, finite)


@dataclass(frozen=True)
class CharWitness:
    purity_weight: int       # the common weight, as a class mod n
    weights: dict            # label -> Fraction, an exact realizable family


def galois_char_feasible(data: CMEmbeddingData, n: int, k: dict) -> CharWitness | None:
    """Decide whether classes k_l mod n arise as fractional weights k_l/n.

    Feasible exactly when (a) the classes factor through the CM
    restriction and (b) a single purity weight w exists with
    k_t + k_{conj t} = w mod n over the cm labels; labels fixed by the cm
    conjugation behave like totally real directions and must carry equal
    classes.  In totally_real mode this degenerates to "all classes
    equal".  On success the returned witness family satisfies both
    criteria exactly and reduces to the input classes mod n.
    """
    n, k = _classes_mod(data, n, k)

    # (a) factor through the restriction
    by_cm = _through_restrict(data, data.labels, k)
    if by_cm is None:
        return None

    # (b) one purity weight across the cm labels; a fixed t adds 2 k_t
    fixed = [t for t in data.cm_labels if data.cm_conj[t] == t]
    sums = {(by_cm[t] + by_cm[data.cm_conj[t]]) % n for t in data.cm_labels}
    if len(sums) != 1 or len({by_cm[t] for t in fixed}) > 1:
        # totally real directions inside the CM restriction must agree
        return None
    w = next(iter(sums))

    # integer lifts: each representative t <= cm_conj(t) keeps its class and
    # its conjugate takes the rest of the weight; a fixed direction pins the
    # integral weight to 2 k_fixed, which is w mod n (and sets lift[t] = k_t)
    w_lift = 2 * by_cm[fixed[0]] if fixed else w
    lift = {}
    for t in data.cm_labels:
        tc = data.cm_conj[t]
        if t <= tc:
            lift[t] = by_cm[t]
            lift[tc] = w_lift - by_cm[t]
    weights = {l: Fraction(lift[data.restrict[l]], n) for l in data.labels}
    witness = CharWitness(w, weights)
    _verify_witness(data, n, k, witness)
    return witness


def _verify_witness(data, n, k, witness):
    """Re-check both criteria exactly on the produced weight family."""
    weights = witness.weights
    least = {}   # restriction class -> its least label
    for x in sorted(data.labels):
        least.setdefault(data.restrict[x], x)
    for l in data.labels:
        if weights[l] != weights[least[data.restrict[l]]]:
            raise AssertionError("witness does not factor through the restriction")
        if (weights[l] - Fraction(k[l], n)).denominator != 1:
            raise AssertionError("witness does not reduce to the input classes")
    by_cm = {data.restrict[l]: weights[l] for l in data.labels}
    sums = {by_cm[t] + by_cm[data.cm_conj[t]] for t in data.cm_labels}
    if len(sums) != 1:
        raise AssertionError("witness violates purity")
    scaled = next(iter(sums)) * n
    if scaled.denominator != 1 or (scaled.numerator - witness.purity_weight) % n != 0:
        raise AssertionError("witness purity weight mismatch")
