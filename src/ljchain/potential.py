"""Pair potentials built from sums of inverse powers.

A potential is a finite signed combination sum_k c_k r^{-s_k} with
finite coefficients and finite exponents s_k > 1.  A hard core is not
part of a potential: `hardcore.HardCoreConfig` pairs one with a radius.
The n-m form

    f(r) = [m r^-n - n r^-m] / (n - m),  n > m > 1

is normalized to f(1) = -1, f'(1) = 0 and is the main object of study:
the energies take any combination, but the crossing, the gap solver,
the hard core and the text form need the (n, m) pair, which
_require_mie reads from the spec's tag.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

__all__ = [
    "RieszComponent",
    "PotentialSpec",
    "mie_potential",
    "parse_potential",
    "format_potential",
]


class RieszComponent(namedtuple("RieszComponent", "coefficient exponent")):
    """One c * r^(-s) term."""
    __slots__ = ()

    def __new__(cls, coefficient: float, exponent: float):
        if not 1.0 < exponent < math.inf:
            raise ValueError("exponent must be finite and exceed 1 for summable chains")
        if not math.isfinite(coefficient):
            raise ValueError("coefficient must be finite")
        return super().__new__(cls, coefficient, exponent)


class PotentialSpec(namedtuple("PotentialSpec", "components mie")):
    """Signed combination of inverse powers.

    components is a tuple of RieszComponent.  `mie` records the (n, m)
    pair when the spec is the n-m potential, and must then match the
    components; mie_potential builds it.
    """
    __slots__ = ()

    def __new__(cls, components: tuple, mie: tuple[float, float] | None = None):
        if not components:
            raise ValueError("potential needs at least one component")
        if not all(isinstance(c, RieszComponent) for c in components):
            raise ValueError("potential components must be RieszComponent")
        if mie is not None and tuple(components) != _mie_components(*mie):
            raise ValueError(f"mie tag {mie!r} does not match the components")
        return super().__new__(cls, components, mie)


def _mie_components(n: float, m: float) -> tuple:
    """The two components of the normalized n-m potential."""
    if not (n > m > 1.0):
        raise ValueError("need n > m > 1")
    return RieszComponent(m / (n - m), n), RieszComponent(-n / (n - m), m)


def mie_potential(n: float, m: float) -> PotentialSpec:
    """The normalized n-m potential as a two-component spec."""
    return PotentialSpec(_mie_components(n, m), mie=(float(n), float(m)))


def _require_mie(spec: PotentialSpec) -> tuple[float, float]:
    """The (n, m) pair of an n-m potential; ValueError for any other spec."""
    if spec.mie is None:
        raise ValueError("requires an n-m potential")
    return spec.mie


# text round-trip of the n-m form: "mie:n=12,m=6"

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _fmt_num(v: float) -> str:
    # the short %g form where it reads back as the same double, else repr
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _fields(text: str) -> dict[str, float]:
    """The key=number pairs of one comma-separated group, each key once."""
    fields = {}
    for piece in text.split(","):
        k, _, v = piece.partition("=")
        k = k.strip()
        if not v or not re.fullmatch(_NUM, v.strip()):
            raise ValueError(f"malformed potential field {piece!r}")
        if k in fields:
            raise ValueError(f"repeated potential field {k!r}")
        fields[k] = float(v)
    return fields


def parse_potential(text: str) -> PotentialSpec:
    """Parse the canonical text form of a potential."""
    text = text.strip()
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if not body:
        raise ValueError(f"malformed potential {text!r}")
    if kind != "mie":
        raise ValueError(f"unknown potential kind {kind!r}")
    fields = _fields(body)
    if set(fields) != {"n", "m"}:
        raise ValueError(f"mie form needs n= and m=, got {text!r}")
    return mie_potential(fields["n"], fields["m"])


def format_potential(spec: PotentialSpec) -> str:
    """Canonical text form, inverse of parse_potential."""
    n, m = _require_mie(spec)
    return f"mie:n={_fmt_num(n)},m={_fmt_num(m)}"
