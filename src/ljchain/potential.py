"""Pair potentials built from sums of inverse powers.

A potential is a finite signed combination sum_k c_k r^{-s_k} with all
exponents s_k > 1, optionally cut off by a hard core of radius sigma
(value +inf for r < sigma).  The n-m form

    f(r) = [m r^-n - n r^-m] / (n - m),  n > m > 1

is normalized to f(1) = -1, f'(1) = 0 and is the main object of study.
"""

from __future__ import annotations

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
        if not exponent > 1.0:
            raise ValueError("exponent must exceed 1 for summable chains")
        return super().__new__(cls, coefficient, exponent)


class PotentialSpec(namedtuple("PotentialSpec", "components sigma mie")):
    """Signed combination of inverse powers, with optional hard core.

    components is a tuple of RieszComponent; sigma the hard-core radius
    or None.  `mie` records the (n, m) pair when the spec was built by
    mie_potential, so the canonical text form can round-trip.
    """
    __slots__ = ()

    def __new__(cls, components: tuple, sigma: float | None = None,
                mie: tuple[float, float] | None = None):
        if not components:
            raise ValueError("potential needs at least one component")
        if sigma is not None and not sigma > 0.0:
            raise ValueError("hard-core radius must be positive")
        return super().__new__(cls, components, sigma, mie)


def mie_potential(n: float, m: float, sigma: float | None = None) -> PotentialSpec:
    """The normalized n-m potential as a two-component spec."""
    if not (n > m > 1.0):
        raise ValueError("need n > m > 1")
    comps = (
        RieszComponent(m / (n - m), n),
        RieszComponent(-n / (n - m), m),
    )
    return PotentialSpec(comps, sigma=sigma, mie=(float(n), float(m)))


# text round-trip: "mie:n=12,m=6" / "mie:n=12,m=6,sigma=1.1"
#                  "riesz:c=1,s=6;c=-2,s=3" (sigma key allowed in any chunk)

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
    if kind == "mie":
        fields = _fields(body)
        extra = set(fields) - {"n", "m", "sigma"}
        if extra or "n" not in fields or "m" not in fields:
            raise ValueError(f"mie form needs n= and m=, got {text!r}")
        return mie_potential(fields["n"], fields["m"], fields.get("sigma"))
    if kind == "riesz":
        comps = []
        sigma = None
        for chunk in body.split(";"):
            fields = _fields(chunk)
            if "sigma" in fields:
                if sigma is not None:
                    raise ValueError("repeated potential field 'sigma'")
                sigma = fields.pop("sigma")
            extra = set(fields) - {"c", "s"}
            if extra:
                raise ValueError(f"unknown potential field {min(extra)!r}")
            if len(fields) != 2:
                raise ValueError(f"riesz chunk needs c= and s=: {chunk!r}")
            comps.append(RieszComponent(fields["c"], fields["s"]))
        return PotentialSpec(tuple(comps), sigma=sigma)
    raise ValueError(f"unknown potential kind {kind!r}")


def format_potential(spec: PotentialSpec) -> str:
    """Canonical text form, inverse of parse_potential."""
    tail = f",sigma={_fmt_num(spec.sigma)}" if spec.sigma is not None else ""
    if spec.mie is not None:
        n, m = spec.mie
        return f"mie:n={_fmt_num(n)},m={_fmt_num(m)}{tail}"
    body = ";".join(
        f"c={_fmt_num(c.coefficient)},s={_fmt_num(c.exponent)}"
        for c in spec.components)
    return f"riesz:{body}{tail}"
