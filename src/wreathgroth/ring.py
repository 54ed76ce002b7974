"""The coefficient ring R: a free Z-module of finite rank with an integer
structure tensor, optional Adams operations and optional lambda-operation
tables.  An element of R is a ``RingElement``, the ``Combination`` of basis
indices whose coefficients are integers.

``BaseRing`` checks every ring, built in or read from a file: its labels
and a total structure tensor and unit with integer entries.  The JSON
parser checks only what a file alone can get wrong: types, unknown labels,
duplicate rows and the keys of the Adams and lambda tables.

Rings are immutable after construction.  ``validate`` never raises on a
mathematically broken ring; it returns the full list of violations so a CLI
report can show every witness.
"""

import json
import re
from functools import cache
from numbers import Real

from ._exact import (
    Combination, PowerSeries, accumulate, format_terms, from_numerators, power_sum, product,
)
from .errors import ConfigError, DomainError, MissingDataError

Vec = dict[int, int]  # sparse integer vector over basis indices


class RingElement(Combination):
    """An element of R: its basis indices with integer coefficients.  R is a
    Z-module, so a non-integer coefficient or scalar is refused with a
    DomainError, never floored."""

    __slots__ = ("ring",)
    _context = ("ring",)
    _compared = _context

    def __init__(self, ring: "BaseRing", terms=None):
        self.ring = ring
        super().__init__(terms)
        self.assert_integral("ring element", DomainError)

    def _like(self, terms: dict) -> "RingElement":
        return super()._like(terms).assert_integral("ring element", DomainError)

    def key(self) -> tuple:
        """The terms in basis order, as (basis index, integer coefficient):
        equal elements give equal keys."""
        return tuple(sorted(self.terms.items()))

    def basis_index(self):
        """Index if this is a single basis element with coefficient 1."""
        if len(self.terms) == 1:
            ((i, c),) = self.terms.items()
            if c == 1:
                return i
        return None

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Real):
            return self.scale(other)
        return product(self, other)

    __rmul__ = Combination.scale

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative ring powers are undefined here")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def _int_product(self, a: Vec, b: Vec) -> Vec:
        return self.ring.multiply_vec(a, b)

    def _from_ints(self, nums: dict, den: int) -> "RingElement":
        """A product of integral elements: a fraction here is a fault of the
        core, an IntegralityError."""
        return super()._like(from_numerators(nums, den)).assert_integral("ring element")

    def __repr__(self):
        return f"<{format_element(self)}>"


def _int_vec(vec: dict, where: str) -> Vec:
    """vec's nonzero entries as ints; a non-integer is refused, not floored."""
    for c in vec.values():
        if c != int(c):
            raise ConfigError(f"{where} has non-integer coefficient {c}")
    return {k: int(c) for k, c in vec.items() if c}


# a basis label: what element literals (`2*e - g`) and multipartition
# literals (`Z{e:[1];g:[2]}`, split at ':' and ';') can name
_LABEL = "[A-Za-z0-9_]+"


class BaseRing:
    """Finite free Z-module with a (total) structure tensor over its basis."""

    def __init__(self, labels, tensor, unit=None, adams=None, lambda_ops=None, name="ring"):
        self.labels: tuple[str, ...] = tuple(labels)
        if not self.labels:
            raise ConfigError(f"ring {name} has an empty basis")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("duplicate basis labels")
        for label in self.labels:
            if not re.fullmatch(_LABEL, label):
                raise ConfigError(f"basis label {label!r} is not of the form {_LABEL}")
        n = len(self.labels)
        self.tensor: dict[tuple[int, int], Vec] = {}
        for i in range(n):
            for j in range(n):
                a, b = self.labels[i], self.labels[j]
                if (i, j) not in tensor:
                    raise ConfigError(
                        f"mult table is missing ({a},{b}); "
                        "zero products must be written explicitly"
                    )
                self.tensor[(i, j)] = _int_vec(tensor[(i, j)], f"product {a}*{b}")
        self.unit: Vec | None = None if unit is None else _int_vec(unit, "unit")
        # adams[d] = list of image vectors, one per basis element
        self.adams: dict[int, list[Vec]] | None = adams
        # lambda_ops[(u, r)] = vector for lambda^r(basis u), 0 <= r <= lambda_rmax,
        # the largest r declared
        self.lambda_ops: dict[tuple[int, int], Vec] | None = lambda_ops
        self.lambda_rmax = max((r for _, r in lambda_ops or ()), default=0)
        self.name = name
        self._caches: dict = {}

    # -- elements ------------------------------------------------------------
    def rank(self) -> int:
        return len(self.labels)

    def zero(self) -> RingElement:
        return RingElement(self)

    def one(self) -> RingElement:
        if self.unit is None:
            raise DomainError(f"ring {self.name} has no declared unit")
        return RingElement(self, self.unit)

    def basis_element(self, i: int) -> RingElement:
        return RingElement(self, {i: 1})

    def element(self, coeffs) -> RingElement:
        """An element from a literal such as ``2*e - g`` or {index: coefficient}."""
        if isinstance(coeffs, str):
            return parse_element(self, coeffs)
        return RingElement(self, dict(coeffs))

    def memo(self, name: str, build):
        """The ring's cache ``name``, made by ``build()`` on first use."""
        try:
            return self._caches[name]
        except KeyError:
            got = self._caches[name] = build()
            return got

    def unit_index(self):
        """Basis index of the unit, or None when 1 is not a basis element."""
        return None if self.unit is None else self.one().basis_index()

    # -- multiplication ------------------------------------------------------
    def multiply_vec(self, a: Vec, b: Vec) -> Vec:
        out: Vec = {}
        for i, ca in a.items():
            for j, cb in b.items():
                accumulate(out, self.tensor[(i, j)], ca * cb)
        return out

    def commutator_table(self) -> dict[tuple[int, int], tuple]:
        """(u, v) with u > v  ->  expansion of uv - vu, for PBW rewriting."""
        def build():
            diffs = {
                (u, v): accumulate(dict(self.tensor[(u, v)]), self.tensor[(v, u)], -1)
                for u in range(self.rank())
                for v in range(u)
            }
            return {uv: tuple(sorted(diff.items())) for uv, diff in diffs.items() if diff}

        return self.memo("comm", build)

    def is_commutative(self) -> bool:
        return not self.commutator_table()

    def is_monomial_algebra(self) -> bool:
        """Every basis product is zero or a single basis element with coeff 1."""
        return all(
            not v or (len(v) == 1 and next(iter(v.values())) == 1)
            for v in self.tensor.values()
        )

    # -- optional operations ---------------------------------------------------
    def has_adams(self) -> bool:
        return self.adams is not None

    def adams_apply(self, d: int, a: RingElement) -> RingElement:
        if self.adams is None:
            raise MissingDataError(f"ring {self.name} carries no Adams operations")
        if d == 1:
            return a
        if d not in self.adams:
            raise MissingDataError(f"ring {self.name} has no Adams operation psi_{d}")
        cols = self.adams[d]
        out: Vec = {}
        for i, c in a.terms.items():
            accumulate(out, cols[i], c)
        return RingElement(self, out)

    def has_lambda(self) -> bool:
        return self.lambda_ops is not None

    def lambda_basis(self, u: int, r: int) -> RingElement:
        if self.lambda_ops is None:
            raise MissingDataError(f"ring {self.name} carries no lambda operations")
        if r == 0:
            return self.one()
        if r == 1:
            return self.basis_element(u)
        if r > self.lambda_rmax:
            raise MissingDataError(
                f"lambda^{r} exceeds the declared bound r_max={self.lambda_rmax}"
            )
        return RingElement(self, self.lambda_ops.get((u, r), {}))

    def lambda_apply(self, n: int, a: RingElement) -> RingElement:
        """lambda^n extended off the basis by the sum axiom.

        Works with the generating series lambda_t(a) = prod_U lambda_t(U)^c_U
        truncated at t^n; negative coefficients use the series inverse.
        """
        if self.lambda_ops is None:
            raise MissingDataError(f"ring {self.name} carries no lambda operations")
        if n == 0:
            return self.one()
        if n > self.lambda_rmax:
            raise MissingDataError(
                f"lambda^{n} exceeds the declared bound r_max={self.lambda_rmax}"
            )
        one = PowerSeries(self.zero(), n, {0: self.one()})
        series = one  # lambda_t(a)
        for u, c in a.terms.items():
            col = PowerSeries(
                one.zero, n, {r: self.lambda_basis(u, r) for r in range(n + 1)}
            )
            if c < 0:
                # lambda_t(U)^(-1) = sum_k (-x)^k for x = lambda_t(U) - 1
                col = power_sum(col - one, n, lambda k: (-1) ** k, one)
            for _ in range(abs(int(c))):
                series = series * col
        return series.coefficient(n)

    # -- validation ------------------------------------------------------------
    def validate(self) -> list[str]:
        """Exhaustive invariant check; returns all violations with witnesses."""
        issues: list[str] = []
        n = self.rank()
        lab = self.labels
        if self.unit is None:
            issues.append("no unit declared")
        else:
            one = RingElement(self, self.unit)
            for i in range(n):
                b = self.basis_element(i)
                if one * b != b:
                    issues.append(f"unit fails on the left at {lab[i]}")
                if b * one != b:
                    issues.append(f"unit fails on the right at {lab[i]}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a, b, c = (self.basis_element(x) for x in (i, j, k))
                    if (a * b) * c != a * (b * c):
                        issues.append(
                            f"associativity fails at ({lab[i]},{lab[j]},{lab[k]})"
                        )
        if self.adams is not None:
            for d, cols in self.adams.items():
                if len(cols) != n:
                    issues.append(f"psi_{d} table has wrong shape")
            ident = all(
                self.adams.get(1) is None
                or self.adams[1][i] == {i: 1}
                for i in range(n)
            )
            if not ident:
                issues.append("psi_1 is not the identity")
            for d, cols in self.adams.items():
                for i in range(n):
                    for j in range(n):
                        lhs = self.adams_apply(d, self.basis_element(i) * self.basis_element(j))
                        rhs = self.adams_apply(d, self.basis_element(i)) * self.adams_apply(
                            d, self.basis_element(j)
                        )
                        if lhs != rhs:
                            issues.append(
                                f"psi_{d} is not multiplicative at ({lab[i]},{lab[j]})"
                            )
            for d1 in self.adams:
                for d2 in self.adams:
                    if d1 * d2 in self.adams or d1 * d2 == 1:
                        for i in range(n):
                            lhs = self.adams_apply(d1, self.adams_apply(d2, self.basis_element(i)))
                            rhs = self.adams_apply(d1 * d2, self.basis_element(i))
                            if lhs != rhs:
                                issues.append(
                                    f"psi_{d1} o psi_{d2} != psi_{d1 * d2} at {lab[i]}"
                                )
        if self.lambda_ops is not None and self.unit is not None:
            for u in range(n):  # lambda_basis answers r <= 1 without the table
                if self.lambda_ops.get((u, 0), self.unit) != self.unit:
                    issues.append(f"lambda^0({lab[u]}) != 1")
                if self.lambda_ops.get((u, 1), {u: 1}) != {u: 1}:
                    issues.append(f"lambda^1({lab[u]}) != {lab[u]}")
        return issues

    def __repr__(self):
        return f"BaseRing({self.name}, basis={list(self.labels)})"


# ---------------------------------------------------------------------------
# element literals: `2*e - g`, `E12`, `-3*x + 1`

_TERM_RE = re.compile(rf"(?:(\d+)\*)?({_LABEL})")


def parse_element(ring: BaseRing, text: str) -> RingElement:
    """Terms ``[N*]label`` joined by signs, spaces ignored; the first sign may
    be left out, and every sign must be followed by a term."""
    src = text.strip().replace(" ", "")
    if not src:
        raise ConfigError("empty element literal")
    pieces = re.split(r"([+-])", src if src[0] in "+-" else "+" + src)
    out: Vec = {}
    terms = pieces[2::2]
    for sign, term in zip(pieces[1::2], terms):
        if not term:  # a sign with no term: reported after every other fault
            continue
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise ConfigError(f"bad term {term!r} in element literal {text!r}")
        coeff, label = int(m.group(1) or 1), m.group(2)
        if label not in ring.labels:
            raise ConfigError(
                f"unknown basis label {label!r}; ring has {list(ring.labels)}"
            )
        accumulate(out, {ring.labels.index(label): coeff}, -1 if sign == "-" else 1)
    if "" in terms:
        raise ConfigError(f"bad term '' in element literal {text!r}")
    return RingElement(ring, out)


def format_element(a: RingElement) -> str:
    return format_terms((a.ring.labels[i], c) for i, c in sorted(a.terms.items()))


# ---------------------------------------------------------------------------
# JSON configuration

def _expect_object(data, where, what) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object of {what}")
    return data


def _parse_int_key(key: str, where) -> int:
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} must be an integer") from None


def _parse_vec(labels, data, where) -> Vec:
    _expect_object(data, where, "label -> integer")
    out: Vec = {}
    for k, v in data.items():
        if k not in labels:
            raise ConfigError(f"{where}: unknown label {k!r}")
        if type(v) is not int:  # bool is an int subclass; true is not a coefficient
            raise ConfigError(f"{where}: coefficient of {k!r} must be an integer")
        if v:
            out[labels.index(k)] = v
    return out


def ring_from_config(data: dict, name="ring") -> BaseRing:
    """Build a ring from the JSON schema:

    {"basis": ["e","g"], "unit": {"e": 1},
     "mult": [{"left":"e","right":"g","out":{"g":1}}, ...],
     "adams": {"2": {"e":{"e":1}, "g":{"e":1}}},
     "lambda": {"g": {"2": {...}}}}

    Every (left, right) basis pair must appear exactly once; a missing pair is
    an error, not an implicit zero.
    """
    if not isinstance(data, dict):
        raise ConfigError("ring config must be a JSON object")
    labels = data.get("basis")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ConfigError("'basis' must be a list of labels")
    labels = tuple(labels)
    tensor: dict[tuple[int, int], Vec] = {}
    mult = data.get("mult", [])
    if not isinstance(mult, list):
        raise ConfigError("'mult' must be a list of rows")
    for row in mult:
        try:
            left, right, out = row["left"], row["right"], row["out"]
        except (TypeError, KeyError) as exc:
            raise ConfigError("each 'mult' row needs left/right/out") from exc
        if left not in labels or right not in labels:
            raise ConfigError(f"mult row uses unknown labels {left!r},{right!r}")
        key = (labels.index(left), labels.index(right))
        if key in tensor:
            raise ConfigError(f"duplicate mult row for ({left},{right})")
        tensor[key] = _parse_vec(labels, out, f"mult[{left},{right}]")
    unit = None
    if "unit" in data:
        unit = _parse_vec(labels, data["unit"], "unit")
    adams = None
    if "adams" in data:
        adams = {}
        tables = _expect_object(data["adams"], "adams", "degree -> table")
        for dkey, table in tables.items():
            d = _parse_int_key(dkey, "adams")
            if d < 1:
                raise ConfigError(f"adams: degree {d} must be positive")
            _expect_object(table, f"adams[{d}]", "label -> image")
            cols: list[Vec] = []
            for lab in labels:
                if lab not in table:
                    raise ConfigError(f"adams[{d}] is missing the image of {lab!r}")
                cols.append(_parse_vec(labels, table[lab], f"adams[{d}][{lab}]"))
            adams[d] = cols
    lam = None
    if "lambda" in data:
        lam = {}
        tables = _expect_object(data["lambda"], "lambda", "label -> table")
        for lab, table in tables.items():
            if lab not in labels:
                raise ConfigError(f"lambda table uses unknown label {lab!r}")
            u = labels.index(lab)
            _expect_object(table, f"lambda[{lab}]", "r -> vector")
            for rkey, vec in table.items():
                r = _parse_int_key(rkey, f"lambda[{lab}]")
                if r < 0:
                    raise ConfigError(f"lambda[{lab}]: degree {r} must be non-negative")
                lam[(u, r)] = _parse_vec(labels, vec, f"lambda[{lab}][{r}]")
    return BaseRing(labels, tensor, unit=unit, adams=adams, lambda_ops=lam, name=name)


def load_ring(path: str) -> BaseRing:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read ring config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep or too long
        raise ConfigError(f"ring config is not valid JSON: {exc}") from exc
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    return ring_from_config(data, name=name)


# ---------------------------------------------------------------------------
# built-in rings

def _cyclic(n: int, labels, name: str) -> BaseRing:
    """Z[C_n] on basis g^0 = 1, ..., g^(n-1): g^i g^j = g^((i+j) mod n) and
    psi_d(g^i) = g^(di mod n); each basis element is one-dimensional, so
    lambda_t(g) = 1 + g t."""
    tensor = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
    adams = {d: [{d * i % n: 1} for i in range(n)] for d in range(1, 10)}
    lam = {(u, r): {} for u in range(n) for r in range(2, 9)}
    return BaseRing(labels, tensor, unit={0: 1}, adams=adams, lambda_ops=lam, name=name)


@cache
def integers() -> BaseRing:
    return _cyclic(1, ("1",), "integers")  # Z = Z[C_1]


@cache
def cyclic_group_algebra(n: int) -> BaseRing:
    return _cyclic(n, tuple("e" if i == 0 else f"g{i}" if n > 2 else "g" for i in range(n)), f"ZC{n}")


@cache
def matrix_ring(n: int) -> BaseRing:
    """Mat_n(Z) on the elementary-matrix basis E_ij; a monomial algebra."""
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    tensor: dict[tuple[int, int], Vec] = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            tensor[(a, b)] = {idx[(i, l)]: 1} if j == k else {}
    unit = {idx[(i, i)]: 1 for i in range(n)}
    return BaseRing(labels, tensor, unit=unit, name=f"Mat{n}")


@cache
def golden_ring() -> BaseRing:
    """Z[x]/(x^2 - x - 1) on basis {1, x}; not a monomial algebra."""
    tensor = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (1, 0): {1: 1},
        (1, 1): {0: 1, 1: 1},
    }
    return BaseRing(("1", "x"), tensor, unit={0: 1}, name="golden")


def resolve_ring(spec: str) -> BaseRing:
    """CLI ring specifier: a config path or builtin:NAME(args)."""
    if spec.startswith("builtin:"):
        body = spec[len("builtin:"):]
        m = re.match(r"^([a-z_]+)(?:\((\d+)\))?$", body)
        if not m:
            raise ConfigError(f"bad builtin ring spec {spec!r}")
        name, arg = m.group(1), m.group(2)
        if arg is not None and name in ("integers", "golden"):
            raise ConfigError(f"builtin {name!r} takes no argument, got {spec!r}")
        if name == "integers":
            return integers()
        if name == "cyclic":
            return cyclic_group_algebra(int(arg or 2))
        if name == "matrix":
            return matrix_ring(int(arg or 2))
        if name == "golden":
            return golden_ring()
        raise ConfigError(
            f"unknown builtin {name!r}; try integers, cyclic(n), matrix(n), golden"
        )
    return load_ring(spec)
