"""The coefficient ring R: a free Z-module of finite rank with an integer
structure tensor, optional Adams operations and optional lambda-operation
tables.

Rings are immutable after construction.  ``validate`` never raises on a
mathematically broken ring; it returns the full list of violations so a CLI
report can show every witness.
"""

import json
import re
from functools import cache

from .errors import ConfigError, DomainError, MissingDataError

Vec = dict[int, int]  # sparse integer vector over basis indices


def _vec_add(a: Vec, b: Vec, scale: int = 1) -> Vec:
    out = dict(a)
    for i, c in b.items():
        n = out.get(i, 0) + scale * c
        if n:
            out[i] = n
        else:
            out.pop(i, None)
    return out


def _vec_scale(a: Vec, c: int) -> Vec:
    return {i: c * x for i, x in a.items()} if c else {}


class RingElement:
    """Integer vector over the ring's basis, in canonical sparse form."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "BaseRing", coeffs: Vec):
        self.ring = ring
        self.coeffs = {i: int(c) for i, c in sorted(coeffs.items()) if c}

    def key(self) -> tuple:
        return tuple(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def basis_index(self):
        """Index if this is a single basis element with coefficient 1."""
        if len(self.coeffs) == 1:
            ((i, c),) = self.coeffs.items()
            if c == 1:
                return i
        return None

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, _vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, _vec_add(self.coeffs, other.coeffs, -1))

    def __neg__(self):
        return RingElement(self.ring, _vec_scale(self.coeffs, -1))

    def __rmul__(self, c: int):
        return RingElement(self.ring, _vec_scale(self.coeffs, int(c)))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, _vec_scale(self.coeffs, other))
        self._check(other)
        return RingElement(self.ring, self.ring.multiply_vec(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative ring powers are undefined here")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.key())

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring is not self.ring:
            raise DomainError("ring elements belong to different rings")

    def __repr__(self):
        return f"<{format_element(self)}>"


class BaseRing:
    """Finite free Z-module with a (total) structure tensor over its basis."""

    def __init__(self, labels, tensor, unit=None, adams=None, lambda_ops=None,
                 lambda_rmax=0, name="ring"):
        self.labels: tuple[str, ...] = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("duplicate basis labels")
        n = len(self.labels)
        self.tensor: dict[tuple[int, int], Vec] = {}
        for i in range(n):
            for j in range(n):
                if (i, j) not in tensor:
                    raise ConfigError(
                        f"structure tensor missing product {self.labels[i]}*{self.labels[j]}"
                    )
                self.tensor[(i, j)] = {
                    k: int(c) for k, c in tensor[(i, j)].items() if c
                }
        self.unit: Vec | None = (
            {i: int(c) for i, c in unit.items() if c} if unit is not None else None
        )
        # adams[d] = list of image vectors, one per basis element
        self.adams: dict[int, list[Vec]] | None = adams
        # lambda_ops[(u, r)] = vector for lambda^r(basis u), 0 <= r <= lambda_rmax
        self.lambda_ops: dict[tuple[int, int], Vec] | None = lambda_ops
        self.lambda_rmax = lambda_rmax
        self.name = name
        self._caches: dict = {}

    # -- elements ------------------------------------------------------------
    def rank(self) -> int:
        return len(self.labels)

    def zero(self) -> RingElement:
        return RingElement(self, {})

    def one(self) -> RingElement:
        if self.unit is None:
            raise DomainError(f"ring {self.name} has no declared unit")
        return RingElement(self, self.unit)

    def basis_element(self, i: int) -> RingElement:
        return RingElement(self, {i: 1})

    def element(self, coeffs) -> RingElement:
        if isinstance(coeffs, str):
            return parse_element(self, coeffs)
        if isinstance(coeffs, dict) and all(isinstance(k, str) for k in coeffs):
            return RingElement(
                self, {self.labels.index(k): v for k, v in coeffs.items()}
            )
        return RingElement(self, dict(coeffs))

    def unit_index(self):
        """Basis index of the unit, or None when 1 is not a basis element."""
        if self.unit is None:
            return None
        if len(self.unit) == 1:
            ((i, c),) = self.unit.items()
            if c == 1:
                return i
        return None

    # -- multiplication ------------------------------------------------------
    def multiply_vec(self, a: Vec, b: Vec) -> Vec:
        out: Vec = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for k, c in self.tensor[(i, j)].items():
                    n = out.get(k, 0) + ca * cb * c
                    if n:
                        out[k] = n
                    else:
                        out.pop(k, None)
        return out

    def commutator_table(self) -> dict[tuple[int, int], tuple]:
        """(u, v) with u > v  ->  expansion of uv - vu, for PBW rewriting."""
        got = self._caches.get("comm")
        if got is None:
            got = {}
            for u in range(self.rank()):
                for v in range(u):
                    diff = _vec_add(self.tensor[(u, v)], self.tensor[(v, u)], -1)
                    if diff:
                        got[(u, v)] = tuple(sorted(diff.items()))
            self._caches["comm"] = got
        return got

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
        for i, c in a.coeffs.items():
            out = _vec_add(out, cols[i], c)
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
        series = [self.one()] + [self.zero()] * n  # lambda_t(a) coefficients
        for u, c in a.coeffs.items():
            col = [self.lambda_basis(u, r) for r in range(n + 1)]
            if c > 0:
                for _ in range(c):
                    series = _series_mul(series, col, n)
            else:
                inv = _series_inverse(col, n, self)
                for _ in range(-c):
                    series = _series_mul(series, inv, n)
        return series[n]

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
            for u in range(n):
                if self.lambda_basis(u, 1) != self.basis_element(u):
                    issues.append(f"lambda^1({lab[u]}) != {lab[u]}")
        return issues

    def __repr__(self):
        return f"BaseRing({self.name}, basis={list(self.labels)})"


def _series_mul(a, b, n):
    out = []
    for k in range(n + 1):
        acc = None
        for i in range(k + 1):
            term = a[i] * b[k - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _series_inverse(a, n, ring):
    # a[0] must be the unit
    if a[0] != ring.one():
        raise DomainError("series inverse needs constant term 1")
    inv = [ring.one()] + [ring.zero()] * n
    for k in range(1, n + 1):
        acc = ring.zero()
        for i in range(1, k + 1):
            acc = acc + a[i] * inv[k - i]
        inv[k] = -acc
    return inv


# ---------------------------------------------------------------------------
# element literals: `2*e - g`, `E12`, `-3*x + 1`

_TERM_RE = re.compile(r"^(?:([+-]?\d+)\s*\*\s*)?([A-Za-z0-9_]+)$")


def parse_element(ring: BaseRing, text: str) -> RingElement:
    src = text.strip()
    if not src:
        raise ConfigError("empty element literal")
    out: Vec = {}
    i = 0
    s = src.replace(" ", "")
    sign = 1
    while i < len(s):
        if s[i] == "+":
            sign = 1
            i += 1
            continue
        if s[i] == "-":
            sign = -1
            i += 1
            continue
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        m = _TERM_RE.match(s[i:j])
        if not m:
            raise ConfigError(f"bad term {s[i:j]!r} in element literal {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        label = m.group(2)
        if label not in ring.labels:
            raise ConfigError(
                f"unknown basis label {label!r}; ring has {list(ring.labels)}"
            )
        k = ring.labels.index(label)
        n = out.get(k, 0) + sign * coeff
        if n:
            out[k] = n
        else:
            out.pop(k, None)
        sign = 1
        i = j
    return RingElement(ring, out)


def format_element(a: RingElement) -> str:
    if not a.coeffs:
        return "0"
    bits = []
    for i, c in a.coeffs.items():
        label = a.ring.labels[i]
        if c == 1:
            bits.append(("+", label))
        elif c == -1:
            bits.append(("-", label))
        elif c > 0:
            bits.append(("+", f"{c}*{label}"))
        else:
            bits.append(("-", f"{-c}*{label}"))
    sign, first = bits[0]
    out = ("-" if sign == "-" else "") + first
    for sign, chunk in bits[1:]:
        out += f" {sign} {chunk}"
    return out


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
    if not isinstance(labels, list) or not labels or not all(
        isinstance(x, str) for x in labels
    ):
        raise ConfigError("'basis' must be a non-empty list of labels")
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
    for i in range(len(labels)):
        for j in range(len(labels)):
            if (i, j) not in tensor:
                raise ConfigError(
                    f"mult table is missing ({labels[i]},{labels[j]}); "
                    "zero products must be written explicitly"
                )
    unit = None
    if "unit" in data:
        unit = _parse_vec(labels, data["unit"], "unit")
    adams = None
    if "adams" in data:
        adams = {}
        tables = _expect_object(data["adams"], "adams", "degree -> table")
        for dkey, table in tables.items():
            d = _parse_int_key(dkey, "adams")
            _expect_object(table, f"adams[{d}]", "label -> image")
            cols: list[Vec] = []
            for lab in labels:
                if lab not in table:
                    raise ConfigError(f"adams[{d}] is missing the image of {lab!r}")
                cols.append(_parse_vec(labels, table[lab], f"adams[{d}][{lab}]"))
            adams[d] = cols
    lam = None
    rmax = 0
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
                lam[(u, r)] = _parse_vec(labels, vec, f"lambda[{lab}][{r}]")
                rmax = max(rmax, r)
    return BaseRing(labels, tensor, unit=unit, adams=adams, lambda_ops=lam,
                    lambda_rmax=rmax, name=name)


def load_ring(path: str) -> BaseRing:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read ring config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"ring config is not valid JSON: {exc}") from exc
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    return ring_from_config(data, name=name)


# ---------------------------------------------------------------------------
# built-in rings

@cache
def integers() -> BaseRing:
    """Z with basis {1}; full lambda-ring data (rank-one: lambda_t(1) = 1+t)."""
    rmax = 8
    lam = {(0, r): {} for r in range(2, rmax + 1)}
    adams = {d: [{0: 1}] for d in range(1, 10)}
    return BaseRing(
        ("1",), {(0, 0): {0: 1}}, unit={0: 1}, adams=adams, lambda_ops=lam,
        lambda_rmax=rmax, name="integers",
    )


def group_algebra(labels, table, name="group_algebra") -> BaseRing:
    """Integral group algebra from a Cayley table (table[i][j] = index of
    the product); validates that the table is a group."""
    n = len(labels)
    if len(table) != n or any(len(row) != n for row in table):
        raise ConfigError("Cayley table must be square over the labels")
    for row in table:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ConfigError("Cayley table entries must be basis indices")
    unit = None
    for i in range(n):
        if all(table[i][j] == j and table[j][i] == j for j in range(n)):
            unit = i
            break
    if unit is None:
        raise ConfigError("Cayley table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ConfigError("Cayley table is not associative")
    for i in range(n):
        if not any(table[i][j] == unit for j in range(n)):
            raise ConfigError(f"element {labels[i]} has no inverse")
    tensor = {
        (i, j): {table[i][j]: 1} for i in range(n) for j in range(n)
    }
    # psi_d(g) = g^d; each basis element is one-dimensional: lambda_t(g) = 1 + g t
    powers: dict[int, list[Vec]] = {}
    for d in range(1, 10):
        cols = []
        for i in range(n):
            acc = unit
            for _ in range(d):
                acc = table[acc][i]
            cols.append({acc: 1})
        powers[d] = cols
    rmax = 8
    lam = {(u, r): {} for u in range(n) for r in range(2, rmax + 1)}
    return BaseRing(
        tuple(labels), tensor, unit={unit: 1}, adams=powers, lambda_ops=lam,
        lambda_rmax=rmax, name=name,
    )


@cache
def cyclic_group_algebra(n: int) -> BaseRing:
    labels = tuple("e" if i == 0 else f"g{i}" if n > 2 else "g" for i in range(n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(labels, table, name=f"ZC{n}")


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
