"""Pure states on labeled qubit registers, reduced densities, and Schmidt
coefficients.

Conventions used throughout the package:

* a register is an ordered list of integer site labels, each owned by one party;
* the first site in register order is the most significant bit of the
  amplitude index, so ``|b1 b2 ... bn>`` sits at index ``sum(b_i << (n-i))``;
* states are stored as unit-norm complex vectors of length ``2**n``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateState,
    EmptySubset,
    LabelCollision,
    ParseError,
    RegisterMismatch,
    WrongArity,
)

NORM_TOL = 1e-9
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Register:
    """Ordered qubit sites with a party label per site: an integer site
    label (not a bool) and a string party."""

    sites: tuple[int, ...]
    parties: tuple[str, ...]

    def __post_init__(self):
        for site, party in zip(self.sites, self.parties):
            if isinstance(site, bool) or not isinstance(site, (int, np.integer)) or not isinstance(party, str):
                raise ConstraintViolation(f"site label {site!r} and party {party!r} must be an integer and a string")
        # numpy integers and strings become plain ones
        object.__setattr__(self, "sites", tuple(map(int, self.sites)))
        object.__setattr__(self, "parties", tuple(map(str, self.parties)))
        if len(self.sites) == 0:
            raise ConstraintViolation("register needs at least one site")
        if len(self.sites) != len(self.parties):
            raise ConstraintViolation("one party label per site required")
        if len(set(self.sites)) != len(self.sites):
            raise LabelCollision(f"duplicate site labels in {self.sites}")

    @classmethod
    def of(cls, assignment: Sequence[tuple[int, str]]) -> "Register":
        sites = tuple(s for s, _ in assignment)
        parties = tuple(p for _, p in assignment)
        return cls(sites, parties)

    @classmethod
    def for_parties(cls, *parties: str, start: int = 1) -> "Register":
        """One site per party, labeled ``start``, ``start+1``, ..."""
        return cls(tuple(range(start, start + len(parties))), tuple(parties))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def dim(self) -> int:
        return 2 ** len(self.sites)

    def axis_of(self, site: int) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise RegisterMismatch(f"site {site} not in register {self.sites}") from None

    def party_of(self, site: int) -> str:
        return self.parties[self.axis_of(site)]

    def party_labels(self) -> tuple[str, ...]:
        """Distinct party labels, sorted."""
        return tuple(sorted(set(self.parties)))

    def sites_of(self, parties: Iterable[str]) -> tuple[int, ...]:
        """Sites owned by any of ``parties``, in register order."""
        wanted = set(parties)
        unknown = wanted - set(self.parties)
        if unknown:
            raise RegisterMismatch(f"unknown parties {sorted(unknown)}")
        return tuple(s for s, p in zip(self.sites, self.parties) if p in wanted)

    def without(self, drop: Iterable[int]) -> "Register":
        gone = set(drop)
        unknown = gone - set(self.sites)
        if unknown:
            raise RegisterMismatch(f"sites {sorted(unknown)} not in register {self.sites}")
        keep = [(s, p) for s, p in zip(self.sites, self.parties) if s not in gone]
        return Register.of(keep)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm amplitude vector over a register."""

    register: Register
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.register.dim,):
            raise ConstraintViolation(
                f"amplitude vector must have length {self.register.dim}, got {amps.shape}"
            )
        # vdot overflows to inf without the warning np.linalg.norm gives
        nrm = float(np.sqrt(np.vdot(amps, amps).real))
        # written so that a NaN norm fails the check too
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ConstraintViolation(f"state norm {nrm!r} deviates from 1 by > {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_sites(self) -> int:
        return self.register.n_sites

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per site, register order."""
        return self.amplitudes.reshape((2,) * self.n_sites)

    def overlap(self, other: "PureState") -> complex:
        if self.register != other.register:
            raise RegisterMismatch("overlap requires identical registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def is_close(self, other: "PureState") -> bool:
        """Equality up to a global phase."""
        return abs(self.overlap(other)) > 1.0 - 1e-9

    def permuted(self, site_order: Sequence[int]) -> "PureState":
        """Same physical state with register sites listed in ``site_order``."""
        order = tuple(int(s) for s in site_order)
        if sorted(order) != sorted(self.register.sites):
            raise RegisterMismatch(f"{order} is not a permutation of {self.register.sites}")
        reg = Register(order, tuple(self.register.party_of(s) for s in order))
        return PureState(reg, _cut(self, order).reshape(-1))

    def fingerprint(self) -> str:
        h = hashlib.sha1()
        h.update(repr(self.register).encode())
        # adding 0.0 turns a negative zero, also one rounded from -1e-13,
        # into zero, so one state has one fingerprint
        h.update((np.round(self.amplitudes, 12).view(np.float64) + 0.0).tobytes())
        return f"q{self.n_sites}:{h.hexdigest()[:10]}"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density operator on the sites owned by a party subset.

    Row index runs over the retained sites in register order, first retained
    site most significant.
    """

    parties: tuple[str, ...]
    matrix: np.ndarray
    sites: tuple[int, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConstraintViolation(f"density matrix must be square, got {m.shape}")
        # every check is written so that NaN fails it
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL:
            raise ConstraintViolation("density matrix is not Hermitian within 1e-12")
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ConstraintViolation(f"density matrix trace {tr!r} deviates from 1")
        if not np.linalg.eigvalsh(m).min() >= -PSD_TOL:
            raise ConstraintViolation("density matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "parties", tuple(self.parties))
        object.__setattr__(self, "sites", tuple(self.sites))


def _rank(sv: np.ndarray, scale: float = 0.0) -> int | np.ndarray:
    """The one rank rule: the number of singular values ``sv`` whose squares
    exceed ``RANK_TOL`` times the square of ``max(scale, largest)``, so 0 when
    that is 0.  ``scale`` bounds the largest singular value, so against it a
    vanishing matrix has rank 0.  Spectra stacked along the last axis give
    an array with one rank per row."""
    # fmax skips a NaN largest value, as the scale then decides
    top = np.fmax(scale, sv.max(axis=-1, keepdims=True)) ** 2
    ranks = (sv**2 > RANK_TOL * top).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


# ---------------------------------------------------------------------------
# named families


def _require_sites(register: Register, n: int, what: str) -> None:
    if register.n_sites != n:
        raise WrongArity(f"{what} needs a {n}-site register, got {register.n_sites} sites")


def w_family(a: float, b: float, c: float, d: float, register: Register) -> PureState:
    """State ``sqrt(a)|100> + sqrt(b)|010> + sqrt(c)|001> + sqrt(d)|000>``.

    Requires ``a, b, c > 0``, ``d >= 0`` and ``a+b+c+d == 1`` (within 1e-9).
    """
    _require_sites(register, 3, "w_family")
    if not (a > 0 and b > 0 and c > 0):
        raise ConstraintViolation("w_family requires a, b, c > 0")
    if d < 0:
        raise ConstraintViolation("w_family requires d >= 0")
    if abs((a + b + c + d) - 1.0) > NORM_TOL:
        raise ConstraintViolation(f"w_family weights sum to {a + b + c + d!r}, not 1")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b100] = np.sqrt(a)
    amps[0b010] = np.sqrt(b)
    amps[0b001] = np.sqrt(c)
    amps[0b000] = np.sqrt(d)
    return PureState(register, amps)


def w_state(register: Register) -> PureState:
    """The symmetric three-qubit W state."""
    return w_family(1 / 3, 1 / 3, 1 / 3, 0.0, register)


def ghz(register: Register) -> PureState:
    """``(|000> + |111>)/sqrt(2)``."""
    _require_sites(register, 3, "ghz")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    return PureState(register, amps)


def epr(register: Register) -> PureState:
    """``(|00> + |11>)/sqrt(2)``."""
    _require_sites(register, 2, "epr")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return PureState(register, amps)


def computational(register: Register, bits: str | Sequence[int]) -> PureState:
    """Computational basis state, e.g. ``computational(reg, "00")``."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != register.n_sites or any(b not in (0, 1) for b in bits):
        raise ConstraintViolation(f"need {register.n_sites} bits, got {bits}")
    amps = np.zeros(register.dim, dtype=np.complex128)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amps[idx] = 1.0
    return PureState(register, amps)


def ghz_class(
    delta: float,
    phi: float,
    alpha: float,
    beta: float,
    gamma: float,
    register: Register,
) -> PureState:
    """Normalized ``cos(d)|000> + sin(d) e^{i phi} |pA>|pB>|pC>``.

    Each single-qubit factor is ``cos(t)|0> + sin(t)|1>``.  The overall factor
    is fixed by explicitly normalizing the (generally non-orthogonal)
    superposition; a destructively interfering parameter choice raises
    DegenerateState.
    """
    _require_sites(register, 3, "ghz_class")
    one = lambda t: np.array([np.cos(t), np.sin(t)], dtype=np.complex128)
    prod = np.outer(np.outer(one(alpha), one(beta)), one(gamma)).reshape(-1)
    v = np.sin(delta) * np.exp(1j * phi) * prod
    v[0] += np.cos(delta)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise DegenerateState("ghz_class parameters interfere to the zero vector")
    return PureState(register, v / nrm)


# ---------------------------------------------------------------------------
# composition and reduction


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Tensor product; registers are concatenated (site labels must be fresh)."""
    common = set(s1.register.sites) & set(s2.register.sites)
    if common:
        raise LabelCollision(f"site labels {sorted(common)} appear in both registers")
    reg = Register(
        s1.register.sites + s2.register.sites,
        s1.register.parties + s2.register.parties,
    )
    return PureState(reg, np.outer(s1.amplitudes, s2.amplitudes).reshape(-1))


def _cut(s: PureState, rows: Sequence[int]) -> np.ndarray:
    """The amplitudes of ``s`` as a matrix: the row index runs over the sites
    ``rows`` in the order given, first site most significant, and the column
    index over the other sites in register order."""
    axes = [s.register.axis_of(x) for x in rows]
    rest = [ax for ax in range(s.n_sites) if ax not in axes]
    return np.transpose(s.tensor_view(), axes + rest).reshape(2 ** len(axes), -1)


def reduced_density_sites(s: PureState, keep_sites: Sequence[int]) -> DensityMatrix:
    """Partial trace down to ``keep_sites`` (kept in register order)."""
    keep = [s.register.sites[ax] for ax in sorted({s.register.axis_of(x) for x in keep_sites})]
    if not keep:
        raise EmptySubset("no sites retained")
    if len(keep) == s.n_sites:
        raise EmptySubset("nothing to trace out")
    m = _cut(s, keep)
    rho = m @ m.conj().T
    parties = tuple(sorted({s.register.party_of(x) for x in keep}))
    return DensityMatrix(parties, rho, tuple(keep))


def schmidt(s: PureState, left: Iterable[str]) -> np.ndarray:
    """Squared Schmidt coefficients across the cut (left parties)|(complement),
    nonincreasing: the SVD returns exactly as many as the smaller side's
    dimension, those past the Schmidt rank numerical zeros."""
    wanted = set(left)
    if not wanted:
        raise EmptySubset("empty left subset")
    left_sites = s.register.sites_of(wanted)
    if not left_sites:
        raise EmptySubset(f"parties {sorted(wanted)} own no sites")
    if len(left_sites) == s.n_sites:
        raise EmptySubset("cut needs a nonempty complement")
    return np.linalg.svd(_cut(s, left_sites), compute_uv=False) ** 2


def apply_site_ops(s: PureState, ops: Mapping[int, np.ndarray]) -> PureState:
    """Apply one 2x2 operator per listed site and scale the result to unit norm.

    Operators need not be unitary (this is the SLOCC workhorse); a result with
    numerically zero norm raises DegenerateState.
    """
    v = s.amplitudes
    for site, op in ops.items():
        ax = s.register.axis_of(site)
        op = np.asarray(op, dtype=np.complex128)
        if op.shape != (2, 2):
            raise ConstraintViolation(f"site operator for {site} must be 2x2")
        # the operator acts on the middle axis of the (sites before, site, sites after) view
        v = (op @ v.reshape(2**ax, 2, -1)).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise DegenerateState("local operator annihilated the state")
    return PureState(s.register, v / nrm)


# ---------------------------------------------------------------------------
# serialization


def _sig12(x: float) -> float:
    """The one rounding rule for report floats: 12 significant digits."""
    return float(f"{x:.12g}")


def _doc(v):
    """The one report rule: ``v`` as JSON data.  A record becomes its report,
    a named row or a dict an object, a tuple or a list a list, a finite float
    12 significant digits, and a non-finite float null, since strict JSON has
    no inf or nan."""
    if isinstance(v, _Report):
        return v.to_dict()
    if hasattr(v, "_asdict"):
        v = v._asdict()
    if isinstance(v, dict):
        return {k: _doc(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_doc(x) for x in v]
    if isinstance(v, float):
        return _sig12(v) if np.isfinite(v) else None
    return v


class _Report:
    """Mixin for a dataclass result record whose report is its fields through ``_doc``."""

    def to_dict(self) -> dict:
        return {f.name: _doc(getattr(self, f.name)) for f in fields(self)}


def state_to_dict(s: PureState) -> dict:
    return {
        "sites": [
            {"label": int(site), "party": party}
            for site, party in zip(s.register.sites, s.register.parties)
        ],
        "amplitudes": [[float(z.real), float(z.imag)] for z in s.amplitudes],
    }


def state_from_dict(d: Mapping) -> PureState:
    """The state a document describes; site labels must be integers, parties
    strings and amplitude parts real numbers, as ``state_to_dict`` writes them."""
    try:
        register = Register.of([(row["label"], row["party"]) for row in d["sites"]])
        amps = []
        for re, im in d["amplitudes"]:
            for part in (re, im):
                if isinstance(part, bool) or not isinstance(part, (int, float)):
                    raise TypeError(f"amplitude part {part!r} is not a real number")
            amps.append(complex(re, im))
    except (KeyError, TypeError, ValueError, OverflowError, ConstraintViolation) as exc:
        raise ConstraintViolation(f"malformed state document: {exc}") from exc
    return PureState(register, np.array(amps))


class ReportFile:
    """A report path, opened once and rewritten in place.

    Opening an existing path neither truncates nor creates it, so a path
    that cannot be written fails before any work and one that exists keeps
    its bytes until ``write``.  ``write`` puts the text at the start of the
    file in one call, then cuts a regular file to its length; a special file
    such as ``/dev/null``, or a pipe behind ``/dev/stdout``, is not cut, nor
    is the file standard output goes to, which is written after what it holds
    (``--json /dev/stdout > file``).  Closed unwritten, a file that opening created is removed again.
    Rewriting in place frees no blocks, which truncating on open or
    replacing the file by a rename would.
    """

    def __init__(self, path):
        self.path = path
        try:
            self._fd, self._made = os.open(path, os.O_WRONLY), False
        except FileNotFoundError:
            self._fd, self._made = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), True

    def write(self, text: str) -> None:
        data = memoryview(text.encode())
        size, fd, st = len(data), self._fd, os.fstat(self._fd)
        cut = stat.S_ISREG(st.st_mode)
        with contextlib.suppress(OSError):  # standard output may be closed
            if cut and fd != 1 and os.path.samestat(st, os.fstat(1)):
                fd, cut = 1, False
        while data:  # one call, unless the write is cut short
            data = data[os.write(fd, data) :]
        if cut:
            os.ftruncate(fd, size)
        self._made = False

    def close(self) -> None:
        os.close(self._fd)
        if self._made:
            os.remove(self.path)

    def __enter__(self) -> "ReportFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_state(s: PureState, path) -> None:
    """Write ``s`` to ``path`` as a state document (``state_to_dict``,
    indent 1, no trailing newline), rewriting the file in place."""
    text = json.dumps(state_to_dict(s), indent=1)
    with ReportFile(path) as fh:
        fh.write(text)


def load_state(path) -> PureState:
    """The state saved at ``path``.  A file that is not UTF-8 JSON raises
    ParseError, as does one nested too deep or holding an integer too long
    to decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # undecodable bytes, bad JSON and an integer past Python's digit limit are
    # ValueErrors; nesting past the recursion limit is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return state_from_dict(doc)
