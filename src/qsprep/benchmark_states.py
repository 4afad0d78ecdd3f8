"""Target-state generators for the benchmark families.

Families: W / Dicke, synthetic dense and sparse random states, a T-friendly
dense-template instance with an exactly synthesizable angle schedule, a toy
tensor-hypercontraction (THC) coefficient state plus a file-based ingestion
path for externally produced THC data, a real SYK ground-state surrogate, and
Magnus permutation states.

Determinism: all randomness flows through numpy's PCG64 generator seeded
explicitly, so identical (family, n, seed) gives bitwise-identical states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rotation_synthesis import TargetState


class ParameterError(ValueError):
    pass


class ParseError(ValueError):
    pass


class DegenerateSurrogateError(RuntimeError):
    """Real part of the SYK ground state vanished; try another seed."""


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    n: int = 0
    k: int = 0
    seed: int = 0
    path: Optional[str] = None

    def __post_init__(self):
        if self.family == "dicke" and not 0 < self.k < self.n:
            raise ParameterError("dicke requires 0 < k < n")
        if self.family == "magnus" and self.k < 1:
            raise ParameterError("magnus requires k >= 1")
        if self.family == "thc_file" and not self.path:
            raise ParameterError("thc_file requires a path")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got seed={seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _check_random_n(family: str, n: int) -> None:
    # indices are drawn from range(2^n), which must fit numpy's int64
    if not 2 <= n <= 62:
        raise ParameterError(f"{family} requires 2 <= n <= 62, got n={n}")


def gen_w(n: int) -> TargetState:
    if n < 1:
        raise ParameterError("w requires n >= 1")
    a = 1.0 / math.sqrt(n)
    return TargetState(n, {1 << (n - 1 - i): a for i in range(n)})


def gen_dicke(n: int, k: int) -> TargetState:
    if not 0 < k < n:
        raise ParameterError("dicke requires 0 < k < n")
    a = 1.0 / math.sqrt(math.comb(n, k))
    amps = {j: a for j in range(1 << n) if bin(j).count("1") == k}
    return TargetState(n, amps)


def gen_dense_random(n: int, seed: int) -> TargetState:
    _check_random_n("dense_random", n)
    rng = _rng(seed)
    m = 1 << (n - 1)
    idx = rng.choice(1 << n, size=m, replace=False)
    vals = rng.standard_normal(m)
    vals[vals == 0] = 1.0
    vals /= np.linalg.norm(vals)
    return TargetState(n, {int(j): float(v) for j, v in zip(idx, vals)})


def gen_sparse_uniform(n: int, seed: int) -> TargetState:
    _check_random_n("sparse_uniform", n)
    rng = _rng(seed)
    idx = rng.choice(1 << n, size=n, replace=False)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    a = 1.0 / math.sqrt(n)
    return TargetState(n, {int(j): float(s) * a for j, s in zip(idx, signs)})


def gen_sparse_random(n: int, seed: int) -> TargetState:
    _check_random_n("sparse_random", n)
    rng = _rng(seed)
    idx = rng.choice(1 << n, size=n, replace=False)
    vals = rng.standard_normal(n)
    vals[vals == 0] = 1.0
    vals /= np.linalg.norm(vals)
    return TargetState(n, {int(j): float(v) for j, v in zip(idx, vals)})


# ---------------------------------------------------------------------------
# T-friendly instances

def _inverse_demux(leaves: List[float]) -> List[float]:
    # inverse of the Gray-code demultiplexer's angle transform: a table
    # built this way demultiplexes back to exactly `leaves`
    if len(leaves) == 1:
        return [leaves[0]]
    half = len(leaves) // 2
    l = _inverse_demux(leaves[:half])
    r = _inverse_demux(leaves[half:])
    return [x + y for x, y in zip(l, r)] + [x - y for x, y in zip(l, r)]


def gen_t_friendly(n: int, seed: int) -> Tuple[TargetState, List[Tuple[int, Tuple[float, ...]]]]:
    """Dense-template product state with an exact angle schedule.

    The schedule lists, per qubit i, the angle table indexed by the bits of
    qubits i+1..n-1 (the suffix), matching the table shape the dense
    reduction recovers when it peels qubits in index order.

    Ry(theta)|0> is exactly Clifford+T-preparable iff theta is a multiple
    of pi/4 (`gridsynth.exactly_preparable`), so uniform tables draw from
    the three such angles inside (0, pi), pi/4, pi/2 and 3pi/4, as exact
    float constants.  Exactness must survive compilation, not just the
    schedule: the demultiplexer emits half-sums/differences of table
    entries, so the other tables are built by inverse-transforming
    rotations drawn from the exact grid.  Entries stay inside (0, pi) so
    every conditional amplitude is positive and the reduction recovers the
    constructed tables verbatim.
    """
    if n < 1:
        raise ParameterError("t_friendly requires n >= 1")
    if seed < 0:   # the schedule stream is seed + 1, which _rng accepts at -1
        raise ParameterError(f"seed must be >= 0, got seed={seed}")
    pos = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    rng = _rng(seed + 1)
    schedule: List[Tuple[int, Tuple[float, ...]]] = []
    tables: List[List[float]] = []
    for i in range(n):
        m = n - 1 - i
        if m == 0 or rng.integers(2) == 0:
            tab = [pos[rng.integers(len(pos))]] * (1 << m)
        else:
            leaves = [0.0] * (1 << m)
            leaves[0] = math.pi / 2
            sign = 1.0 if rng.integers(2) else -1.0
            leaves[1 + int(rng.integers((1 << m) - 1))] = sign * math.pi / 4
            tab = _inverse_demux(leaves)
        tables.append(tab)
        schedule.append((i, tuple(tab)))
    amps: Dict[int, float] = {}
    for x in range(1 << n):
        a = 1.0
        for i in range(n):
            suffix = x & ((1 << (n - 1 - i)) - 1)
            th = tables[i][suffix]
            a *= math.sin(th / 2) if (x >> (n - 1 - i)) & 1 else math.cos(th / 2)
        amps[x] = a
    return TargetState(n, amps), schedule


# ---------------------------------------------------------------------------
# THC coefficient states


def _thc_state(M: int, n_orb: int, t: Dict[int, float],
               xi: Dict[Tuple[int, int], float]) -> TargetState:
    lam = sum(abs(v) for v in t.values()) + 0.5 * sum(abs(v) for v in xi.values())
    if lam <= 0:
        raise ParameterError("all THC coefficients are zero")
    side = 1 << max(1, math.ceil(math.log2(max(M + 1, n_orb // 2))))
    n = 2 * int(math.log2(side))
    amps: Dict[int, float] = {}

    def put(idx: int, val: float) -> None:
        if idx in amps:
            raise ParameterError(f"pair-index collision at {idx}")
        if val != 0:
            amps[idx] = val

    for l, v in t.items():
        put(l * side + M, math.sqrt(abs(v) / lam))
    for (mu, nu), v in xi.items():
        put(mu * side + nu, math.sqrt(abs(v) / (2 * lam)))
    # float-exact renormalization guard (sqrt rounding)
    norm = math.sqrt(sum(a * a for a in amps.values()))
    amps = {j: a / norm for j, a in amps.items()}
    return TargetState(n, amps)


def gen_thc_toy(seed: int) -> TargetState:
    """Synthetic THC-like coefficient state: M=15, n_orb=16, n=8."""
    M, n_orb = 15, 16
    rng = _rng(seed)
    t = rng.standard_normal(n_orb // 2)
    chi = rng.standard_normal((n_orb, M))
    xi = rng.standard_normal((M, M))
    xi = (xi + xi.T) / 2
    # normalize chi columns; absorb column norms into xi
    norms = np.linalg.norm(chi, axis=0)
    xi = xi * norms[:, None] * norms[None, :]
    t_map = {l: float(t[l]) for l in range(n_orb // 2)}
    xi_map = {(mu, nu): float(xi[mu, nu]) for mu in range(M) for nu in range(M)}
    return _thc_state(M, n_orb, t_map, xi_map)


def load_thc_coefficients(path: str) -> TargetState:
    t: Dict[int, float] = {}
    xi: Dict[Tuple[int, int], float] = {}
    M = n_orb = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as e:
        raise ParseError(f"THC coefficient file {path}: not UTF-8 text: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            if M is None:
                M, n_orb = int(toks[0]), int(toks[1])
            elif toks[0] == "t":
                l, v = int(toks[1]), float(toks[2])
                if l in t:
                    raise ValueError(f"duplicate t index {l}")
                if not 0 <= l < n_orb // 2:
                    raise ValueError(f"t index {l} out of range")
                t[l] = v
            elif toks[0] == "xi":
                mu, nu, v = int(toks[1]), int(toks[2]), float(toks[3])
                if (mu, nu) in xi:
                    raise ValueError(f"duplicate xi index {(mu, nu)}")
                if not (0 <= mu < M and 0 <= nu < M):
                    raise ValueError(f"xi index {(mu, nu)} out of range")
                xi[(mu, nu)] = v
            else:
                raise ValueError(f"unknown record {toks[0]!r}")
        except (ValueError, IndexError) as e:
            raise ParseError(f"THC coefficient file {path}:{lineno}: {e}") from e
    if M is None:
        raise ParseError(f"THC coefficient file {path}: missing 'M n_orb' header")
    return _thc_state(M, n_orb, t, xi)


def save_thc_coefficients(path: str, M: int, n_orb: int,
                          t: Dict[int, float],
                          xi: Dict[Tuple[int, int], float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M} {n_orb}\n")
        for l in sorted(t):
            fh.write(f"t {l} {t[l]!r}\n")
        for mu, nu in sorted(xi):
            fh.write(f"xi {mu} {nu} {xi[(mu, nu)]!r}\n")


# ---------------------------------------------------------------------------
# SYK ground-state surrogate


def _majoranas(n: int) -> List[Tuple[complex, int, int]]:
    """Jordan-Wigner Majorana strings as (coeff, x_mask, z_mask).

    A string (c, x, z) acts as c * X^x Z^z with (X^x Z^z)|j> = (-1)^{z.j}|j^x>.
    gamma_{2k} = Z_0..Z_{k-1} X_k,  gamma_{2k+1} = Z_0..Z_{k-1} Y_k.
    """
    out: List[Tuple[complex, int, int]] = []
    for k in range(n):
        mk = 1 << (n - 1 - k)
        zprefix = 0
        for j in range(k):
            zprefix |= 1 << (n - 1 - j)
        out.append((1.0 + 0j, mk, zprefix))
        # Y = i X Z
        out.append((1j, mk, zprefix | mk))
    return out


def _pauli_mul(a: Tuple[complex, int, int],
               b: Tuple[complex, int, int]) -> Tuple[complex, int, int]:
    ca, xa, za = a
    cb, xb, zb = b
    # (X^xa Z^za)(X^xb Z^zb) = (-1)^{za.xb} X^{xa^xb} Z^{za^zb}
    sign = -1.0 if bin(za & xb).count("1") & 1 else 1.0
    return (ca * cb * sign, xa ^ xb, za ^ zb)


def gen_syk_surrogate(n: int, seed: int) -> TargetState:
    """Real surrogate of the SYK_4 ground state on 2n Majoranas."""
    if not 3 <= n <= 10:
        raise ParameterError("syk requires 3 <= n <= 10")
    rng = _rng(seed)
    gammas = _majoranas(n)
    N = 2 * n
    dim = 1 << n
    H = np.zeros((dim, dim), dtype=complex)
    js = np.arange(dim)
    from itertools import combinations
    quads = list(combinations(range(N), 4))
    scale = 1.0 / math.sqrt(len(quads))
    Js = rng.standard_normal(len(quads))
    for (a, b, c, d), J in zip(quads, Js):
        s = _pauli_mul(_pauli_mul(gammas[a], gammas[b]),
                       _pauli_mul(gammas[c], gammas[d]))
        coeff, x, z = s
        signs = 1 - 2 * (np.bitwise_count(js & z) & 1)
        H[js ^ x, js] += (scale * J * coeff) * signs
    evals, evecs = np.linalg.eigh(H)
    v = evecs[:, 0]
    re = np.real(v)
    nrm = np.linalg.norm(re)
    if nrm < 1e-8:
        raise DegenerateSurrogateError(
            "SYK surrogate: ground state real part vanished; "
            "rerun with a different seed")
    re = re / nrm
    return TargetState.from_vector(re)


# ---------------------------------------------------------------------------
# Magnus permutation states


def descent_count(perm: Sequence[int]) -> int:
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


def magnus_coefficient(perm: Sequence[int]) -> Fraction:
    k = len(perm)
    d = descent_count(perm)
    sign = -1 if d & 1 else 1
    return Fraction(sign, k * math.comb(k - 1, d))


def gen_magnus(k: int) -> TargetState:
    if not 1 <= k <= 6:
        raise ParameterError("magnus requires 1 <= k <= 6")
    if k == 1:
        return TargetState(1, {0: 1.0})
    bits = max(1, math.ceil(math.log2(k)))
    n = k * bits
    from itertools import permutations
    amps: Dict[int, float] = {}
    for perm in permutations(range(k)):
        idx = 0
        for v in perm:
            idx = (idx << bits) | v
        amps[idx] = float(magnus_coefficient(perm))
    norm = math.sqrt(sum(a * a for a in amps.values()))
    return TargetState(n, {j: a / norm for j, a in amps.items()})


# ---------------------------------------------------------------------------


def make_state(spec: BenchmarkSpec) -> TargetState:
    f = spec.family
    if f == "w":
        return gen_w(spec.n)
    if f == "dicke":
        return gen_dicke(spec.n, spec.k)
    if f == "dense_random":
        return gen_dense_random(spec.n, spec.seed)
    if f == "sparse_uniform":
        return gen_sparse_uniform(spec.n, spec.seed)
    if f == "sparse_random":
        return gen_sparse_random(spec.n, spec.seed)
    if f == "t_friendly":
        return gen_t_friendly(spec.n, spec.seed)[0]
    if f == "thc_toy":
        return gen_thc_toy(spec.seed)
    if f == "thc_file":
        return load_thc_coefficients(spec.path)
    if f == "syk":
        return gen_syk_surrogate(spec.n, spec.seed)
    if f == "magnus":
        return gen_magnus(spec.k)
    raise ParameterError(f"unknown family {f!r}")
