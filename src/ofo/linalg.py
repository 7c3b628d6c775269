"""Small dense linear algebra on plain Python floats.

Everything here is sized for desk-scale control problems (a handful of states),
so the algorithms favour exactness and testability over asymptotic speed:
the one Lyapunov equation in use, A P + P A^T = -I, is solved by vectorizing
its n^2 x n^2 linear system, and the inverse by solving A X = I a column at a
time, both through one Gaussian elimination with one pivot rule; symmetric
eigenvalues come from cyclic Jacobi sweeps, characteristic polynomials from
the Faddeev-LeVerrier recursion and their stability from Routh's array, and
matrices are immutable tuples.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._record import FrozenRecord, set_fields
from .errors import InputError, NotStabilizedError, SingularMatrixError

Vector = tuple[float, ...]

#: Residual bound every successful Lyapunov solve must meet.
LYAPUNOV_RESIDUAL_TOL = 1e-10

_JACOBI_SWEEP_LIMIT = 100
_JACOBI_OFFDIAG_TOL = 1e-14
_SINGULARITY_TOL = 1e-12


def as_vector(values: Iterable[float], name: str = "vector") -> Vector:
    """Coerce an iterable of numbers to an immutable, all-finite vector."""
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise InputError(f"{name} contains a non-finite entry")
    return out


class Matrix(FrozenRecord):
    """Immutable dense matrix stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Vector):
        if rows <= 0 or cols <= 0:
            raise InputError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise InputError("matrix data length does not match its dimensions")
        for v in data:
            if not math.isfinite(v):
                raise InputError("matrix contains a non-finite entry")
        set_fields(self, rows=rows, cols=cols, data=data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix":
        if not rows:
            raise InputError("matrix must have at least one row")
        width = len(rows[0])
        flat: list[float] = []
        for r in rows:
            if len(r) != width:
                raise InputError("matrix rows have inconsistent widths")
            flat.extend(float(v) for v in r)
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> float:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def matvec(self, v: Sequence[float]) -> Vector:
        if len(v) != self.cols:
            raise InputError(f"matvec dimension mismatch: {self.rows}x{self.cols} with vector of length {len(v)}")
        out = []
        for i in range(self.rows):
            acc = 0.0
            base = i * self.cols
            for j in range(self.cols):
                acc += self.data[base + j] * v[j]
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matmul dimension mismatch")
        cols = [other.data[j::other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            row = self.row(i)
            for col in cols:
                acc = 0.0
                for x, y in zip(row, col):
                    acc += x * y
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix addition dimension mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.data, other.data)))

    def scale(self, factor: float) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(factor * v for v in self.data))

    def max_norm(self) -> float:
        return max(abs(v) for v in self.data)

    def symmetry_defect(self) -> float:
        if self.rows != self.cols:
            raise InputError("symmetry defect needs a square matrix")
        return max(
            (abs(self.entry(i, j) - self.entry(j, i)) for i in range(self.rows) for j in range(i)),
            default=0.0,
        )


def _solve_dense(a: list[list[float]], b: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting; raises on singular systems.

    A pivot is refused when it is at most _SINGULARITY_TOL times the largest
    entry of the system, so the verdict does not change when the system is
    scaled.
    """
    n = len(a)
    scale = max((max(abs(v) for v in row) for row in a), default=0.0)
    piv_tol = _SINGULARITY_TOL * scale
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) <= piv_tol:
            raise SingularMatrixError("linear system is singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col]
        inv_pivot = 1.0 / pivot[col]
        cols = range(col, n)
        for r in range(col + 1, n):
            row = a[r]
            factor = row[col] * inv_pivot
            if factor == 0.0:
                continue
            for c in cols:
                row[c] -= factor * pivot[c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def solve_lyapunov(a: Matrix) -> Matrix:
    """Solve A P + P A^T = -I for symmetric positive-definite P.

    A positive-definite solution exists exactly when A is Hurwitz, so failure
    (singular system or an indefinite P) is reported as "plant not
    pre-stabilized".
    """
    if a.rows != a.cols:
        raise InputError("Lyapunov solve needs a square A")
    n = a.rows

    # Row-major vectorization: vec(A P) = (A (x) I) vec(P), vec(P A^T) = (I (x) A) vec(P).
    size = n * n
    k = [[0.0] * size for _ in range(size)]
    rhs = [0.0] * size
    for i in range(n):
        for j in range(n):
            r = i * n + j
            rhs[r] = -(1.0 if i == j else 0.0)
            for l in range(n):
                k[r][i * n + l] += a.entry(j, l)
                k[r][l * n + j] += a.entry(i, l)
    try:
        vec_p = _solve_dense(k, rhs)
    except SingularMatrixError as exc:
        raise NotStabilizedError("plant not pre-stabilized: Lyapunov system is singular") from exc

    # Exact symmetrization; the equation is symmetric in exact arithmetic.
    sym = tuple(0.5 * (vec_p[i * n + j] + vec_p[j * n + i]) for i in range(n) for j in range(n))
    p = Matrix(n, n, sym)

    # The residual carries rounding of the size of the terms A P and P A^T,
    # so it is judged against ||A|| ||P|| as well as ||I|| = 1.
    residual = a.matmul(p).add(p.matmul(a.transpose())).add(Matrix.identity(n)).max_norm()
    if residual > LYAPUNOV_RESIDUAL_TOL * max(1.0, a.max_norm() * p.max_norm()):
        raise NotStabilizedError(
            f"plant not pre-stabilized: Lyapunov residual {residual:.3e} exceeds tolerance")
    if min(sym_eigenvalues(p)) <= 0.0:
        raise NotStabilizedError("plant not pre-stabilized: Lyapunov solution is not positive-definite")
    return p


def faddeev_leverrier(a: Matrix, left: Sequence[float],
                      right: Sequence[float]) -> tuple[Vector, Vector]:
    """Coefficients, highest power first, of det(sI - A) and of
    left^T adj(sI - A) right.

    The recursion M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I
    gives det(sI - A) = s^n + c_1 s^(n-1) + ... + c_n and
    adj(sI - A) = M_1 s^(n-1) + ... + M_n, so the second polynomial has the
    n coefficients left^T M_k right.
    """
    if a.rows != a.cols:
        raise InputError("characteristic polynomial needs a square matrix")
    n = a.rows
    eye = Matrix.identity(n)
    m, char, adj = eye, [1.0], []
    for k in range(1, n + 1):
        adj.append(sum(li * v for li, v in zip(left, m.matvec(right))))
        am = a.matmul(m)
        ck = -sum(am.entry(i, i) for i in range(n)) / k
        char.append(ck)
        m = am.add(eye.scale(ck))
    return tuple(char), tuple(adj)


def routh_hurwitz(coeffs: Sequence[float]) -> bool:
    """Whether every root of the polynomial with these coefficients, highest
    power first and the first positive, has a negative real part.

    Routh's test: each row of the Routh array is the row two above it minus
    the multiple of the row above that clears its first entry, and the roots
    are all in the open left half-plane exactly when every first entry is
    positive.  A first entry that is zero or not a number fails the test.
    """
    prev, cur = list(coeffs[0::2]), list(coeffs[1::2])
    while cur:
        if not cur[0] > 0.0:
            return False
        ratio = prev[0] / cur[0]
        cur.append(0.0)
        prev, cur = cur[:-1], [prev[j + 1] - ratio * cur[j + 1] for j in range(len(prev) - 1)]
    return True


def sym_eigenvalues(m: Matrix) -> Vector:
    """Eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi rotations."""
    if m.rows != m.cols:
        raise InputError("eigenvalues need a square matrix")
    scale = m.max_norm()
    if m.symmetry_defect() > 1e-12 * scale:
        raise InputError("matrix is not symmetric")
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    if n == 1:
        return (a[0][0],)
    tol = _JACOBI_OFFDIAG_TOL * scale
    for _ in range(_JACOBI_SWEEP_LIMIT):
        off = max(abs(a[i][j]) for i in range(n) for j in range(n) if i != j)
        if off <= tol:
            break
        for p_idx in range(n - 1):
            for q_idx in range(p_idx + 1, n):
                apq = a[p_idx][q_idx]
                if abs(apq) <= tol:
                    continue
                tau = (a[q_idx][q_idx] - a[p_idx][p_idx]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    if k in (p_idx, q_idx):
                        continue
                    akp, akq = a[k][p_idx], a[k][q_idx]
                    a[k][p_idx] = c * akp - s * akq
                    a[p_idx][k] = a[k][p_idx]
                    a[k][q_idx] = s * akp + c * akq
                    a[q_idx][k] = a[k][q_idx]
                app, aqq = a[p_idx][p_idx], a[q_idx][q_idx]
                a[p_idx][p_idx] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q_idx][q_idx] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p_idx][q_idx] = 0.0
                a[q_idx][p_idx] = 0.0
    return tuple(sorted(a[i][i] for i in range(n)))


def spectral_norm(m: Matrix) -> float:
    """Largest singular value, computed as sqrt(lambda_max(M^T M))."""
    gram = m.transpose().matmul(m)
    return math.sqrt(max(0.0, max(sym_eigenvalues(gram))))


def inverse(m: Matrix) -> Matrix:
    """Dense inverse: A X = I solved one column at a time by _solve_dense."""
    if m.rows != m.cols:
        raise InputError("inverse needs a square matrix")
    n = m.rows
    try:
        cols = [_solve_dense([list(m.row(i)) for i in range(n)],
                             [1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    except SingularMatrixError as exc:
        raise SingularMatrixError("singular plant matrix") from exc
    inv = Matrix(n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))
    # Rounding leaves a residual of about eps ||A|| ||A^-1||, so it is judged
    # against ||A|| ||A^-1|| as well as ||I|| = 1, as in solve_lyapunov.
    check = m.matmul(inv).add(Matrix.identity(n).scale(-1.0)).max_norm()
    if check > 1e-10 * max(1.0, m.max_norm() * inv.max_norm()):
        raise SingularMatrixError("singular plant matrix")
    return inv


def vec_add(a: Sequence[float], b: Sequence[float]) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[float], b: Sequence[float]) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def quad_form(p: Matrix, v: Sequence[float]) -> float:
    """v^T P v."""
    pv = p.matvec(v)
    return sum(x * y for x, y in zip(v, pv))
