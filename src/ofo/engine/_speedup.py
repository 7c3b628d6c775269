"""Compiled closed-loop stepping kernel: `_kernel.c` called through ctypes.

The C source is built on first import with the system `cc` into the per-user
cache, `$XDG_CACHE_HOME/ofo` or `~/.cache/ofo`, under a name keyed by the
source, the flags and the machine, so later imports load it directly.  Any
failure to build or load raises ImportError.
"""

from __future__ import annotations

import ctypes
import os
import zlib

from .params import COST_SQRTPLUS, CTRL_PROJECTED, PLANT_SINE, SegmentResult, SegmentSpec

#: No fused multiply-adds and no -ffast-math: the results stay bit for bit
#: those of the pure kernel.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

_I, _L, _F = ctypes.c_int, ctypes.c_long, ctypes.c_double
_A = ctypes.POINTER(ctypes.c_double)
_ARGTYPES = [_I, _I, _I, _I, _I, _I,       # n, m, p, sine, sqrtplus, projected
             _A, _A, _A, _A, _A,           # a, b, drift, c, sens0
             _F, _F, _F, _F, _F,           # cq1, cq2, mu4, alpha, beta
             _A, _A,                       # lo, hi
             _F, _F, _F, _L, _F, _L, _I,   # t0, t_end, dt, n_full, last_dt, stride, include_final
             _F, _A, _A, _A,               # lyap_xi, lyap_p, xstar, ustar
             _A, _A, _A, _A, _A, _A, _A,   # x, u, rec_t, rec_x, rec_u, rec_y, rec_v
             _A, ctypes.POINTER(_I), _A]   # max_violation, blew_up, blowup_time


def _cache_dir() -> str:
    """The per-user cache directory, created 0700; refused unless this user
    owns it and nobody else may write to it."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "ofo")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise ImportError(f"kernel cache {path} is not private to this user")
    return path


def _build(source: bytes, target: str) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(["cc", *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                              input=source, capture_output=True)
        if proc.returncode != 0:
            raise ImportError(f"cc failed on {SOURCE}: "
                              + proc.stderr.decode(errors="replace").strip())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        key = zlib.crc32(" ".join((*FLAGS, os.uname().machine)).encode(), zlib.crc32(source))
        path = os.path.join(_cache_dir(), f"kernel-{key:08x}.so")
        if not os.path.exists(path):
            _build(source, path)
        fn = ctypes.CDLL(path).ofo_run_segment
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot build or load the compiled kernel: {exc}") from exc
    fn.argtypes = _ARGTYPES
    fn.restype = _L
    return fn


_run = _load()


def _doubles(values, count: int):
    if len(values) != count:
        raise ValueError(f"kernel input has {len(values)} values, expected {count}")
    return (_F * count)(*values)


def run_segment(spec: SegmentSpec) -> SegmentResult:
    n, m, p, stride = spec.n, spec.m, spec.p, spec.record_stride
    if min(n, m, p, stride) < 1 or spec.n_full < 0:
        raise ValueError("kernel needs n, m, p, record_stride >= 1 and n_full >= 0")
    n_tot = spec.n_full + (1 if spec.last_dt > 0.0 else 0)
    cap = 2 + n_tot // stride
    x, u = _doubles(spec.x0, n), _doubles(spec.u0, m)
    rec_t, rec_x, rec_u, rec_y = ((_F * (cap * k))() for k in (1, n, m, p))
    xi = spec.lyap_xi
    if xi:
        lyap = (_doubles(spec.lyap_p, n * n), _doubles(spec.xstar, n), _doubles(spec.ustar, m))
        rec_v = (_F * cap)()
    else:
        lyap, rec_v = (None, None, None), None
    violation, blew_up, blowup_time = _F(), _I(), _F()
    k = _run(n, m, p, spec.plant_kind == PLANT_SINE, spec.cost_kind == COST_SQRTPLUS,
             spec.ctrl_kind == CTRL_PROJECTED,
             _doubles(spec.a, n * n), _doubles(spec.b, n * m), _doubles(spec.drift, n),
             _doubles(spec.c, p * n), _doubles(spec.sens0, p * m),
             spec.cq1, spec.cq2, spec.mu4, spec.alpha, spec.beta,
             _doubles(spec.lo, m), _doubles(spec.hi, m),
             spec.t0, spec.t_end, spec.dt, spec.n_full, spec.last_dt,
             stride, spec.include_final, xi, *lyap, x, u, rec_t, rec_x, rec_u, rec_y, rec_v,
             ctypes.byref(violation), ctypes.byref(blew_up), ctypes.byref(blowup_time))
    if k < 0:
        raise MemoryError("compiled kernel could not allocate its scratch memory")
    return SegmentResult(times=rec_t[:k], xs=rec_x[:k * n], us=rec_u[:k * m],
                         ys=rec_y[:k * p], vs=rec_v[:k] if xi else [],
                         final_x=x[:], final_u=u[:],
                         max_violation=violation.value,
                         blowup_time=blowup_time.value if blew_up.value else None)
