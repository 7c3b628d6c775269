"""Compiled closed-loop kernel: `_kernel.c` called through ctypes, for
stepping (`run_segment`) and for writing a segment's CSV rows
(`format_rows`).  Both read their float inputs from `array('d')` buffers.
run_segment packs every input the kernel only reads into one buffer per
call, a, b, drift, c, sens0, lyap_p and xstar back to back, after checking
each one's size, and passes u, the worst box violation and the blow-up time
in a three-value state buffer, which starts as (u0, 0, nan) and which the
kernel updates.  It records the samples straight into the `array('d')`
columns it returns, which format_rows reads in place.

The C source is built on first import with the system `cc` into the per-user
cache, `$XDG_CACHE_HOME/ofo` or `~/.cache/ofo`, under a name keyed by the
source, the flags and the machine, so later imports load it directly.  Every
load touches its library and every build deletes those no import has loaded
for 30 days.  Any failure to build or load raises ImportError.
"""

from __future__ import annotations

import ctypes
import math
import os
import zlib
from array import array
from contextlib import suppress
from typing import TYPE_CHECKING

from ..errors import InputError
from .params import SegmentResult

if TYPE_CHECKING:
    from .spec import SegmentSpec

#: No fused multiply-adds and no -ffast-math: the results stay bit for bit
#: those of the pure kernel.  Functions start on 64-byte lines, so the
#: stepping loop's speed does not hang on where an edit elsewhere in the
#: source happens to move it (up to 12% on a short-segment sweep).
FLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

_I, _L, _F = ctypes.c_int, ctypes.c_long, ctypes.c_double
#: An `array('d')` buffer passed by its address.
_C = ctypes.c_void_p
_ARGTYPES = [_I, _I, _I, _I, _I, _C,       # n, p, sine, sqrtplus, projected, inputs
             _F, _F, _F, _F, _F, _F, _F,   # cq1, cq2, mu4, alpha, beta, lo, hi
             _F, _F, _F, _L, _F, _L, _I,   # t0, t_end, dt, n_full, last_dt, stride, include_final
             _F, _F, _C, _C,               # lyap_xi, ustar, x, state
             _C, _C, _C, _C, _C]           # rec_t, rec_x, rec_u, rec_y, rec_v
_FORMAT_ARGTYPES = [_C, _C, _C, _C, _C,    # t, x, u, y, v
                    _I, _I, _L,            # n, p, rows
                    ctypes.c_char_p, _L, ctypes.c_char_p, _L,  # w_text, w_len, ustar_text, ustar_len
                    ctypes.POINTER(_C)]    # out


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
    """Compile source into target; then delete the libraries untouched for 30 days."""
    import glob
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
    cutoff = os.stat(target).st_mtime - 30 * 24 * 3600
    for path in glob.glob(os.path.join(os.path.dirname(target), "kernel-*.so")):
        with suppress(OSError):
            if os.stat(path).st_mtime < cutoff:
                os.unlink(path)


def _load():
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        key = zlib.crc32(" ".join((*FLAGS, os.uname().machine)).encode(), zlib.crc32(source))
        path = os.path.join(_cache_dir(), f"kernel-{key:08x}.so")
        if not os.path.exists(path):
            _build(source, path)
        with suppress(OSError):  # marks it in use; a failed touch still loads
            os.utime(path)
        lib = ctypes.CDLL(path)
        run, fmt, free = lib.ofo_run_segment, lib.ofo_format_rows, lib.ofo_free
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot build or load the compiled kernel: {exc}") from exc
    run.argtypes, run.restype = _ARGTYPES, _L
    fmt.argtypes, fmt.restype = _FORMAT_ARGTYPES, _L
    free.argtypes, free.restype = [_C], None
    return run, fmt, free


_run, _format, _free = _load()


def _address(values: array) -> int:
    return values.buffer_info()[0]


def run_segment(spec: SegmentSpec) -> SegmentResult:
    n, p, stride = spec.n, spec.p, spec.record_stride
    if min(n, p, stride) < 1 or spec.n_full < 0:
        raise ValueError("kernel needs n, p, record_stride >= 1 and n_full >= 0")
    # every size is checked before the inputs are packed: in one buffer a
    # wrong length would shift every later input instead of failing
    for name, count in (("a", n * n), ("b", n), ("drift", n), ("c", p * n), ("sens0", p),
                        ("lyap_p", n * n), ("xstar", n), ("x0", n)):
        got = len(getattr(spec, name))
        if got != count:
            raise ValueError(f"kernel input {name} has {got} values, expected {count}")
    inputs = array("d", [*spec.a, *spec.b, *spec.drift, *spec.c, *spec.sens0,
                         *spec.lyap_p, *spec.xstar])
    x = array("d", spec.x0)
    state = array("d", (spec.u0, 0.0, math.nan))
    n_tot = spec.n_full + (1 if spec.last_dt > 0.0 else 0)
    cap = 2 + n_tot // stride
    widths = (1, n, 1, p, 1)
    columns = [array("d", [0.0]) * (cap * width) for width in widths]
    k = _run(n, p, spec.sine, spec.sqrtplus, spec.projected, _address(inputs),
             spec.cq1, spec.cq2, spec.mu4, spec.alpha, spec.beta, spec.lo, spec.hi,
             spec.t0, spec.t_end, spec.dt, spec.n_full, spec.last_dt,
             stride, spec.include_final, spec.lyap_xi, spec.ustar,
             _address(x), _address(state), *map(_address, columns))
    if k < 0:
        raise MemoryError("compiled kernel could not allocate its scratch memory")
    for column, width in zip(columns, widths):
        del column[k * width:]
    times, xs, us, ys, vs = columns
    final_u, max_violation, blowup_time = state
    return SegmentResult(times=times, xs=xs, us=us, ys=ys, vs=vs,
                         final_x=x.tolist(), final_u=final_u,
                         max_violation=max_violation,
                         blowup_time=None if math.isnan(blowup_time) else blowup_time)


def format_rows(samples: SegmentResult, n: int, p: int, w_text: str, ustar_text: str) -> bytes:
    """pure.format_rows in C.  An `array('d')` column is read in place, any
    other sequence from an `array('d')` copy.  The C code writes the rows
    into memory it allocates for this call alone, and they come back copied
    into the bytes returned."""
    rows = len(samples.times)
    columns = []
    for values, width in ((samples.times, 1), (samples.xs, n), (samples.us, 1),
                          (samples.ys, p), (samples.vs, 1)):
        if len(values) != rows * width:
            raise ValueError(f"sample column has {len(values)} values, expected {rows * width}")
        columns.append(values if isinstance(values, array) and values.typecode == "d"
                       else array("d", values))
    w, ustar = w_text.encode("ascii"), ustar_text.encode("ascii")
    out = _C()
    size = _format(*map(_address, columns), n, p, rows, w, len(w), ustar, len(ustar),
                   ctypes.byref(out))
    if size == -1:
        raise InputError("cannot format a non-finite value")
    if size < 0:
        raise MemoryError("compiled formatter could not allocate its output")
    try:
        return ctypes.string_at(out.value, size)
    finally:
        _free(out)
