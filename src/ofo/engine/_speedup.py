"""Compiled closed-loop kernel: `_kernel.c` called through ctypes, for
stepping (`run_segment`) and for writing a segment's CSV rows
(`format_rows`).  Both read their float inputs from `array('d')` buffers,
and run_segment records its samples straight into the `array('d')` columns
it returns, which format_rows reads in place.

The C source is built on first import with the system `cc` into the per-user
cache, `$XDG_CACHE_HOME/ofo` or `~/.cache/ofo`, under a name keyed by the
source, the flags and the machine, so later imports load it directly.  Every
load touches its library and every build deletes those no import has loaded
for 30 days.  Any failure to build or load raises ImportError.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from contextlib import suppress

from ..errors import InputError
from .params import SegmentResult, SegmentSpec

#: No fused multiply-adds and no -ffast-math: the results stay bit for bit
#: those of the pure kernel.  Functions start on 64-byte lines, so the
#: stepping loop's speed does not hang on where an edit elsewhere in the
#: source happens to move it (up to 12% on a short-segment sweep).
FLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

_I, _L, _F = ctypes.c_int, ctypes.c_long, ctypes.c_double
_A = ctypes.POINTER(ctypes.c_double)
#: An `array('d')` column passed by the address of its buffer.
_C = ctypes.c_void_p
_ARGTYPES = [_I, _I, _I, _I, _I,           # n, p, sine, sqrtplus, projected
             _A, _A, _A, _A, _A,           # a, b, drift, c, sens0
             _F, _F, _F, _F, _F,           # cq1, cq2, mu4, alpha, beta
             _F, _F,                       # lo, hi
             _F, _F, _F, _L, _F, _L, _I,   # t0, t_end, dt, n_full, last_dt, stride, include_final
             _F, _A, _A, _F,               # lyap_xi, lyap_p, xstar, ustar
             _A, _A, _C, _C, _C, _C, _C,   # x, u, rec_t, rec_x, rec_u, rec_y, rec_v
             _A, ctypes.POINTER(_I), _A]   # max_violation, blew_up, blowup_time
_FORMAT_ARGTYPES = [_C, _C, _C, _C, _C,    # t, x, u, y, v
                    _I, _I, _L, _L,        # n, p, first, rows
                    ctypes.c_char_p, _L, ctypes.c_char_p, _L,  # w_text, w_len, ustar_text, ustar_len
                    ctypes.c_char_p, _L, ctypes.POINTER(_L)]   # out, cap, done
#: Bytes a sample field and its separator take at most on the exact path
#: (FIELD_MAX + 1 in _kernel.c) and on the snprintf fallback (FALLBACK_MAX + 1).
_FIELD_BYTES, _LONG_FIELD_BYTES = 41, 339


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
        run, fmt = lib.ofo_run_segment, lib.ofo_format_rows
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot build or load the compiled kernel: {exc}") from exc
    run.argtypes, run.restype = _ARGTYPES, _L
    fmt.argtypes, fmt.restype = _FORMAT_ARGTYPES, _L
    return run, fmt


_run, _format = _load()


def _doubles(values, count: int):
    """values as a C double array over an `array('d')` copy, which it keeps
    alive."""
    if len(values) != count:
        raise ValueError(f"kernel input has {len(values)} values, expected {count}")
    return (_F * count).from_buffer(array("d", values))


def run_segment(spec: SegmentSpec) -> SegmentResult:
    n, p, stride = spec.n, spec.p, spec.record_stride
    if min(n, p, stride) < 1 or spec.n_full < 0:
        raise ValueError("kernel needs n, p, record_stride >= 1 and n_full >= 0")
    n_tot = spec.n_full + (1 if spec.last_dt > 0.0 else 0)
    cap = 2 + n_tot // stride
    x, u = _doubles(spec.x0, n), _F(spec.u0)
    widths = (1, n, 1, p, 1)
    columns = [array("d", [0.0]) * (cap * width) for width in widths]
    violation, blew_up, blowup_time = _F(), _I(), _F()
    k = _run(n, p, spec.sine, spec.sqrtplus, spec.projected,
             _doubles(spec.a, n * n), _doubles(spec.b, n), _doubles(spec.drift, n),
             _doubles(spec.c, p * n), _doubles(spec.sens0, p),
             spec.cq1, spec.cq2, spec.mu4, spec.alpha, spec.beta, spec.lo, spec.hi,
             spec.t0, spec.t_end, spec.dt, spec.n_full, spec.last_dt,
             stride, spec.include_final,
             spec.lyap_xi, _doubles(spec.lyap_p, n * n), _doubles(spec.xstar, n), spec.ustar,
             x, ctypes.byref(u), *(column.buffer_info()[0] for column in columns),
             ctypes.byref(violation), ctypes.byref(blew_up), ctypes.byref(blowup_time))
    if k < 0:
        raise MemoryError("compiled kernel could not allocate its scratch memory")
    for column, width in zip(columns, widths):
        del column[k * width:]
    times, xs, us, ys, vs = columns
    return SegmentResult(times=times, xs=xs, us=us, ys=ys, vs=vs,
                         final_x=x[:], final_u=u.value,
                         max_violation=violation.value,
                         blowup_time=blowup_time.value if blew_up.value else None)


def format_rows(samples: SegmentResult, n: int, p: int, w_text: str, ustar_text: str) -> str:
    """pure.format_rows in C.  An `array('d')` column is read in place, any
    other sequence from an `array('d')` copy.  The output buffer is sized for
    every field on the exact path; when long fallback fields overflow it, the
    rows left are written into a larger one."""
    rows = len(samples.times)
    columns = []
    for values, width in ((samples.times, 1), (samples.xs, n), (samples.us, 1),
                          (samples.ys, p), (samples.vs, 1)):
        if len(values) != rows * width:
            raise ValueError(f"sample column has {len(values)} values, expected {rows * width}")
        columns.append(values if isinstance(values, array) and values.typecode == "d"
                       else array("d", values))
    addresses = [column.buffer_info()[0] for column in columns]
    w, ustar = w_text.encode("ascii"), ustar_text.encode("ascii")
    fields = n + p + 3
    cap = rows * (fields * _FIELD_BYTES + len(w) + len(ustar) + 2)
    parts, done = [], _L(0)
    while done.value < rows:
        out = ctypes.create_string_buffer(cap)
        size = _format(*addresses, n, p, done.value, rows, w, len(w), ustar, len(ustar),
                       out, cap, ctypes.byref(done))
        if size < 0:
            raise InputError("cannot format a non-finite value")
        parts.append(str(memoryview(out)[:size], "ascii"))
        cap = max(2 * cap, fields * _LONG_FIELD_BYTES + len(w) + len(ustar) + 2)
    return "".join(parts)
