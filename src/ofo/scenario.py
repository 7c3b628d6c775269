"""Scenario files: one YAML document describing plant, cost, controller,
disturbance schedule, simulation window, and optional certificate inputs.

The document is read by a strict reader of the YAML subset that scenarios
use, written with the standard library only.  It builds the document PyYAML's
`yaml.safe_load` builds from every text it accepts, and refuses every other
form with the line it is on, so it never reads a text otherwise than PyYAML.

Parsing builds the RunConfig the scenario runs, from the plant (LinearPlant
or SinePlant), the cost (QuadraticCost or SqrtPlusCost), the projected law's
BoxSet and the DisturbanceSchedule.  Each constructor makes its own checks
(the plant's refuses a B of other than one column), its error prefixed with
its YAML section.  Parsing itself refuses unknown keys, checks the type and range of
every field, naming its YAML path, and the fits across sections: the length
of x0, the one value of u0 and of each box bound, the schedule's width
against B_w and its last start against t_end, and the scalar output that the
sqrtplus cost needs.  RunConfig repeats the run's checks for library
callers, so on a parsed scenario they always pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, NoReturn, TypeVar

from .certificate import CONSTANT_FIELDS
from .controllers import BoxSet
from .costs import QuadraticCost, SqrtPlusCost, check_fit
from .errors import InputError
from .linalg import Matrix
from .plants import LinearPlant, SinePlant
from .sim import DisturbanceSchedule, RunConfig, DEFAULT_MAX_RECORDS

PLANTS = {"linear": LinearPlant, "sine": SinePlant}
#: Each cost kind's own keys, besides `kind` and `mu4`.
COST_KEYS = {"quadratic": ("q_u", "q_y"), "sqrtplus": ("a",)}
CONTROLLER_KINDS = ("gradient", "projected")

T = TypeVar("T")

#: Plain scalars that PyYAML's SafeLoader reads as null or as a bool.
_CONSTANTS = {"~": None, "null": None, "Null": None, "NULL": None,
              **dict.fromkeys("yes Yes YES true True TRUE on On ON".split(), True),
              **dict.fromkeys("no No NO false False FALSE off Off OFF".split(), False)}
_INF = float("inf")
_NAN = -_INF / _INF  # PyYAML's one nan object, made as PyYAML makes it
_DIGITS = "0123456789_"
#: Starts of the integers PyYAML reads as binary, hex or octal.
_NOT_DECIMAL = ("0b", "0x", "0_", "00", "01", "02", "03", "04", "05", "06", "07")
#: Characters that may not begin a plain scalar (PyYAML's, plus '?' and ':').
_INDICATORS = "?:,[]{}#&*!|>'\"%@`"
_KEY_SPAN = 1024  # PyYAML's longest simple key, from its first character to its ':'


def _fail(line: int, what: str) -> NoReturn:
    raise InputError(f"scenario: YAML parse error: line {line}: {what}")


def _scalar(text: str, line: int) -> Any:
    """A plain scalar's value, as PyYAML's SafeLoader resolves it; a form it
    would read as another type (octal, hex, binary or sexagesimal numbers,
    dates, merge keys) is refused."""
    head = text[0]
    if head not in "+-.0123456789" or not text.isascii():
        if text in ("<<", "="):
            _fail(line, f"{text!r} is a YAML merge or value key")
        return _CONSTANTS.get(text, text)
    sign, body = (-1, text[1:]) if head == "-" else (1, text[1:] if head == "+" else text)
    if body in (".inf", ".Inf", ".INF"):
        return sign * _INF
    if text in (".nan", ".NaN", ".NAN"):
        return _NAN
    if body == "0":
        return 0
    if body[:1] in "123456789" and body and not body.strip(_DIGITS):
        try:
            return sign * int(body.replace("_", ""))
        except ValueError:  # beyond Python's limit on the digits of an int
            _fail(line, f"an integer of {len(body)} digits")
    mantissa, e, exponent = body.replace("E", "e").partition("e")
    whole, dot, fraction = mantissa.partition(".")
    if (dot and not (whole + fraction).strip(_DIGITS)
            and (whole[:1].isdigit() if whole or head in "+-" else fraction[:1].isdigit())
            and (not e or exponent[:1] in ("+", "-") and exponent[1:].isdigit())):
        return sign * float(body.replace("_", ""))
    if body[:1].isdigit() and (":" in body or body.startswith(_NOT_DECIMAL)
                               or body[4:5] == "-" and body[:4].isdigit()):
        _fail(line, f"{text!r} would read as an octal, hex, binary or sexagesimal number "
                    f"or as a date")
    return text


def _plain(text: str, line: int) -> Any:
    if text[:1] in _INDICATORS or text[0] == "-" and text[1:2] in ("", " "):
        _fail(line, f"{text!r} begins with a YAML indicator; anchors, aliases, tags, "
                    f"block scalars, directives and '?' keys are not supported")
    return _scalar(text, line)


def _quoted(text: str, p: int, line: int) -> tuple[str, int]:
    """The quoted scalar at text[p], which must end on its line and, double
    quoted, hold no backslash escape; and the index after it."""
    quote, j = text[p], p
    while True:
        j = text.find(quote, j + 1)
        if j < 0:
            _fail(line, "a quoted scalar must end on the line it starts")
        if quote == '"' or text[j + 1:j + 2] != "'":
            break
        j += 1
    value = text[p + 1:j]
    if quote == '"' and "\\" in value:
        _fail(line, "backslash escapes are not supported")
    return (value if quote == '"' else value.replace("''", "'")), j + 1


def _key(text: str, line: int) -> tuple[Any, str] | None:
    """(key, rest of the line) when a block row is `key: ...`, else None."""
    if text[0] in "'\"":
        key, j = _quoted(text, 0, line)
        j = len(text) - len(text[j:].lstrip(" "))
        if text[j:j + 1] != ":" or text[j + 1:j + 2] not in ("", " "):
            return None
    else:
        head = text.partition(" #")[0]
        j = head.find(": ")
        if j < 0:
            if not head.endswith(":"):
                return None
            j = len(head) - 1
        key = _plain(head[:j].rstrip(" "), line)
    if j > _KEY_SPAN:
        _fail(line, "a key longer than PyYAML reads")
    return key, text[j + 1:].lstrip(" ")


def _entry(text: str) -> bool:
    return text[0] == "-" and text[1:2] in ("", " ")


class _Reader:
    """One document, read from the text's rows: its non-blank, non-comment
    lines, as (indentation, content, line number)."""

    def __init__(self, text: str):
        self.rows, self.i, marker = [], 0, False
        # the line being read, and the flow parser's row and its block's column
        self.line, self.buf, self.col = 0, "", -1
        for n, line in enumerate(text.removeprefix("\ufeff").replace("\r\n", "\n").split("\n"), 1):
            content = line.lstrip(" ")
            if not content.isprintable():
                _fail(n, "tabs and control characters are not allowed")
            if not content or content[0] == "#":
                continue
            if len(line) == len(content) and content[:3] in ("---", "..."):
                if self.rows or marker or content.partition(" #")[0].rstrip(" ") != "---":
                    _fail(n, "a scenario is one document, with at most a leading '---' line")
                marker = True
                continue
            self.rows.append((len(line) - len(content), content, n))

    def document(self) -> Any:
        """The document: null, a block mapping or a block sequence."""
        try:
            doc = self.value("", -1, 0, False)
        except RecursionError:
            _fail(self.line, "collections are nested too deeply")
        if self.i < len(self.rows):
            _fail(self.rows[self.i][2], "expected the end of the document")
        return doc

    def block(self, col: int) -> Any:
        """The block sequence or mapping whose first row is at column col."""
        seq = _entry(self.rows[self.i][1])
        node: Any = [] if seq else {}
        while self.i < len(self.rows):
            c, text, n = self.rows[self.i]
            self.line = n
            if c != col:
                if c < col:
                    break
                _fail(n, "unexpected indentation")
            if not seq:
                pair = _key(text, n)
                if pair is None:
                    _fail(n, "expected 'key: value'")
                self.i += 1
                node[pair[0]] = self.value(pair[1], col, n, True)
                continue
            if not _entry(text):
                break
            rest = text[1:].lstrip(" ")
            if rest and rest[0] != "#" and (_entry(rest) or rest[0] not in "[{" and _key(rest, n)):
                # a compact entry: `- - x` or `- key: x`, read as a row of its own
                sub = col + len(text) - len(rest)
                self.rows[self.i] = (sub, rest, n)
                node.append(self.block(sub))
            else:
                self.i += 1
                node.append(self.value(rest, col, n, False))
        return node

    def value(self, rest: str, col: int, n: int, indentless: bool) -> Any:
        """The value after `key:` or `-` on a row at column col: on the row,
        else the block below it (a sequence under a key may start at the key's
        own column), else null."""
        if rest and rest[0] != "#":
            return self.inline(rest, col, n)
        if self.i < len(self.rows):
            c, text, _ = self.rows[self.i]
            if c > col or indentless and c == col and _entry(text):
                return self.block(c)
        return None

    def inline(self, text: str, col: int, n: int) -> Any:
        if text[0] in "[{":
            self.buf, self.line, self.col = text, n, col
            value, p = self.flow(0)
            text, n = self.buf[p:], self.line
        elif text[0] in "'\"":
            value, p = _quoted(text, 0, n)
            text = text[p:]
        else:
            text = text.partition(" #")[0].rstrip(" ")
            if ": " in text or text.endswith(":"):
                _fail(n, "a mapping is not allowed here")
            return _plain(text, n)
        text = text.lstrip(" ")
        if text and text[0] != "#":
            _fail(n, f"unexpected {text[:20]!r} after a value")
        return value

    def skip(self, p: int) -> int:
        """The index of the next flow token, in self.buf or, past the end of
        its line or a comment, in the next row."""
        buf = self.buf
        while p < len(buf) and buf[p] == " ":
            p += 1
        if p < len(buf) and buf[p] != "#":
            return p
        if self.i == len(self.rows):
            _fail(self.line, "a flow collection is not closed")
        c, self.buf, self.line = self.rows[self.i]
        if c <= self.col:
            _fail(self.line, "a flow collection must continue right of its block's indentation")
        self.i += 1
        return 0

    def flow(self, p: int) -> tuple[Any, int]:
        """The flow node at self.buf[p] and the index after it in self.buf,
        which may by then hold a later row."""
        buf, opening = self.buf, self.buf[p]
        if opening in "'\"":
            return _quoted(buf, p, self.line)
        if opening not in "[{":
            j = p
            while j < len(buf):
                ch = buf[j]
                if (ch in ",[]{}?" or ch == ":" and buf[j + 1:j + 2] in " ,[]{}"
                        or ch == "#" and buf[j - 1] == " "):
                    break
                j += 1
            return _plain(buf[p:j].rstrip(" "), self.line), j
        node: Any = [] if opening == "[" else {}
        closing = "]" if opening == "[" else "}"
        p = self.skip(p + 1)
        while self.buf[p] != closing:
            if opening == "[":
                item, p = self.flow(p)
                node.append(item)
            else:
                start = p
                if self.buf[p] in "[{":
                    _fail(self.line, "a flow mapping key must be a scalar")
                key, p = self.flow(p)
                buf = self.buf
                while buf[p:p + 1] == " ":
                    p += 1
                if (buf[p:p + 1] != ":" or buf[p + 1:p + 2] not in ("", " ")
                        or p - start > _KEY_SPAN):
                    _fail(self.line, "expected ': ' after a flow mapping key, on its line")
                node[key], p = self.flow(self.skip(p + 1))
            p = self.skip(p)
            if self.buf[p] == ",":
                p = self.skip(p + 1)
            elif self.buf[p] != closing:
                _fail(self.line, f"expected ',' or {closing!r}")
        return node, p + 1


def _require(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise InputError(f"{path}: expected a mapping")
    if key not in mapping:
        raise InputError(f"{path}.{key}: missing required field")
    return mapping[key]


def _known_keys(mapping: dict, allowed: tuple, path: str, what: str = "field") -> None:
    """Refuse a key of the mapping at path that is not in allowed."""
    for key in mapping:
        if key not in allowed:
            raise InputError(f"{path}.{key}: unknown {what}; expected one of {', '.join(allowed)}")


def _number(value: Any, path: str, finite: bool = True) -> float:
    """A YAML number; finite unless `finite` is False (box bounds may be +-inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if math.isnan(number):
        raise InputError(f"{path}: expected a number, got {value!r}")
    if finite and math.isinf(number):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return number


def _number_list(value: Any, path: str, finite: bool = True,
                 length: int | None = None) -> list[float]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of numbers")
    if length is not None and len(value) != length:
        raise InputError(f"{path}: expected a list of length {length}, got {len(value)}")
    return [_number(v, f"{path}[{i}]", finite) for i, v in enumerate(value)]


def _matrix(value: Any, path: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of rows")
    rows = [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
    return _build(path, Matrix.from_rows, rows=rows)


def _build(section: str, make: Callable[..., T], **fields: Any) -> T:
    """make(**fields), with an InputError it raises prefixed by its YAML section."""
    try:
        return make(**fields)
    except InputError as exc:
        raise InputError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the run configuration it describes (at the default
    weight xi = 1), its gain, and the certificate's overrides and claimed
    bound."""

    config: RunConfig
    alpha: float
    overrides: dict[str, float] = dc_field(default_factory=dict)
    claimed_mu_bound_rhs: float | None = None

    @classmethod
    def from_dict(cls, doc: Any) -> "Scenario":
        if not isinstance(doc, dict):
            raise InputError("scenario: expected a mapping at the top level")
        _known_keys(doc, ("plant", "cost", "controller", "schedule", "sim", "certificate"),
                    "scenario", "section")

        plant_doc = _require(doc, "plant", "scenario")
        plant_kind = _require(plant_doc, "kind", "plant")
        if plant_kind not in PLANTS:
            raise InputError(f"plant.kind: must be one of {tuple(PLANTS)}, got {plant_kind!r}")
        _known_keys(plant_doc, ("kind", "A", "B", "B_w", "C"), "plant")
        a, b, bw, c = (_matrix(_require(plant_doc, key, "plant"), f"plant.{key}")
                       for key in ("A", "B", "B_w", "C"))
        plant = _build("plant", PLANTS[plant_kind], a=a, b=b, bw=bw, c=c)

        cost_doc = _require(doc, "cost", "scenario")
        cost_kind = _require(cost_doc, "kind", "cost")
        if cost_kind not in COST_KEYS:
            raise InputError(f"cost.kind: must be one of {tuple(COST_KEYS)}, got {cost_kind!r}")
        _known_keys(cost_doc, ("kind", "mu4", *COST_KEYS[cost_kind]), "cost")
        mu4 = _number(cost_doc.get("mu4", 0.0), "cost.mu4")
        if mu4 < 0.0:
            raise InputError("cost.mu4: must be nonnegative")
        if cost_kind == "quadratic":
            cost = _build("cost", QuadraticCost,
                          q_u=_number(_require(cost_doc, "q_u", "cost"), "cost.q_u"),
                          q_y=_number(cost_doc.get("q_y", 1.0), "cost.q_y"), mu4=mu4)
        else:
            cost = _build("cost", SqrtPlusCost,
                          a=_number(_require(cost_doc, "a", "cost"), "cost.a"), mu4=mu4)
        _build("cost", check_fit, cost=cost, p=plant.p)

        controller = _require(doc, "controller", "scenario")
        controller_kind = _require(controller, "kind", "controller")
        if controller_kind not in CONTROLLER_KINDS:
            raise InputError(
                f"controller.kind: must be one of {CONTROLLER_KINDS}, got {controller_kind!r}")
        _known_keys(controller, ("kind", "alpha", "box", "beta"), "controller")
        alpha = _number(_require(controller, "alpha", "controller"), "controller.alpha")
        if alpha <= 0.0:
            raise InputError("controller.alpha: must be positive")
        box = beta = None
        if controller_kind == "projected":
            box_doc = _require(controller, "box", "controller")
            (lo,), (hi,) = (_number_list(_require(box_doc, key, "controller.box"),
                                         f"controller.box.{key}", finite=False, length=1)
                            for key in ("lo", "hi"))
            _known_keys(box_doc, ("lo", "hi"), "controller.box")
            box = _build("controller.box", BoxSet, lo=lo, hi=hi)
            if "beta" in controller:
                beta = _number(controller["beta"], "controller.beta")
                limit = 1.0 / cost.grad_u_lipschitz
                if not 0.0 < beta <= limit:
                    raise InputError(f"controller.beta: must lie in (0, 1/L] = (0, {limit}]")
        else:
            for key in ("box", "beta"):
                if key in controller:
                    raise InputError(f"controller.{key}: only valid for the projected law")

        schedule_doc = _require(doc, "schedule", "scenario")
        if not isinstance(schedule_doc, list) or not schedule_doc:
            raise InputError("schedule: expected a non-empty list of [t_start, w...] rows")
        segments = []
        for i, row in enumerate(schedule_doc):
            vals = _number_list(row, f"schedule[{i}]")
            if len(vals) < 2:
                raise InputError(f"schedule[{i}]: needs a start time and disturbance values")
            segments.append((vals[0], tuple(vals[1:])))
        schedule = _build("schedule", DisturbanceSchedule, segments=tuple(segments))
        if schedule.q != plant.bw.cols:
            raise InputError(
                f"schedule: disturbance width {schedule.q} does not match plant.B_w "
                f"({plant.bw.cols} columns)")

        sim = _require(doc, "sim", "scenario")
        t_end = _number(_require(sim, "t_end", "sim"), "sim.t_end")
        _known_keys(sim, ("t_end", "dt", "x0", "u0", "max_records"), "sim")
        if t_end <= 0.0:
            raise InputError("sim.t_end: must be positive")
        if schedule.segments[-1][0] >= t_end:
            raise InputError("schedule: last segment starts at or after sim.t_end")
        dt = _number(sim["dt"], "sim.dt") if "dt" in sim else None
        if dt is not None and dt <= 0.0:
            raise InputError("sim.dt: must be positive")
        n = plant.n
        x0 = tuple(_number_list(sim["x0"], "sim.x0", length=n)) if "x0" in sim else (0.0,) * n
        (u0,) = _number_list(sim["u0"], "sim.u0", length=1) if "u0" in sim else (0.0,)
        max_records = sim.get("max_records", DEFAULT_MAX_RECORDS)
        if isinstance(max_records, bool) or not isinstance(max_records, int) or max_records < 2:
            raise InputError(f"sim.max_records: expected an integer of at least 2, "
                             f"got {max_records!r}")

        overrides: dict[str, float] = {}
        claimed = None
        if "certificate" in doc and doc["certificate"] is not None:
            cert = doc["certificate"]
            if not isinstance(cert, dict):
                raise InputError("certificate: expected a mapping")
            _known_keys(cert, ("overrides", "claimed_mu_bound_rhs"), "certificate")
            raw = cert.get("overrides", {}) or {}
            if not isinstance(raw, dict):
                raise InputError("certificate.overrides: expected a mapping")
            _known_keys(raw, CONSTANT_FIELDS, "certificate.overrides")
            overrides = {k: _number(v, f"certificate.overrides.{k}") for k, v in raw.items()}
            if "claimed_mu_bound_rhs" in cert:
                claimed = _number(cert["claimed_mu_bound_rhs"], "certificate.claimed_mu_bound_rhs")

        config = RunConfig(plant=plant, cost=cost, schedule=schedule, x0=x0, u0=u0,
                           t_end=t_end, beta=beta, box=box, dt=dt, max_records=max_records)
        return cls(config=config, alpha=alpha, overrides=overrides, claimed_mu_bound_rhs=claimed)

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        return cls.from_dict(_Reader(text).document())

    @classmethod
    def load(cls, path: str) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read scenario file {path!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read scenario file {path!r}: not UTF-8 text "
                             f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from exc
        return cls.loads(text)
