"""Plain-text model files describing time-dependent lattice Hamiltonians.

Format (``#`` starts a comment, blank lines ignored)::

    dim 2
    channel zz
    driving sin omega=6.283185307179586 phase=0.0
    L [[1, 0], [0, -1]]
    R [[1, 0], [0, -1]]
    end
    channel x
    driving cos omega=6.283185307179586
    D [[0, 1], [1, 0]]
    end

Inside a channel block, repeated ``L``/``R`` lines fill consecutive middle
slots, ``A i j [[...]]`` sets a middle-level coupling, and ``D`` the on-site
term.  Matrix entries may be complex (``1j``).  Channel order in the file is
the channel order of the Hamiltonian.  Driving kinds: ``const value=``,
``sin``/``cos`` (``omega=, phase=, amplitude=, offset=``), ``exp``
(``rate=, amplitude=``), ``poly`` (``coeffs=[...]``), ``samples``
(``t0=, t1=, values=[...]``); `DRIVING_KINDS` declares them, and a key
a kind does not take, a repeated key or a missing kind is an error.
Every driving parameter must be finite and ``dim`` at least 1.  A
second ``dim`` line, or a second ``driving``, ``D`` or ``A i j`` line
(same ``i j``) in one channel block, is an error too, and so is a
``channel`` line without a name or with the name of an earlier channel.
Each error names its line; an ``A i j`` slot outside the channel's ``L``
count names the ``A`` line.
"""

import ast

import numpy as np

from .driving import (Channel, ConstDriving, ExpDriving, PolyDriving,
                      SampledDriving, TimeDependentHamiltonian, TrigDriving)
from .fdmpo import FirstDegreeMPO


class ModelFileError(ValueError):
    pass


_TRIG = {key: key for key in ("omega", "phase", "amplitude", "offset")}
# Each driving kind a model file names: its class, the constructor fields
# the kind fixes, and each file key mapped to its constructor field, in
# the order `dumps` writes them.  A driving's `name` is its kind.
DRIVING_KINDS = {
    "const": (ConstDriving, {}, {"value": "value"}),
    "sin": (TrigDriving, {"kind": "sin"}, _TRIG),
    "cos": (TrigDriving, {"kind": "cos"}, _TRIG),
    "exp": (ExpDriving, {}, {"rate": "rate", "amplitude": "amplitude"}),
    "poly": (PolyDriving, {}, {"coeffs": "coeffs"}),
    "samples": (SampledDriving, {},
                {"t0": "t_start", "t1": "t_end", "values": "values"}),
}


def _driving_tokens(text):
    """Split on whitespace, but never inside brackets or parentheses."""
    tokens = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def _parse_driving(text):
    tokens = _driving_tokens(text)
    if not tokens:
        raise ModelFileError("driving needs a kind, one of "
                             + ", ".join(DRIVING_KINDS))
    kind = tokens[0]
    if kind not in DRIVING_KINDS:
        raise ModelFileError(f"unknown driving kind {kind!r}")
    cls, fixed, fields = DRIVING_KINDS[kind]
    kwargs = dict(fixed)
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ModelFileError(f"driving parameter {tok!r} must be key=value")
        key, val = tok.split("=", 1)
        if key not in fields:
            raise ModelFileError(f"driving {kind} has no parameter {key!r}; "
                                 f"it takes {', '.join(fields)}")
        if fields[key] in kwargs:
            raise ModelFileError(f"driving {kind} repeats parameter {key!r}")
        kwargs[fields[key]] = ast.literal_eval(val)
    return cls(**kwargs)


def _parse_matrix(text, d):
    mat = np.asarray(ast.literal_eval(text), dtype=complex)
    if mat.shape != (d, d):
        raise ModelFileError(f"operator must be {d}x{d}, got {mat.shape}")
    return mat


def _once(current, slot, directive):
    """Raise `ModelFileError` when the channel block `current` has set
    `slot` already, by an earlier `directive` line."""
    if current[slot] is not None:
        raise ModelFileError(f"channel {current[0]}: repeated directive "
                             f"{directive!r}")


def loads(text):
    """Parse model-file text into a :class:`TimeDependentHamiltonian`."""
    d = None
    channels = []
    current = None

    def close_channel():
        nonlocal current
        if current is None:
            return
        name, driving, L, A, R, D = current
        chi = len(L)
        if len(R) != chi:
            raise ModelFileError(f"channel {name}: L and R slot counts differ")
        for (i, j), (_, at) in A.items():
            if not (0 <= i < chi and 0 <= j < chi):
                raise ModelFileError(f"line {at}: A slot {(i, j)} outside "
                                     f"chi={chi}")
        op = FirstDegreeMPO(d, chi, L=dict(enumerate(L)),
                            A={key: mat for key, (mat, _) in A.items()},
                            R=dict(enumerate(R)), D=D)
        channels.append(Channel(name, op, driving or ConstDriving(1.0)))
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "dim":
                dim = int(rest)
                if dim < 1:
                    raise ModelFileError(f"dim must be at least 1, got {dim}")
                if d is not None:
                    raise ModelFileError("repeated directive 'dim'")
                d = dim
            elif head == "channel":
                close_channel()
                if d is None:
                    raise ModelFileError("dim must come before channels")
                if not rest:
                    raise ModelFileError("channel needs a name")
                if any(c.name == rest for c in channels):
                    raise ModelFileError(f"channel name {rest!r} is listed "
                                         f"twice")
                current = [rest, None, [], {}, [], None]
            elif current is None:
                raise ModelFileError(f"{head!r} outside a channel block")
            elif head == "driving":
                _once(current, 1, "driving")
                current[1] = _parse_driving(rest)
            elif head == "L":
                current[2].append(_parse_matrix(rest, d))
            elif head == "A":
                i, j, mat = rest.split(maxsplit=2)
                key = (int(i), int(j))
                if key in current[3]:
                    raise ModelFileError(f"channel {current[0]}: repeated "
                                         f"directive 'A {key[0]} {key[1]}'")
                current[3][key] = (_parse_matrix(mat, d), lineno)
            elif head == "R":
                current[4].append(_parse_matrix(rest, d))
            elif head == "D":
                _once(current, 5, "D")
                current[5] = _parse_matrix(rest, d)
            elif head == "end":
                close_channel()
            else:
                raise ModelFileError(f"unknown directive {head!r}")
        except ModelFileError as exc:
            if str(exc).startswith("line "):
                raise
            raise ModelFileError(f"line {lineno}: {exc}") from exc
        except Exception as exc:
            raise ModelFileError(f"line {lineno}: {exc}") from exc
    close_channel()
    if not channels:
        raise ModelFileError("no channels defined")
    return TimeDependentHamiltonian(channels)


def load(path):
    with open(path) as fh:
        return loads(fh.read())


def _format_matrix(mat):
    rows = []
    for row in np.asarray(mat):
        cells = []
        for v in row:
            v = complex(v)
            cells.append(repr(v.real) if v.imag == 0 else repr(v))
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def _format_driving(drv):
    cls, _, fields = DRIVING_KINDS.get(drv.name, (None, None, None))
    if cls is None or not isinstance(drv, cls):
        raise ModelFileError(f"cannot serialize driving {drv!r}")
    words = ["driving", drv.name]
    for key, field in fields.items():
        value = getattr(drv, field)
        if isinstance(value, tuple):
            value = list(value)
        words.append(f"{key}={value!r}")
    return " ".join(words)


def dumps(hamiltonian):
    """Serialize a Hamiltonian back into model-file text.

    ``L`` and ``R`` lines fill consecutive slots, so a slot a channel
    leaves empty is written as the zero matrix.
    """
    lines = [f"dim {hamiltonian.d}"]
    zero = np.zeros((hamiltonian.d, hamiltonian.d))
    for c in hamiltonian.channels:
        lines.append(f"channel {c.name}")
        lines.append(_format_driving(c.driving))
        op = c.operator
        for k in range(op.chi):
            lines.append(f"L {_format_matrix(op.L.get(k, zero))}")
        for (i, j), mat in sorted(op.A.items()):
            lines.append(f"A {i} {j} {_format_matrix(mat)}")
        for k in range(op.chi):
            lines.append(f"R {_format_matrix(op.R.get(k, zero))}")
        if op.D is not None:
            lines.append(f"D {_format_matrix(op.D)}")
        lines.append("end")
    return "\n".join(lines) + "\n"
