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
(``t0=, t1=, values=[...]``).  Every driving parameter must be finite and
``dim`` at least 1.
"""

import ast

import numpy as np

from .driving import (Channel, ConstDriving, ExpDriving, PolyDriving,
                      SampledDriving, TimeDependentHamiltonian, TrigDriving)
from .fdmpo import FirstDegreeMPO


class ModelFileError(ValueError):
    pass


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
    kind = tokens[0]
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ModelFileError(f"driving parameter {tok!r} must be key=value")
        key, val = tok.split("=", 1)
        kwargs[key] = ast.literal_eval(val)
    if kind == "const":
        return ConstDriving(value=kwargs.get("value", 1.0))
    if kind in ("sin", "cos"):
        return TrigDriving(kind=kind, **kwargs)
    if kind == "exp":
        return ExpDriving(**kwargs)
    if kind == "poly":
        return PolyDriving(coeffs=tuple(kwargs.get("coeffs", (0.0, 1.0))))
    if kind == "samples":
        return SampledDriving(t_start=kwargs.get("t0", 0.0),
                              t_end=kwargs.get("t1", 1.0),
                              values=tuple(kwargs.get("values", (0.0, 0.0))))
    raise ModelFileError(f"unknown driving kind {kind!r}")


def _parse_matrix(text, d):
    mat = np.asarray(ast.literal_eval(text), dtype=complex)
    if mat.shape != (d, d):
        raise ModelFileError(f"operator must be {d}x{d}, got {mat.shape}")
    return mat


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
        op = FirstDegreeMPO(d, chi, L=dict(enumerate(L)), A=A,
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
                d = int(rest)
                if d < 1:
                    raise ModelFileError(f"dim must be at least 1, got {d}")
            elif head == "channel":
                close_channel()
                if d is None:
                    raise ModelFileError("dim must come before channels")
                current = [rest, None, [], {}, [], None]
            elif current is None:
                raise ModelFileError(f"{head!r} outside a channel block")
            elif head == "driving":
                current[1] = _parse_driving(rest)
            elif head == "L":
                current[2].append(_parse_matrix(rest, d))
            elif head == "A":
                i, j, mat = rest.split(maxsplit=2)
                current[3][(int(i), int(j))] = _parse_matrix(mat, d)
            elif head == "R":
                current[4].append(_parse_matrix(rest, d))
            elif head == "D":
                current[5] = _parse_matrix(rest, d)
            elif head == "end":
                close_channel()
            else:
                raise ModelFileError(f"unknown directive {head!r}")
        except ModelFileError:
            raise
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
    if isinstance(drv, ConstDriving):
        return f"driving const value={drv.value!r}"
    if isinstance(drv, TrigDriving):
        return (f"driving {drv.kind} omega={drv.omega!r} phase={drv.phase!r} "
                f"amplitude={drv.amplitude!r} offset={drv.offset!r}")
    if isinstance(drv, ExpDriving):
        return f"driving exp rate={drv.rate!r} amplitude={drv.amplitude!r}"
    if isinstance(drv, PolyDriving):
        return f"driving poly coeffs={list(drv.coeffs)!r}"
    if isinstance(drv, SampledDriving):
        return (f"driving samples t0={drv.t_start!r} t1={drv.t_end!r} "
                f"values={list(drv.values)!r}")
    raise ModelFileError(f"cannot serialize driving {drv!r}")


def dumps(hamiltonian):
    """Serialize a Hamiltonian back into model-file text."""
    lines = [f"dim {hamiltonian.d}"]
    for c in hamiltonian.channels:
        lines.append(f"channel {c.name}")
        lines.append(_format_driving(c.driving))
        op = c.operator
        for k in range(op.chi):
            lines.append(f"L {_format_matrix(op.L[k])}")
        for (i, j), mat in sorted(op.A.items()):
            lines.append(f"A {i} {j} {_format_matrix(mat)}")
        for k in range(op.chi):
            lines.append(f"R {_format_matrix(op.R[k])}")
        if op.D is not None:
            lines.append(f"D {_format_matrix(op.D)}")
        lines.append("end")
    return "\n".join(lines) + "\n"
