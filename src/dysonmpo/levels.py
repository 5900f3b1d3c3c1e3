"""Virtual-level labels for powers of rewired Hamiltonians.

A level of the k-th power of a Hamiltonian MPO is a tuple of per-factor
finite-state-machine states over the alphabet

    1          term not started          (identity flows)
    2_a[s]     term of channel `a` in progress, middle slot `s`
    3_a        term of channel `a` finished

Factor order encodes time order: the leftmost symbol belongs to the factor
carrying the *latest* time argument.  Labels that agree after removing all
1 symbols describe identical operator histories, so the power
construction keeps one stripped label per class.
"""

from itertools import combinations, product

ONE = ("1",)


def two(channel, slot=0):
    return ("2", channel, slot)


def three(channel):
    return ("3", channel)


def is_one(sym):
    return sym[0] == "1"


def is_two(sym):
    return sym[0] == "2"


def is_three(sym):
    return sym[0] == "3"


class LevelLabel(tuple):
    """Tuple of per-factor symbols with level bookkeeping helpers."""

    __slots__ = ()

    @property
    def n1(self):
        return sum(1 for s in self if is_one(s))

    @property
    def n2(self):
        return sum(1 for s in self if is_two(s))

    @property
    def n3(self):
        return sum(1 for s in self if is_three(s))

    def strip_ones(self):
        """Label with all 1 symbols removed; the column-merge key."""
        return LevelLabel(s for s in self if not is_one(s))

    def sigma(self):
        """Channel subscripts of the 3 symbols, in factor (time) order."""
        return tuple(s[1] for s in self if is_three(s))

    def two_sequence(self):
        """(channel, slot) pairs of the 2 symbols, in factor order."""
        return tuple((s[1], s[2]) for s in self if is_two(s))

    def append(self, sym):
        return LevelLabel(tuple(self) + (sym,))

    def __repr__(self):
        if not self:
            return "(1)"
        parts = []
        for s in self:
            if is_one(s):
                parts.append("1")
            elif is_two(s):
                parts.append(f"2_{s[1]}[{s[2]}]")
            else:
                parts.append(f"3_{s[1]}")
        return "(" + " ".join(parts) + ")"


IDENTITY_LEVEL = LevelLabel(())


def pad_with_ones(label, length):
    """Canonical member of a strip-ones class: 1 symbols in front."""
    return LevelLabel((ONE,) * (length - len(label)) + tuple(label))


def interleavings(fixed, inserted):
    """All weaves of `inserted` into `fixed` keeping both sequence orders."""
    n, m = len(fixed), len(inserted)
    out = []
    for pos in combinations(range(n + m), m):
        seq = []
        fi = ii = 0
        pos = set(pos)
        for p in range(n + m):
            if p in pos:
                seq.append(inserted[ii])
                ii += 1
            else:
                seq.append(fixed[fi])
                fi += 1
        out.append(tuple(seq))
    return out


def completion_rows(two_seq, channels, max_insertions):
    """Row keys of the right-operator basis reachable from a 2 sequence.

    A row is a tuple mixing ``("C", channel, slot)`` items (the in-progress
    terms completing, in their fixed factor order) with ``("I", channel)``
    items (terms started and finished within the right half).  The factor
    positions of the insertions relative to the completions are part of the
    key; their positions relative to any finished symbols of a level are
    not, and are summed over when evaluating coefficients.
    """
    cs = tuple(("C", ch, slot) for ch, slot in two_seq)
    rows = []
    for j in range(max_insertions + 1):
        for chans in product(channels, repeat=j):
            ins = tuple(("I", ch) for ch in chans)
            rows.extend(interleavings(cs, ins))
    return rows
