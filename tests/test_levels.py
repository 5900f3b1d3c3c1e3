from dysonmpo.levels import (IDENTITY_LEVEL, ONE, LevelLabel, is_one, three,
                             two)
from helpers import completion_rows, interleavings, pad_with_ones, strip_ones


def test_counters_and_strip():
    lbl = LevelLabel((ONE, two("a", 1), three("b"), ONE, three("a")))
    assert sum(map(is_one, lbl)) == 2 and lbl.n2 == 1 and lbl.n3 == 2
    stripped = strip_ones(lbl)
    assert stripped == LevelLabel((two("a", 1), three("b"), three("a")))
    assert not any(map(is_one, stripped))
    assert lbl.sigma() == ("b", "a")
    assert lbl.two_sequence() == (("a", 1),)


def test_labels_hash_and_compare():
    a = LevelLabel((two("a", 0), three("a")))
    b = LevelLabel((two("a", 0), three("a")))
    c = LevelLabel((three("a"), two("a", 0)))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a < c  # 2 symbols sort before 3 symbols
    assert len({a, b, c}) == 2


def test_pad_with_ones():
    lbl = LevelLabel((two("x", 0),))
    padded = pad_with_ones(lbl, 3)
    assert padded == LevelLabel((ONE, ONE, two("x", 0)))
    assert strip_ones(padded) == lbl


def test_identity_level_is_empty():
    assert IDENTITY_LEVEL == LevelLabel(())
    assert IDENTITY_LEVEL.n2 == 0 and IDENTITY_LEVEL.n3 == 0
    assert repr(IDENTITY_LEVEL) == "(1)"


def test_interleavings_count():
    weaves = interleavings(("a", "b"), ("x",))
    assert len(weaves) == 3
    assert ("x", "a", "b") in weaves and ("a", "x", "b") in weaves
    for w in weaves:
        assert [s for s in w if s != "x"] == ["a", "b"]


def test_completion_rows_counts():
    # one completing term, up to two insertions from two channels:
    # sum_j C(1+j, j) * 2^j = 1 + 4 + 12
    rows = completion_rows((("c", 0),), ["u", "v"], 2)
    assert len(rows) == 1 + 4 + 12
    assert rows[0] == (("C", "c", 0),)
    assert len(set(rows)) == len(rows)
