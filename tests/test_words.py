import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import smachine
from smachine.lr import build_lr
from smachine.words import (
    AdmissibleWord,
    MalformedWord,
    QLetter,
    YLetter,
    format_word,
    invert_word,
    is_reduced,
    reduce_word,
    y_word,
)


def naive_reduce(w):
    # independent oracle: repeatedly delete the first cancelling pair
    letters = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a.name == b.name and a.sign == -b.sign:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def test_reduce_cancellation():
    assert reduce_word(y_word("a", "a^-1", "b")) == y_word("b")


def test_reduce_empty():
    assert reduce_word(()) == ()


def test_reduce_hand_oracle():
    # a·b^-1·b·a -> a·a, by hand
    assert reduce_word(y_word("a", "b^-1", "b", "a")) == y_word("a", "a")


letters = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1])).map(
    lambda t: YLetter(*t)
)


@given(st.lists(letters, max_size=30))
def test_reduce_matches_naive_oracle(ls):
    assert reduce_word(ls) == naive_reduce(ls)


@given(st.lists(letters, max_size=30))
def test_reduce_idempotent_and_shorter(ls):
    r = reduce_word(ls)
    assert is_reduced(r)
    assert reduce_word(r) == r
    assert len(r) <= len(ls)


@given(st.lists(letters, max_size=20))
def test_word_times_inverse_reduces_to_identity(ls):
    r = reduce_word(ls)
    assert reduce_word(r + invert_word(r)) == ()


def test_admissible_shape_checks():
    q = QLetter(0, "q", 1)
    with pytest.raises(MalformedWord):
        AdmissibleWord((), ())
    with pytest.raises(MalformedWord):
        AdmissibleWord((q,), (y_word("a"),))
    with pytest.raises(MalformedWord):
        AdmissibleWord((q, q.inv()), ((),))  # q q^-1 is unreduced
    w = AdmissibleWord((q, q.inv()), (y_word("a"),))
    assert w.base == ((0, 1), (0, -1))
    assert w.length() == 3 and w.y_length() == 1


def test_inversion_round_trip():
    q1, p = QLetter(0, "q1", 1), QLetter(1, "p", 1)
    w = AdmissibleWord((q1, p), (y_word("a", "b^-1"),))
    assert w.inv().inv() == w
    assert str(w.inv()) == "p^-1 b a^-1 q1^-1"


def test_admissible_rejects_an_unreduced_tape():
    """A tape holding a cancelling pair is refused wherever it sits, also
    between letters of different parts and beside empty tapes."""
    q, p, r = QLetter(0, "q", 1), QLetter(1, "p", 1), QLetter(2, "r", 1)
    with pytest.raises(MalformedWord, match=r"^tape word b a a\^-1 is not reduced$"):
        AdmissibleWord((q, p, r), ((), y_word("b", "a", "a^-1")))
    with pytest.raises(MalformedWord, match=r"^tape word a\^-1 a is not reduced$"):
        AdmissibleWord((q, p), (y_word("a^-1", "a"),))


def plain_checks(q, u):
    """The constructor's two checks as plain loops over every tape and
    every adjacent pair of state letters, in the constructor's order."""
    for w in u:
        if any(a.name == b.name and a.sign == -b.sign for a, b in zip(w, w[1:])):
            raise MalformedWord(f"tape word {format_word(w)} is not reduced")
    for a, b, w in zip(q, q[1:], u):
        if not w and a.part == b.part and a.sign == -b.sign:
            raise MalformedWord(f"unreduced pair {a}{b}")


def refusal(build, q, u):
    """The message ``build(q, u)`` raises, or None when it accepts."""
    try:
        build(q, u)
    except MalformedWord as e:
        return str(e)
    return None


state_letters = st.builds(QLetter, st.integers(0, 2), st.sampled_from("xy"), st.sampled_from([1, -1]))


@st.composite
def word_parts(draw):
    """Random ``q`` and ``u`` of matching lengths: some state letters are
    followed by their own inverse, and the tapes are empty, reduced or
    not."""
    q = []
    for x in draw(st.lists(state_letters, min_size=1, max_size=5)):
        q.append(x)
        if draw(st.booleans()):
            q.append(x.inv())
    tapes = st.one_of(st.just(()), st.lists(letters, max_size=4).map(tuple))
    u = draw(st.lists(tapes, min_size=len(q) - 1, max_size=len(q) - 1))
    return tuple(q), tuple(u)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(word_parts())
@example(((QLetter(0, "x", 1), QLetter(0, "x", -1), QLetter(1, "y", 1)), ((), y_word("a", "a^-1"))))
def test_constructor_checks_match_the_plain_loops(parts):
    """Same accept or refuse, same message and so the same precedence:
    an unreduced tape is reported before an unreduced pair."""
    q, u = parts
    assert refusal(AdmissibleWord, q, u) == refusal(plain_checks, q, u)


def test_a_pickled_word_hashes_in_the_loading_interpreter():
    """The hash is never pickled: a word pickled under another hash seed
    loads equal to a fresh word, with the fresh word's hash, and finds
    that word's dict entry."""
    tokens = ["q1", "a", "p1", "q2"]
    code = (
        "import pickle, sys; from smachine.lr import build_lr; "
        f"w = build_lr(['a']).hardware.word({tokens!r}); "
        "sys.stdout.buffer.write(pickle.dumps((hash(w), w)))"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(smachine.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    their_hash, loaded = pickle.loads(out)
    fresh = build_lr(["a"]).hardware.word(tokens)
    assert their_hash != hash(fresh)  # the two interpreters hash differently
    assert loaded == fresh and hash(loaded) == hash(fresh)
    assert {fresh: "entry"}[loaded] == "entry"
