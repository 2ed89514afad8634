"""Signed letters, free reduction, and admissible words.

An admissible word alternates state letters and reduced tape words,
``q_1 u_1 q_2 ... u_s q_{s+1}``.  State letters carry the index of the
hardware part they belong to; tape letters are bare names.  Signs are
+1/-1; the token ``x^-1`` names the inverse of ``x``, and every module
reads that syntax with ``parse_signed`` and writes it with ``signed``.
Equality of words is syntactic on the reduced, trimmed form.

The constructor checks every word it builds: each non-empty tape is
reduced, and no empty tape sits between a state letter and a letter of
the same part with the opposite sign.  A word hashes once, when it is
built, and the hash is never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, TypeVar


class MalformedWord(Exception):
    """Raised when a word violates the admissibility conditions."""


def parse_signed(token: str) -> tuple[str, int]:
    """Read a signed token: ``"x"`` is (x, 1) and ``"x^-1"`` is (x, -1)."""
    if token.endswith("^-1"):
        return token[:-3], -1
    return token, 1


def signed(name: str, sign: int) -> str:
    """Write a signed token, the inverse of :func:`parse_signed`."""
    return name + "^-1" if sign < 0 else name


class QLetter(NamedTuple):
    part: int
    name: str
    sign: int

    def inv(self) -> "QLetter":
        return QLetter(self.part, self.name, -self.sign)

    def __str__(self) -> str:
        return signed(self.name, self.sign)


class YLetter(NamedTuple):
    name: str
    sign: int

    def inv(self) -> "YLetter":
        return YLetter(self.name, -self.sign)

    def __str__(self) -> str:
        return signed(self.name, self.sign)


Word = tuple[YLetter, ...]


def y_word(*items: str | YLetter) -> Word:
    """Build a tape word from tokens like ``"a"`` / ``"a^-1"``."""
    return tuple(it if isinstance(it, YLetter) else YLetter(*parse_signed(it)) for it in items)


def invert_word(w: Word) -> Word:
    return tuple(x.inv() for x in reversed(w))


SignedPair = TypeVar("SignedPair", bound=tuple)


def reduce_word(w: Iterable[SignedPair]) -> tuple[SignedPair, ...]:
    """Freely reduce: cancel adjacent x x^-1 pairs until none remain.

    Works on any word of (letter, sign) pairs: tape words and generator
    words alike.  The stack pass is linear and yields the unique reduced
    form.
    """
    stack: list[SignedPair] = []
    for x in w:
        if stack and stack[-1][0] == x[0] and stack[-1][1] == -x[1]:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _meet(x: Word, y: Word) -> Word:
    """``x·y`` freely reduced, for reduced ``x`` and ``y``: they cancel only
    where they meet, so this is ``x[:n-i] + y[i:]``."""
    n, i = len(x), 0
    m = min(n, len(y))
    while i < m and x[n - 1 - i][0] == y[i][0] and x[n - 1 - i][1] == -y[i][1]:
        i += 1
    return x[: n - i] + y[i:]


def junction_join(left: Word, u: Word, right: Word) -> Word:
    """The free reduction of ``left·u·right`` for three reduced words,
    cancelling at the two junctions only; ``u`` itself when both inserts
    are empty."""
    if left:
        u = _meet(left, u)
    if right:
        u = _meet(u, right)
    return u


def is_reduced(w: Word) -> bool:
    for (a, s), (b, t) in zip(w, w[1:]):
        if a == b and s == -t:
            return False
    return True


@lru_cache(maxsize=4096)
def _pairs_at(q: tuple[QLetter, ...]) -> tuple[int, tuple[int, ...]]:
    """``hash(q)``, from which a word's hash is built, and the indexes
    ``i`` where ``q[i] q[i+1]`` are letters of one part with opposite
    signs: the places where an empty tape would leave an unreduced pair.
    Words share their ``q`` tuples (a move builds every word it makes
    from one), so this is worked out once per distinct tuple."""
    return hash(q), tuple(
        i for i, (a, b) in enumerate(zip(q, q[1:])) if a.part == b.part and a.sign == -b.sign
    )


@dataclass(frozen=True)
class AdmissibleWord:
    """Alternating word ``q_1 u_1 q_2 ... u_s q_{s+1}``.

    ``q`` has length s+1 >= 1 and ``u`` has length s.  Validation against
    a concrete hardware lives in :mod:`smachine.machine`; this container
    only enforces the shape and local reducedness.

    The hash is computed once, by the constructor, into a slot that is
    not a field: ``__init__``, equality and ``repr`` never see it, and a
    pickle carries ``q`` and ``u`` only and is rebuilt by the
    constructor, since the hash of the same word differs between
    interpreters with different hash seeds.
    """

    __slots__ = ("q", "u", "_hash")

    q: tuple[QLetter, ...]
    u: tuple[Word, ...]

    def __post_init__(self) -> None:
        q, u = self.q, self.u
        if not q:
            raise MalformedWord("word must contain at least one state letter")
        if len(u) != len(q) - 1:
            raise MalformedWord(
                f"{len(q)} state letters need {len(q) - 1} tape words,"
                f" got {len(u)}"
            )
        for w in filter(None, u):
            if len(w) > 1 and not is_reduced(w):
                raise MalformedWord(f"tape word {format_word(w)} is not reduced")
        hq, pairs = _pairs_at(q)
        for i in pairs:
            if not u[i]:
                raise MalformedWord(f"unreduced pair {q[i]}{q[i + 1]}")
        object.__setattr__(self, "_hash", hash((hq, u)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return AdmissibleWord, (self.q, self.u)

    @property
    def base(self) -> tuple[tuple[int, int], ...]:
        """Sequence of (part, sign); projection of the word on part symbols."""
        return tuple((x.part, x.sign) for x in self.q)

    def length(self) -> int:
        return len(self.q) + sum(len(w) for w in self.u)

    def y_length(self) -> int:
        return sum(len(w) for w in self.u)

    def inv(self) -> "AdmissibleWord":
        return AdmissibleWord(
            tuple(x.inv() for x in reversed(self.q)),
            tuple(invert_word(w) for w in reversed(self.u)),
        )

    def letters(self) -> Iterator[QLetter | YLetter]:
        for i, x in enumerate(self.q):
            yield x
            if i < len(self.u):
                yield from self.u[i]

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters())


def format_word(w: Word) -> str:
    return " ".join(str(x) for x in w) if w else "1"
