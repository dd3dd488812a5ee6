"""Words of the free L-algebra on a finite ordered alphabet.

An L-algebra carries two bilinear products, written ``<`` and ``>`` in text
form, subject to the entanglement identity (x > y) < z = x > (y < z).  The
free L-algebra on x1..xn has a basis of *normal* words: binary trees in
which the left factor of a ``<`` node is never itself ``>``-topped.  This
module provides the word type, the basis products, the monomial order used
by the rewrite engine, hole contexts, and plain-text parsing/formatting.

Every word also carries a ``dd`` flag, set in O(1) when the word is interned
from its children's flags: whether it lies on the dendriform basis, that is
(for a normal word) whether no subterm matches a rewrite rule's left side.
The rules themselves live in the rewrite module, which reads the flag.

The expression grammar is::

    word      := generator | "(" word op word ")"
    op        := "<" | ">"
    generator := "x" [0-9]+

with insignificant whitespace and every application fully parenthesized.
Formatting is the exact inverse of parsing (single spaces around operators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache


class Op(IntEnum):
    """The two binary operations; PREC ranks above SUCC in the monomial order."""

    SUCC = 1
    PREC = 2


SUCC = Op.SUCC
PREC = Op.PREC

_HOLE_INDEX = 0


class ParseError(ValueError):
    """Malformed expression text; carries the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class LWord:
    """An immutable binary tree over the alphabet; leaves are generators.

    Words are interned: structurally identical words are always the same
    object, so equality and hashing are identity based and O(1).  Use the
    module factories ``generator``, ``hole`` and ``node`` (or the products
    ``l_succ``/``l_prec``) to build words; never call the class directly.

    The comparison operators implement the monomial order on normal words:
    degree decides first, composite words of equal degree compare by top
    operation (PREC above SUCC) and then by left and right subterm, and
    generators compare by index.

    ``dd`` is the dendriform-basis flag: a leaf is on the basis; x < w and
    x > w with x a leaf are when w is; any other word is only when it is
    (x > w1) > w2 with x a leaf and w1, w2 on the basis.  No word with the
    flag set carries a redex, and a normal word without it carries one.
    """

    __slots__ = ("op", "left", "right", "index", "degree", "dd")

    def __init__(self, op, left, right, index, degree, dd):
        self.op = op
        self.left = left
        self.right = right
        self.index = index
        self.degree = degree
        self.dd = dd

    def __lt__(self, other: "LWord") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "LWord") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "LWord") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "LWord") -> bool:
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return format_lword(self)

    def __repr__(self) -> str:
        return f"LWord({format_lword(self)!r})"

    # Interning makes copies pointless; pickling goes back through the
    # factories so identities survive a round trip.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        if self.op is None:
            return (_leaf, (self.index,))
        return (node, (self.op, self.left, self.right))


_LEAF_CACHE: dict[int, LWord] = {}
_NODE_CACHE: dict[tuple[Op, LWord, LWord], LWord] = {}


def _leaf(index: int) -> LWord:
    w = _LEAF_CACHE.get(index)
    if w is None:
        w = LWord(None, None, None, index, 1, True)
        _LEAF_CACHE[index] = w
    return w


def generator(index: int) -> LWord:
    """The degree-1 word x<index>; indexes are 1-based."""
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"generator index must be a positive integer, got {index!r}")
    return _leaf(index)


def hole() -> LWord:
    """The distinguished hole leaf used by contexts, printed ``*``."""
    return _leaf(_HOLE_INDEX)


def node(op: Op, left: LWord, right: LWord) -> LWord:
    """Raw tree constructor; does not re-express anything in the basis."""
    key = (op, left, right)
    w = _NODE_CACHE.get(key)
    if w is None:
        # With left = x > w1 and x a leaf, left.dd is w1's flag.
        dd = right.dd and (
            left.op is None or (op is SUCC and left.op is SUCC and left.left.op is None and left.dd)
        )
        w = LWord(op, left, right, None, left.degree + right.degree, dd)
        _NODE_CACHE[key] = w
    return w


def compare(u: LWord, v: LWord) -> int:
    """Monomial order on normal words: -1, 0 or 1.

    Weight comparison is lexicographic in (degree, top operation, left
    subterm, right subterm) with PREC above SUCC; two generators compare by
    index.  A generator never ties a composite word on degree, so the two
    weight shapes never collide.  Words are interned, so two subterms tie
    exactly when they are the same object, and the comparison walks down
    one path: into the left subterms unless they are the same word, else
    into the right ones.
    """
    while u is not v:
        if u.degree != v.degree:
            return -1 if u.degree < v.degree else 1
        if u.op is None:
            return -1 if u.index < v.index else 1
        if u.op is not v.op:
            return -1 if u.op < v.op else 1
        if u.left is not v.left:
            u, v = u.left, v.left
        else:
            u, v = u.right, v.right
    return 0


def is_normal(u: LWord) -> bool:
    """True when the word lies in the normal-word basis.

    Leaves are normal, u > v is normal when both factors are, and u < v
    additionally requires the left factor not to be SUCC-topped.  Hole
    leaves are treated like generators.  A word with the ``dd`` flag is
    normal (by induction on the flag's definition), so the walk skips such
    subwords; it descends each left spine in a loop and stacks the right
    factors, so depth costs no recursion.
    """
    stack = [u]
    while stack:
        u = stack.pop()
        while not u.dd:
            if u.op is PREC and u.left.op is SUCC:
                return False
            stack.append(u.right)
            u = u.left
    return True


def l_succ(u: LWord, v: LWord) -> LWord:
    """Product u > v of normal words; always lands in the basis."""
    return node(SUCC, u, v)


def l_prec(u: LWord, v: LWord) -> LWord:
    """Product u < v of normal words, re-expressed in the basis.

    A SUCC-topped left factor entangles: (u1 > u2) < v = u1 > (u2 < v),
    recursively, so the result is again a normal word of degree |u| + |v|.
    """
    if u.op is SUCC:
        return node(SUCC, u.left, l_prec(u.right, v))
    return node(PREC, u, v)


def normalize(u: LWord) -> LWord:
    """Re-express an arbitrary word in the normal-word basis, bottom up.

    Children are normalized first because the basis products require normal
    arguments.  Idempotent and degree preserving.
    """
    if u.op is None:
        return u
    left = normalize(u.left)
    right = normalize(u.right)
    return l_succ(left, right) if u.op is SUCC else l_prec(left, right)


def count_holes(u: LWord) -> int:
    """Number of hole leaves in the word; walked without recursion."""
    holes = 0
    stack = [u]
    while stack:
        u = stack.pop()
        while u.op is not None:
            stack.append(u.right)
            u = u.left
        if u.index == _HOLE_INDEX:
            holes += 1
    return holes


def max_generator_index(u: LWord) -> int:
    """Largest generator index occurring in the word (0 for a bare hole)."""
    best = 0
    stack = [u]
    while stack:
        u = stack.pop()
        while u.op is not None:
            stack.append(u.right)
            u = u.left
        if u.index > best:
            best = u.index
    return best


@dataclass(frozen=True)
class Context:
    """A word over the alphabet plus exactly one hole leaf."""

    word: LWord

    def __post_init__(self):
        if count_holes(self.word) != 1:
            raise ValueError("a context must contain exactly one hole")


def substitute(c: Context, u: LWord) -> LWord:
    """Splice u into the hole of c.  The result need not be normal."""
    return _splice(c.word, u)


def _splice(w: LWord, u: LWord) -> LWord:
    if w.op is None:
        return u if w.index == _HOLE_INDEX else w
    if count_holes(w.left):
        return node(w.op, _splice(w.left, u), w.right)
    return node(w.op, w.left, _splice(w.right, u))


@lru_cache(maxsize=None)
def _count_pair(m: int, n: int) -> tuple[int, int]:
    # (all normal words, normal words not SUCC-topped) of degree m.
    if m == 1:
        return (n, n)
    succ_topped = 0
    prec_topped = 0
    for i in range(1, m):
        ai, bi = _count_pair(i, n)
        aj = _count_pair(m - i, n)[0]
        succ_topped += ai * aj
        prec_topped += bi * aj
    b = prec_topped
    return (succ_topped + b, b)


def count_normal_lwords(m: int, n: int) -> int:
    """Number of normal words of degree m over n generators, by recursion.

    Splits on the top operation: SUCC-topped words are arbitrary pairs,
    PREC-topped words need a non-SUCC-topped left factor.
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    return _count_pair(m, n)[0]


_SYMBOL = {PREC: "<", SUCC: ">"}
_OP = {symbol: op for op, symbol in _SYMBOL.items()}
# A character that starts no token: an x without digits, a digit that
# follows neither an x nor a digit, or a character outside the grammar.
_NO_TOKEN = re.compile(r"x(?![0-9])|(?<![0-9x])[0-9]|[^\s()<>x0-9]")
_DIGITS = re.compile(r"[0-9]+")


def parse_lword(text: str, n: int | None = None) -> LWord:
    """Parse expression text into a word.

    When ``n`` is given, generator indexes outside [1, n] are rejected.
    Raises ParseError with the character offset on any malformed input; a
    character that starts no token is reported before any syntax error.
    """
    stray = _NO_TOKEN.search(text)
    if stray:
        if stray.group() == "x":
            raise ParseError("expected digits after 'x'", stray.start())
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    frames = []  # per open "(": None, then (left, op) once the operator is read
    word = None  # the last complete word not yet placed in a frame
    digits_end = 0
    for offset, ch in enumerate(text):
        if offset < digits_end or ch.isspace():
            continue
        if word is None:
            if ch == "(":
                frames.append(None)
                continue
            if ch != "x":
                raise ParseError("expected a generator or '('", offset)
            digits_end = _DIGITS.match(text, offset + 1).end()
            try:
                index = int(text[offset + 1 : digits_end])
            except ValueError:  # more digits than int() converts
                raise ParseError("generator index has too many digits", offset) from None
            if index < 1:
                raise ParseError("generator index must be at least 1", offset)
            if n is not None and index > n:
                raise ParseError(f"generator index {index} exceeds alphabet size {n}", offset)
            word = _leaf(index)
        elif not frames:
            raise ParseError("trailing input after expression", offset)
        elif frames[-1] is None:
            if ch not in _OP:
                raise ParseError("expected operator '<' or '>'", offset)
            frames[-1] = (word, _OP[ch])
            word = None
        elif ch == ")":
            left, op = frames.pop()
            word = node(op, left, word)
        else:
            raise ParseError("expected ')'", offset)
    if word is None:
        raise ParseError("unexpected end of input", len(text))
    if frames:
        raise ParseError("expected operator '<' or '>'" if frames[-1] is None else "expected ')'", len(text))
    return word


def format_lword(u: LWord) -> str:
    """Canonical text form: fully parenthesized, single spaces around ops."""
    pieces = []
    pending = []  # (node, closes) for each node whose right factor is still to print
    closes = 0  # the ")" that end the subword being printed
    while True:
        while u.op is not None:
            pieces.append("(")
            pending.append((u, closes))
            closes = 0
            u = u.left
        pieces.append("*" if u.index == _HOLE_INDEX else f"x{u.index}")
        pieces.append(")" * closes)
        if not pending:
            return "".join(pieces)
        u, closes = pending.pop()
        pieces.append(f" {_SYMBOL[u.op]} ")
        closes += 1
        u = u.right
