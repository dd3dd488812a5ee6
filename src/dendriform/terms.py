"""Words of the free L-algebra on a finite ordered alphabet.

An L-algebra carries two bilinear products, written ``<`` and ``>`` in text
form, subject to the entanglement identity (x > y) < z = x > (y < z).  The
free L-algebra on x1..xn has a basis of *normal* words: binary trees in
which the left factor of a ``<`` node is never itself ``>``-topped.  This
module provides the word type, the basis products, the monomial order used
by the rewrite engine, the hole leaf and the splice into a one-hole word,
and plain-text parsing/formatting.
The normal words of degree m over n generators are counted in closed form,
n^m C(3m-2, m-1)/m, from the functional equation of their generating function.

Every word also carries its facts, each set in O(1) when the word is
interned from its children's: whether it is normal, its hole count, its
largest generator index, and the ``dd`` flag, whether it lies on the
dendriform basis, that is (for a normal word) whether no subterm matches a
rewrite rule's left side.  The rules themselves live in the rewrite module,
which reads the flag.  No function here recurses on the depth of a word.

Interning is weak: the intern table refers to each composite word through a
weak reference, so a word is freed, and leaves the table, as soon as nothing
else holds it.  Identity still decides equality among live words: while a
word lives, the table returns it for its structure, and a word built again
after it died is a new object that every later build returns.

The expression grammar is::

    word      := generator | "(" word op word ")"
    op        := "<" | ">"
    generator := "x" [0-9]+

with insignificant whitespace and every application fully parenthesized.
Formatting is the exact inverse of parsing (single spaces around operators).
"""

from __future__ import annotations

import math
import re
import weakref
from enum import IntEnum


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

    Words are interned: structurally identical live words are always the
    same object, so equality and hashing are identity based and O(1).  Use
    the module factories ``generator``, ``hole`` and ``node`` (or the
    products ``l_succ``/``l_prec``) to build words; never call the class
    directly.

    The comparison operators implement the monomial order on normal words:
    degree decides first, composite words of equal degree compare by top
    operation (PREC above SUCC) and then by left and right subterm, and
    generators compare by index.

    Four facts are set in O(1) when a word is interned, from its children's.
    ``normal``: no ``<`` node has a ``>``-topped left factor.  ``holes``: the
    number of hole leaves.  ``index``: a leaf's own index (0 for the hole),
    and a composite word's largest leaf index.  ``dd``, the dendriform-basis
    flag: a leaf is on the basis; x < w and x > w with x a leaf are when w
    is; any other word is only when it is (x > w1) > w2 with x a leaf and
    w1, w2 on the basis.  No word with the flag set carries a redex, and a
    normal word without it carries one.

    ``nf`` is None until the rewrite module stores the word's normal form
    there, which then lives exactly as long as the word.
    """

    __slots__ = ("op", "left", "right", "index", "degree", "dd", "normal", "holes", "nf", "__weakref__")

    def __init__(self, op, left, right, index, degree, dd, normal, holes):
        self.op = op
        self.left = left
        self.right = right
        self.index = index
        self.degree = degree
        self.dd = dd
        self.normal = normal
        self.holes = holes
        self.nf = None

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
        # The word's postorder as flat codes, a leaf its index and a node
        # ~op, so pickling a word of any depth recurses on none of it.  A
        # stack that takes the right child first walks the reversed postorder.
        codes = []
        stack = [self]
        while stack:
            w = stack.pop()
            if w.op is None:
                codes.append(w.index)
            else:
                codes.append(~w.op)
                stack += (w.left, w.right)
        codes.reverse()
        return (_from_postorder, (codes,))


class _Interned(weakref.ref):
    """The intern table's weak reference to a word; it carries its own key."""

    __slots__ = ("key",)


def _forget(ref: _Interned) -> None:
    # Called as the word dies.  A word built again under the same key may
    # already have replaced the entry; only this reference's entry goes.
    if _NODE_CACHE.get(ref.key) is ref:
        del _NODE_CACHE[ref.key]


# Leaves are few and live for the whole process; composite words are held
# weakly, through (op, left, right) -> _Interned.
_LEAF_CACHE: dict[int, LWord] = {}
_NODE_CACHE: dict[tuple[Op, LWord, LWord], _Interned] = {}


def _leaf(index: int) -> LWord:
    w = _LEAF_CACHE.get(index)
    if w is None:
        w = LWord(None, None, None, index, 1, True, True, int(index == _HOLE_INDEX))
        _LEAF_CACHE[index] = w
    return w


def _from_postorder(codes) -> LWord:
    """The word whose postorder codes ``LWord.__reduce__`` gave, rebuilt in one loop."""
    done = []
    for code in codes:
        if code >= 0:
            done.append(_leaf(code))
        else:
            right = done.pop()
            done[-1] = node(Op(~code), done[-1], right)
    return done[0]


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
    ref = _NODE_CACHE.get(key)
    w = None if ref is None else ref()
    if w is None:
        # With left = x > w1 and x a leaf, left.dd is w1's flag.
        dd = right.dd and (
            left.op is None or (op is SUCC and left.op is SUCC and left.left.op is None and left.dd)
        )
        normal = left.normal and right.normal and not (op is PREC and left.op is SUCC)
        index = left.index if left.index > right.index else right.index
        w = LWord(op, left, right, index, left.degree + right.degree, dd, normal, left.holes + right.holes)
        ref = _Interned(w, _forget)
        ref.key = key
        _NODE_CACHE[key] = ref
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
    """True when the word lies in the normal-word basis (hole leaves count as generators)."""
    return u.normal


def l_succ(u: LWord, v: LWord) -> LWord:
    """Product u > v of normal words; always lands in the basis."""
    return node(SUCC, u, v)


def l_prec(u: LWord, v: LWord) -> LWord:
    """Product u < v of normal words, re-expressed in the basis.

    A SUCC-topped left factor entangles, (u1 > u2) < v = u1 > (u2 < v), all
    the way down the SUCC right spine of u, so the result is again a normal
    word of degree |u| + |v|.
    """
    if u.op is not SUCC:
        return node(PREC, u, v)
    spine = []
    while u.op is SUCC:
        spine.append(u.left)
        u = u.right
    w = node(PREC, u, v)
    for left in reversed(spine):
        w = node(SUCC, left, w)
    return w


def normalize(u: LWord) -> LWord:
    """Re-express an arbitrary word in the normal-word basis, bottom up.

    Children are normalized first, in a postorder loop, because the basis
    products require normal arguments; a normal subword is kept as it is.
    Idempotent and degree preserving.
    """
    if u.normal:
        return u
    done = []  # normalized subwords whose parent is still pending
    stack = [(u, False)]
    while stack:
        w, children_done = stack.pop()
        if w.normal:
            done.append(w)
        elif children_done:
            right = done.pop()
            left = done.pop()
            done.append(l_succ(left, right) if w.op is SUCC else l_prec(left, right))
        else:
            stack += ((w, True), (w.right, False), (w.left, False))
    return done[0]


def count_holes(u: LWord) -> int:
    """Number of hole leaves in the word."""
    return u.holes


def max_generator_index(u: LWord) -> int:
    """Largest generator index occurring in the word (0 for a bare hole)."""
    return u.index


def substitute(c: LWord, u: LWord) -> LWord:
    """Splice u into the hole of the one-hole word c.  The result need not be normal."""
    if c.holes != 1:
        raise ValueError("a context must contain exactly one hole")
    path = []
    while c.op is not None:
        path.append(c)
        c = c.left if c.left.holes else c.right
    for above in reversed(path):
        u = node(above.op, u, above.right) if above.left.holes else node(above.op, above.left, u)
    return u


def count_normal_lwords(m: int, n: int) -> int:
    """Number of normal words of degree m over n generators, in closed form.

    Split by top operation, their generating function W = nt + W^2 + (W - W^2)W
    satisfies W(1 - W)^2 = nt, and Lagrange inversion gives n^m C(3m-2, m-1)/m.
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    return n**m * (math.comb(3 * m - 2, m - 1) // m)


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
