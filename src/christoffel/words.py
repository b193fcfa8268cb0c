"""Finite words over ordered alphabets: balance, conjugation, projection, decimation."""

from __future__ import annotations

from enum import Enum
from itertools import chain
from math import gcd

__all__ = (
    "DecimationSpec", "Direction", "OrderedAlphabet", "Word", "conjugate", "decimate",
    "is_balanced", "is_circularly_balanced", "is_primitive", "projection", "reverse",
)


def _ints(names, *values):
    """Raise TypeError naming the first of `values` whose type is not exactly int, bool included.

    Only a failure pairs `names` with `values`; a pass is one type test per value.
    The hot entry points (SuperimpositionProblem and its from_letter_counts,
    reversal_superimposition_criterion, beatty_disjoint_exists, CoinPair,
    conjugate and modular_inverse) first test `type(a) is type(b) is ... is
    int` in one chained expression and call this only after that test fails:
    a valid call adds no frame, and a bad one still gets the message here.
    """
    for value in values:
        if type(value) is not int:
            name = next(n for n, v in zip(names, values) if v is value)
            raise TypeError(f"{name} must be an int, got {value!r}")


def _single_chars(*letters):
    """Raise ValueError naming the first of `letters` that is not a single printable character.

    The one test on every letter of an alphabet or a spec.
    """
    for c in letters:
        if not (isinstance(c, str) and len(c) == 1 and c.isprintable()):
            raise ValueError(f"letter {c!r} is not a single printable character")


class _Value:
    """An immutable value: equality, hash and repr follow the fields named in `_fields`.

    Each subclass declares `_fields = __slots__ = (...)`, so its fields are
    stored in slots and nowhere else: no value has an instance dictionary.
    On 64-bit CPython 3.10 to 3.13 a value takes 32 bytes of object and
    garbage-collector headers plus 8 per field, e.g. 48 for a Word or a
    CoinPair and 72 for a SuperimpositionProblem, where a dictionary of
    fields took 97 to 239.

    `_setters` holds the `__set__` of each field's slot, bound once when the
    class is created.  Each subclass writes its own __init__, which checks its
    arguments and then stores each field through its setter; the setters do
    not go through the __setattr__ that refuses every other assignment.
    Instances compare equal only to instances of the same class with equal
    fields, and the repr is `Name(field=value, ...)`.  A copy or a pickle is
    rebuilt by calling the class with the field values, so it passes the
    constructor's checks again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._setters = tuple([getattr(cls, f).__set__ for f in cls._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"


class OrderedAlphabet(_Value):
    """A totally ordered alphabet of distinct single-character letters, from any iterable, e.g. "ax"."""

    _fields = __slots__ = ("letters",)

    def __init__(self, letters: tuple[str, ...]):
        try:
            letters = tuple(letters)
        except TypeError:
            raise TypeError(f"letters must be iterable, got {letters!r}") from None
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        _single_chars(*letters)
        if len(set(letters)) != len(letters):
            raise ValueError(f"alphabet letters must be distinct: {letters}")
        _set_letters(self, letters)

    def __contains__(self, letter):
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def index(self, letter: str) -> int:
        """Position of `letter` in the order; ValueError if it is not in the alphabet."""
        if letter not in self.letters:
            raise ValueError(f"letter {letter!r} not in alphabet {self.letters}")
        return self.letters.index(letter)

    def without(self, letter: str) -> "OrderedAlphabet":
        """The alphabet with one letter removed, order preserved."""
        self.index(letter)
        return OrderedAlphabet(tuple(c for c in self.letters if c != letter))


_set_letters, = OrderedAlphabet._setters


class Word(_Value):
    """A finite word: a string of symbols together with its ordered alphabet."""

    _fields = __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: str, alphabet: OrderedAlphabet):
        if not isinstance(alphabet, OrderedAlphabet):
            raise TypeError(f"alphabet must be an OrderedAlphabet, got {alphabet!r}")
        # The letters are distinct single characters, so in a str their
        # counts add up to the length exactly when no other symbol occurs.
        if not isinstance(symbols, str) or sum(map(symbols.count, alphabet.letters)) != len(symbols):
            # Other input is walked too, so its first foreign symbol is named.
            try:
                walk = enumerate(symbols)
            except TypeError:
                raise TypeError(f"symbols must be a str, got {symbols!r}") from None
            for i, c in walk:
                if c not in alphabet:
                    raise ValueError(
                        f"symbol {c!r} at index {i} is not in alphabet {alphabet.letters}"
                    )
            if not isinstance(symbols, str):
                raise ValueError(f"symbols must be a str, not {type(symbols).__name__}")
        _set_symbols(self, symbols)
        _set_alphabet(self, alphabet)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self):
        return self.symbols


_set_symbols, _set_alphabet = Word._setters


# The one way the library builds a Word or an OrderedAlphabet from fields it
# has already checked: the fields are stored without running the constructor's
# checks.  The caller guarantees that they would pass every check and are
# already in the form the constructor stores: a Word's symbols are a str over
# its alphabet, and an alphabet's letters are a tuple of distinct single
# printable characters.
_new = object.__new__


def _prechecked_word(symbols: str, alphabet: OrderedAlphabet) -> Word:
    word = _new(Word)
    _set_symbols(word, symbols)
    _set_alphabet(word, alphabet)
    return word


def _prechecked_alphabet(letters: tuple[str, ...]) -> OrderedAlphabet:
    alphabet = _new(OrderedAlphabet)
    _set_letters(alphabet, letters)
    return alphabet


def _binary_balanced(s: str, a: str, b: str) -> bool:
    """True iff `s`, a word over the two letters a and b, is balanced.

    Finite balanced words are exactly the factors of Sturmian words
    (Lothaire, Algebraic Combinatorics on Words, Prop. 2.1.17), and the
    run-length derivation of a Sturmian word is again Sturmian (Berstel,
    Lauve, Reutenauer, Saliola 2008).  So each level checks that one letter,
    b, is isolated and that the runs of the other between two b's take the
    two lengths k and k + 1, then codes each run and its b by a fresh long
    or short letter and repeats on the coded word.  A boundary run may be
    cut off, so it only has to be at most k + 1 long, and is coded only when
    it is exactly k + 1, i.e. complete.  Each level at least halves the word
    and is a few whole-string passes.
    """
    while True:
        if a + a not in s:
            a, b = b, a
        elif b + b in s:
            return False
        r = s.count(b)
        if r < 2:
            return True
        first, last = s.find(b), s.rfind(b)
        # Only k = floor(mean interior run) can be the short run length.
        k = (last - first + 1 - r) // (r - 1)
        head, tail = first, len(s) - 1 - last
        if head > k + 1 or tail > k + 1:
            return False
        long, short = [c for c in "0123" if c not in (a, b)][:2]
        body = s[first + 1:last + 1].replace(a * (k + 1) + b, long).replace(a * k + b, short)
        if a in body or b in body:
            return False
        s = long * (head == k + 1) + body + long * (tail == k + 1)
        a, b = long, short


def _each_indicator(w: Word, binary) -> bool:
    """True iff binary(t, one, zero) holds for the 0/1 indicator t of each letter of `w`.

    The letters present are found by one `in` test per letter of the
    alphabet, which stops at the letter's first occurrence: only an absent
    letter costs a pass over the word.  With two letters present the
    indicators are complements, and the tests here hold for a word exactly
    when they hold with its letters swapped, so the word itself is tested,
    once, untranslated; with three or more, each letter's test gets its own
    translated copy, one at a time.
    """
    s = w.symbols
    letters = [c for c in w.alphabet.letters if c in s]
    if len(letters) < 3:
        return len(letters) < 2 or binary(s, *letters)
    return all(
        binary(s.translate(str.maketrans(dict.fromkeys(letters, "0") | {c: "1"})), "1", "0")
        for c in letters
    )


def _christoffel_symbols(n: int, alpha: int, low, high):
    """The Christoffel word C(n, alpha) (or its power), 0 <= alpha <= n.

    It is a str over str letters and bytes over one-byte letters.

    With r = gcd(n, alpha) it is the r-th power of the primitive word with
    (a, b) = (alpha/r, (n - alpha)/r) letters.  That word follows Euclid's
    algorithm on (a, b): when a >= b, with k = a // b, it is the image of the
    word for (a - k*b, b) under high -> low**k high; otherwise, with
    k = b // a, the image of the word for (a, b - k*a) under
    low -> low high**k (Berstel, Lauve, Reutenauer, Saliola 2008).  The
    recursion ends at a single letter, so only the images of low and high
    are kept, each step concatenating them: each pair is a node (u, v) of
    the Christoffel tree, the standard factorization of uv (ibid.).
    """
    r = gcd(n, alpha)
    a, b = alpha // r, (n - alpha) // r
    while a and b:
        if a >= b:
            k, a = divmod(a, b)
            high = low * k + high
        else:
            k, b = divmod(b, a)
            low = low + high * k
    return (low if a else high) * r


def is_balanced(w: Word) -> bool:
    """True iff all equal-length factors of `w` have letter counts within 1."""
    return _each_indicator(w, _binary_balanced)


def _christoffel_conjugate(t: str, one: str, zero: str) -> bool:
    """True iff `t`, a word over one and zero, is a conjugate of C(len(t), t.count(one))."""
    return t in _christoffel_symbols(len(t), t.count(one), one, zero) * 2


def is_circularly_balanced(w: Word) -> bool:
    """True iff ww is balanced, i.e. `w` is balanced read cyclically.

    A word over two letters, of length n with k occurrences of one of them,
    is circularly balanced exactly when it is a conjugate of the Christoffel
    word C(n, k) over those letters, which for gcd(n, k) = r > 1 is the r-th
    power of C(n/r, k/r) (Berstel, Lauve, Reutenauer, Saliola 2008).  So each
    letter's 0/1 indicator t passes iff it occurs in c + c for that one word
    c: one Euclid build and one search, without doubling `w`.
    """
    return _each_indicator(w, _christoffel_conjugate)


def reverse(w: Word) -> Word:
    """The mirror image of `w`, over the same alphabet."""
    return _prechecked_word(w.symbols[::-1], w.alphabet)  # same symbols, reordered


def conjugate(w: Word, k: int) -> Word:
    """The k-th conjugate of `w`: rotate the first k letters to the end.

    k is taken modulo len(w); negative k rotates the other way.
    """
    if type(k) is not int:
        _ints(("k",), k)
    n = len(w)
    if n == 0:
        if k != 0:
            raise ValueError("cannot rotate the empty word by a nonzero amount")
        return w
    k %= n
    # The same symbols, rotated, so they stay in the alphabet.
    return _prechecked_word(w.symbols[k:] + w.symbols[:k], w.alphabet)


# Letters per block of `decimate` and of each period test of `is_primitive`,
# which bounds the scratch memory of both; for `decimate`, blocks of 2**12 to
# 2**14 letters took about the same time.
_BLOCK = 1 << 14


def _prime_divisors(n: int):
    """The distinct prime divisors of n >= 1, in increasing order, by trial division.

    The candidates are 2, 3 and then the numbers 6k - 1 and 6k + 1, which
    include every larger prime: a third of the integers up to sqrt(n).
    """
    for p in 2, 3:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
    p, step = 5, 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += step
        step = 6 - step
    if n > 1:
        yield n


def is_primitive(w: Word) -> bool:
    """True iff `w` is not a power of a strictly shorter word.

    A word w of length n is a power u**k with k >= 2 exactly when it has
    period n/p for some prime p dividing n.  If w = u**k, any prime p
    dividing k gives w = (u**(k/p))**p, of period n/p.  Conversely a period
    d < n that divides n gives w = (w[:d])**(n/d).  So the prime divisors of
    n are found by trial division up to sqrt(n), over 2, 3 and 6k +- 1, and
    each period d = n/p is tested in blocks of `_BLOCK` letters: block
    w[i:i + _BLOCK] must equal the letters d before it, for i = d, d + _BLOCK,
    ...  The test of a period stops at the first block that differs.  That
    is O(sqrt(n)) steps and at most n/_BLOCK + 1 C-speed comparisons per
    distinct prime divisor, with one block of scratch memory.
    """
    s = w.symbols
    if not s:
        raise ValueError("primitivity is undefined for the empty word")
    n = len(s)
    for p in _prime_divisors(n):
        d = n // p
        if all(s.startswith(s[i:i + _BLOCK], i - d) for i in range(d, n, _BLOCK)):
            return False
    return True


def projection(w: Word, letter: str, filler: str) -> Word:
    """Keep `letter` where it occurs and replace every other symbol by `filler`.

    The result is a word over the two-letter alphabet (letter, filler).
    """
    w.alphabet.index(letter)
    if filler in w.alphabet:
        raise ValueError(f"filler {filler!r} collides with the alphabet {w.alphabet.letters}")
    out = w.symbols.translate({ord(c): filler for c in w.alphabet.letters if c != letter})
    # The alphabet checks the filler, and every symbol but `letter` became it.
    return _prechecked_word(out, OrderedAlphabet((letter, filler)))


class Direction(Enum):
    LEFT_TO_RIGHT = "left-to-right"
    RIGHT_TO_LEFT = "right-to-left"


class DecimationSpec(_Value):
    """Remove p occurrences out of every q of `letter`, scanning in `direction`.

    `direction` is a `Direction` or its value, "left-to-right" or
    "right-to-left", and is stored as the `Direction`; anything else raises
    ValueError.  `letter` is a single printable character.
    """

    _fields = __slots__ = ("p", "q", "direction", "letter")

    def __init__(self, p: int, q: int, direction: Direction, letter: str = "a"):
        _ints(("p", "q"), p, q)
        direction = Direction(direction)
        if q < 1:
            raise ValueError("block size q must be positive")
        if not 0 <= p <= q:
            raise ValueError(f"need 0 <= p <= q, got p={p}, q={q}")
        _single_chars(letter)
        _set_p(self, p)
        _set_q(self, q)
        _set_direction(self, direction)
        _set_letter(self, letter)


_set_p, _set_q, _set_direction, _set_letter = DecimationSpec._setters


def decimate(w: Word, spec: DecimationSpec) -> Word:
    """Delete target-letter occurrences blockwise.

    With the occurrences of the target letter numbered 1..N, block l
    (l = 0..N//q) marks occurrences l*q+1 .. l*q+p for deletion when scanning
    left to right, and N-l*q .. N-l*q-p+1 when scanning right to left.
    Occurrence numbers falling outside 1..N are skipped; other letters are
    never touched.

    Counted from 0, left to right, occurrence x is deleted in both directions
    iff (x - first) % q < p, with first = 0 left to right and first = (N - p) % q
    right to left; N is one count of the letter, made up front.  The word is
    walked once, in blocks of `_BLOCK` letters.  Each block is split on the letter
    and its occurrences are rejoined between the pieces; the deleted ones, p
    arithmetic progressions of step q, are blanked by strided slices, whose phase
    carries over from the occurrences in earlier blocks.  That is one pass over
    the word and at most min(p, _BLOCK) slices per block, with O(_BLOCK) scratch
    memory besides the output, which is held once as block strings and once
    joined.  `_BLOCK` is a constant, not an option: the output does not depend on
    it, and it only trades the scratch memory of a block against the fixed cost
    per block.
    """
    w.alphabet.index(spec.letter)
    s, letter, p, q = w.symbols, spec.letter, spec.p, spec.q
    first = 0 if spec.direction is Direction.LEFT_TO_RIGHT else (s.count(letter) - p) % q
    blocks = []
    for start in range(0, len(s), _BLOCK):
        pieces = s[start:start + _BLOCK].split(letter)
        k = len(pieces) - 1
        # Occurrence i of the block sits between pieces i and i + 1, at out[2i + 1],
        # and is deleted iff (i - first) % q < p: the progressions start at
        # first, ..., first + p - 1, taken mod q.
        out = [letter] * (2 * k + 1)
        out[::2] = pieces
        for i in chain(range(first, min(first + p, q, k)), range(min(first + p - q, k))):
            out[2 * i + 1::2 * q] = [""] * ((k - 1 - i) // q + 1)
        blocks.append("".join(out))
        first = (first - k) % q  # the same phase, counted from the next block
    return _prechecked_word("".join(blocks), w.alphabet)  # only the letter was deleted
