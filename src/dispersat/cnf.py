"""CNF formulas, assignments, DIMACS parsing, and basic formula surgery.

Assignments live on the Boolean hypercube {0,1}^n.  Variable 1 is the
leftmost bit of the string form and the most significant bit of the
integer key, so numeric order on keys equals lexicographic order on
strings.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

MAX_KEY_BITS = 63  # assignment keys are int64
_EVAL_CHUNK = 1 << 16  # (key, clause) pairs per evaluate_keys step


class ParseError(ValueError):
    """Malformed DIMACS input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapabilityError(RuntimeError):
    """Instance exceeds a configured size limit (not a correctness error)."""


def check_key_width(n):
    """Refuse n above MAX_KEY_BITS, where keys no longer fit an int64."""
    if n > MAX_KEY_BITS:
        raise CapabilityError(f"n={n} exceeds the {MAX_KEY_BITS}-bit key limit")


class UnsatError(RuntimeError):
    """The formula has no satisfying assignment (or none was found where
    an exhaustive method was used)."""


class InfeasibleError(RuntimeError):
    """The request cannot be met, e.g. fewer distinct solutions than asked."""


class PartialSetError(RuntimeError):
    """A dispersion driver ran out of oracle retries; carries what was built."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class Assignment:
    """An immutable point of {0,1}^n.

    Stored as (n, key) with variable 1 as the most significant bit of
    `key`; supports XOR, Hamming weight and Hamming distance.
    """

    __slots__ = ("n", "key")

    def __init__(self, n, key):
        if not 0 <= key < (1 << n):
            raise ValueError("key out of range for n")
        self.n = int(n)
        self.key = int(key)

    @classmethod
    def from_bits(cls, bits):
        bits = list(bits)
        key = 0
        for b in bits:
            key = (key << 1) | (1 if b else 0)
        return cls(len(bits), key)

    @classmethod
    def from_string(cls, s):
        if not all(c in "01" for c in s):
            raise ValueError("assignment strings are over {0,1}")
        return cls(len(s), int(s, 2) if s else 0)

    @classmethod
    def zeros(cls, n):
        return cls(n, 0)

    @classmethod
    def ones(cls, n):
        return cls(n, (1 << n) - 1)

    def bit(self, variable):
        """Value of 1-based `variable`."""
        return (self.key >> (self.n - variable)) & 1

    @property
    def bits(self):
        return tuple((self.key >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def to_string(self):
        return format(self.key, f"0{self.n}b") if self.n else ""

    def to_array(self):
        return np.array(self.bits, dtype=bool)

    def weight(self):
        return self.key.bit_count()

    def distance(self, other):
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.key ^ other.key).bit_count()

    def __xor__(self, other):
        if self.n != other.n:
            raise ValueError("length mismatch")
        return Assignment(self.n, self.key ^ other.key)

    def complement(self):
        return Assignment(self.n, self.key ^ ((1 << self.n) - 1))

    def flip(self, variable):
        return Assignment(self.n, self.key ^ (1 << (self.n - variable)))

    def __eq__(self, other):
        return (
            isinstance(other, Assignment)
            and self.n == other.n
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.n, self.key))

    def __lt__(self, other):
        return (self.n, self.key) < (other.n, other.key)

    def __repr__(self):
        return f"Assignment('{self.to_string()}')"


def _normalize_clause(clause, n):
    lits = set()
    for lit in clause:
        lit = int(lit)
        if lit == 0:
            raise ValueError("0 is not a literal")
        if abs(lit) > n:
            raise ValueError(f"variable {abs(lit)} exceeds n={n}")
        lits.add(lit)
    for lit in lits:
        if -lit in lits:
            return None  # tautological clause, always true
    return tuple(sorted(lits, key=lambda l: (abs(l), l < 0)))


class CnfFormula:
    """A CNF formula: `n` variables and an ordered tuple of clauses.

    Clauses are tuples of nonzero signed ints (DIMACS convention),
    deduplicated and sorted by variable; tautological clauses are
    dropped at construction.  An empty clause tuple marks a trivially
    false formula; no clauses at all marks a trivially true one.
    Clause order is semantically relevant to the randomized algorithms
    (first-unit / first-violated rules), so it is preserved.
    """

    def __init__(self, n, clauses):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = int(n)
        norm = []
        for clause in clauses:
            c = _normalize_clause(clause, self.n)
            if c is not None:
                norm.append(c)
        self.clauses = tuple(norm)

    @property
    def k(self):
        """Maximum clause width (0 for a trivially true formula)."""
        return max((len(c) for c in self.clauses), default=0)

    @property
    def num_clauses(self):
        return len(self.clauses)

    def to_dimacs(self):
        lines = [f"p cnf {self.n} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, CnfFormula)
            and self.n == other.n
            and self.clauses == other.clauses
        )

    def __hash__(self):
        return hash((self.n, self.clauses))

    def __repr__(self):
        return f"CnfFormula(n={self.n}, m={len(self.clauses)}, k={self.k})"


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfFormula.

    Comment lines start with 'c' (or '%'); the header is "p cnf n m".
    Clauses are 0-terminated signed integer lists and may span lines; a
    clause left open at end of input is closed there.  The clauses read,
    tautologies included, must number exactly m.
    """
    n = None
    clauses = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError("malformed header (expected 'p cnf n m')", lineno)
            try:
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise ParseError("malformed header (non-integer counts)", lineno)
            if n < 0:
                raise ParseError("negative variable count", lineno)
            if m < 0:
                raise ParseError("negative clause count", lineno)
            continue
        if n is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"not an integer literal: {tok!r}", lineno)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > n:
                    raise ParseError(
                        f"variable {abs(lit)} exceeds declared n={n}", lineno
                    )
                current.append(lit)
    if n is None:
        raise ParseError("empty input: no 'p cnf' header found")
    if current:
        clauses.append(current)
    if len(clauses) != m:
        raise ParseError(f"header declared {m} clauses, found {len(clauses)}")
    return CnfFormula(n, clauses)


def evaluate(formula, z):
    """True iff every clause of `formula` has a literal made true by `z`."""
    if z.n != formula.n:
        raise ValueError("assignment length does not match formula")
    for clause in formula.clauses:
        for lit in clause:
            if z.bit(abs(lit)) != (lit < 0):
                break
        else:
            return False
    return True


def clause_masks(formula):
    """(pos, neg), read-only int64 arrays over the clauses, built once
    per formula: pos[c] has key bit n - v set for each literal v of
    clause c, neg[c] for each literal -v.  Clause c holds at key x iff
    (x & pos[c]) | (~x & neg[c]) != 0, that is (x ^ neg[c]) & (pos[c] |
    neg[c]) != 0, as no clause holds both v and -v."""
    masks = vars(formula).get("_clause_masks")
    if masks is None:
        check_key_width(formula.n)
        sizes = np.fromiter(map(len, formula.clauses), np.intp, len(formula.clauses))
        lits = np.fromiter(chain.from_iterable(formula.clauses), np.int64, sizes.sum())
        clause = np.repeat(np.arange(sizes.size), sizes)
        bit = np.int64(1) << (formula.n - np.abs(lits))
        pos = np.zeros(sizes.size, np.int64)
        neg = pos.copy()
        np.bitwise_or.at(pos, clause[lits > 0], bit[lits > 0])
        np.bitwise_or.at(neg, clause[lits < 0], bit[lits < 0])
        pos.flags.writeable = neg.flags.writeable = False
        masks = formula._clause_masks = (pos, neg)
    return masks


def evaluate_keys(formula, keys):
    """Vectorized `evaluate` over an int64 array of assignment keys, of
    any shape, tested on the clause masks in chunks of about _EVAL_CHUNK
    (key, clause) pairs."""
    keys = np.asarray(keys, dtype=np.int64)
    pos, neg = clause_masks(formula)
    flat = keys.reshape(-1)
    ok = np.ones(flat.size, dtype=bool)
    if pos.size:
        var = pos | neg
        step = max(1, _EVAL_CHUNK // pos.size)
        for lo in range(0, flat.size, step):
            held = flat[lo : lo + step, None] ^ neg
            held &= var
            ok[lo : lo + step] = held.min(axis=1) != 0  # masks are >= 0
    return ok.reshape(keys.shape)


def solution_indicator(formula):
    """Boolean vector over all 2^n keys, True where the key satisfies
    `formula`.

    A clause of width w is false on exactly one subcube of 2^(n-w)
    points: each of its variables fixed to the value falsifying its
    literal.  Clearing that subcube in a (2,)*n view of an all-true
    table costs O(m 2^(n-w)) writes; an empty clause clears everything.
    The caller bounds n: the table takes 2^n bytes.
    """
    n = formula.n
    table = np.ones((2,) * n, dtype=bool)
    for clause in formula.clauses:
        falsified = [slice(None)] * n
        for lit in clause:
            falsified[abs(lit) - 1] = 0 if lit > 0 else 1
        table[tuple(falsified)] = False
    return table.reshape(-1)


def condition(formula, variable, value):
    """Fix `variable` to `value`: drop satisfied clauses, remove false
    literals of the variable from the rest."""
    if not 1 <= variable <= formula.n:
        raise ValueError("variable out of range")
    true_lit = variable if value else -variable
    new_clauses = []
    for clause in formula.clauses:
        if true_lit in clause:
            continue
        if -true_lit in clause:
            new_clauses.append(tuple(l for l in clause if l != -true_lit))
        else:
            new_clauses.append(clause)
    return CnfFormula(formula.n, new_clauses)


def rotate(formula, z):
    """Swap literal polarity of every variable j with z_j = 0.

    z* satisfies F iff z* XOR ~z satisfies the rotated formula, so the
    map u -> u XOR ~z is a distance-preserving bijection between the
    two solution spaces.  Rotating twice with the same z gives back F.
    """
    if z.n != formula.n:
        raise ValueError("length mismatch")
    new_clauses = []
    for clause in formula.clauses:
        new_clauses.append(
            tuple(-l if z.bit(abs(l)) == 0 else l for l in clause)
        )
    return CnfFormula(formula.n, new_clauses)
