"""Shared data model: universes, datasets, query workloads.

A universe is a product domain U = U_1 x .. x U_d where attribute i takes
values in {0, .., m_i - 1} and is flagged categorical or numerical.  A
dataset is a multiset of points of U.  A workload is a collection of
distinct attribute subsets S with nonnegative weights p(S) and a query
kind: plain marginals (count rows matching a full assignment of S),
shifted product queries (each attribute contributes a factor
phi_j(t_j - x_j mod m_j)), or extended marginals (equality on categorical
attributes, prefix/suffix ranges on numerical ones).

Attributes are indexed from zero throughout; subsets are canonicalized to
sorted index tuples.  String-valued CSV cells are mapped to dense integer
codes at ingestion and the mapping is returned so reports can translate
back.

All types are immutable after construction and safe to share across
threads.
"""

import copy
import csv
import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

CATEGORICAL = "categorical"
NUMERICAL = "numerical"
KINDS = ("marginal", "product", "extended")


class FourierMarginalsError(Exception):
    """Base class for all errors raised by this package."""


class SizeTooSmall(FourierMarginalsError):
    """An attribute domain has fewer than two values."""


class LengthMismatch(FourierMarginalsError):
    """Parallel per-attribute lists have different lengths."""


class AllZeroWeights(FourierMarginalsError):
    """Weight normalization was requested but every weight is zero, or
    the workload has no sets and so no weights."""


class WeightOverflow(FourierMarginalsError):
    """The weights are finite but their sum overflows, so normalizing
    them would zero every weight."""


class AssignmentOutOfRange(FourierMarginalsError):
    """A target assignment uses an attribute index or value outside the universe."""


class Unestimable(FourierMarginalsError):
    """A zero-weight set cannot be answered from the released frequencies."""


@dataclass(frozen=True)
class Universe:
    """Product domain with per-attribute sizes and kind flags."""

    domain_sizes: tuple
    attribute_kind: tuple

    @property
    def d(self):
        return len(self.domain_sizes)

    @property
    def size(self):
        # python int, so large products never overflow; dense paths
        # enforce their own caps before materializing
        n = 1
        for m in self.domain_sizes:
            n *= int(m)
        return n

    def subdomain_sizes(self, members):
        return tuple(self.domain_sizes[j] for j in members)

    def subuniverse_size(self, members):
        n = 1
        for j in members:
            n *= int(self.domain_sizes[j])
        return n


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of a universe, stored as an (n, d) integer array.

    The rows are copied and the copy is read-only, so neither the
    caller's array nor a later write can change a dataset once its
    rows have been checked against the universe.
    """

    universe: Universe
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.universe.d:
            raise LengthMismatch(f"rows of shape {rows.shape} are not "
                                 f"(n, {self.universe.d})")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        sizes = np.array(self.universe.domain_sizes)
        if rows.size and (rows.min() < 0 or (rows >= sizes).any()):
            raise AssignmentOutOfRange("dataset row outside the universe")

    @property
    def n(self):
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class Workload:
    """Weighted collection of query sets over one universe.

    sets are canonical sorted index tuples and must be distinct; weights
    are nonnegative and normalized only on request.  phi carries the
    per-attribute factor tables of product workloads (indicator of zero
    for attributes without an explicit table, which recovers marginals).
    """

    universe: Universe
    sets: tuple
    weights: np.ndarray
    kind: str = "marginal"
    phi: tuple = None

    def __post_init__(self):
        canon = tuple(map(tuple, map(sorted, map(_int_members, self.sets))))
        d = self.universe.d
        for s in canon:
            if s and (s[0] < 0 or s[-1] >= d):
                raise AssignmentOutOfRange(f"set {s} outside [0, {d})")
            if len(set(s)) != len(s):
                raise AssignmentOutOfRange(f"set {s} repeats an attribute")
        if len(set(canon)) != len(canon):
            raise AssignmentOutOfRange("duplicate sets in workload")
        object.__setattr__(self, "sets", canon)
        object.__setattr__(self, "weights",
                           _checked_weights(self.weights, len(canon)))
        if self.kind not in KINDS:
            raise AssignmentOutOfRange(f"unknown kind {self.kind!r}")
        if self.phi is not None:
            if len(self.phi) != self.universe.d:
                raise LengthMismatch("one phi table per attribute required")
            tables = []
            for m, table in zip(self.universe.domain_sizes, self.phi):
                table = tuple(float(v) for v in table)
                if len(table) != m:
                    raise LengthMismatch("phi table length must match domain size")
                if not all(map(math.isfinite, table)):
                    raise AssignmentOutOfRange("phi tables must be finite")
                tables.append(table)
            object.__setattr__(self, "phi", tuple(tables))

    def phi_tables(self):
        """Factor tables with the indicator-of-zero default filled in."""
        if self.phi is not None:
            return self.phi
        return tuple((1.0,) + (0.0,) * (m - 1)
                     for m in self.universe.domain_sizes)


# a set's members as Python integers, without a generator per set
_int_members = functools.partial(map, int)


def _checked_weights(weights, count):
    """weights as a read-only float copy, checked as Workload checks
    them: count finite, nonnegative numbers."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise LengthMismatch("one weight per set required")
    if not np.isfinite(w).all():
        raise AssignmentOutOfRange("weights must be finite")
    if (w < 0).any():
        raise AssignmentOutOfRange("negative weight")
    w = w.copy()
    w.flags.writeable = False
    return w


# rows hold values as int64, so no larger domain can be addressed
_MAX_SIZE = np.iinfo(np.int64).max


def build_universe(domain_sizes, kinds=None):
    """Validate sizes and kind flags and return a Universe.

    kinds defaults to all categorical.  Sizes must be integers: a float,
    a string or a bool is rejected, not converted.
    """
    sizes = tuple(domain_sizes)
    for m in sizes:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise AssignmentOutOfRange(f"domain size {m!r} is not an integer")
    sizes = tuple(map(int, sizes))
    if not sizes:
        raise SizeTooSmall("need at least one attribute")
    if kinds is None:
        kinds = (CATEGORICAL,) * len(sizes)
    kinds = tuple(kinds)
    if len(kinds) != len(sizes):
        raise LengthMismatch(f"{len(sizes)} sizes but {len(kinds)} kinds")
    for m in sizes:
        if m < 2:
            raise SizeTooSmall(f"domain size {m} is below 2")
        if m > _MAX_SIZE:
            raise AssignmentOutOfRange(f"domain size {m} exceeds {_MAX_SIZE}")
    for k in kinds:
        if k not in (CATEGORICAL, NUMERICAL):
            raise AssignmentOutOfRange(f"unknown attribute kind {k!r}")
    return Universe(domain_sizes=sizes, attribute_kind=kinds)


@functools.cache
def _subset_positions(length):
    """For the subsets R of range(length), by size and then in
    itertools.combinations order, the positions in R and those outside
    it: a (2^length, 2, length) array whose rows are ascending and
    padded with length, kept read-only and as uint8 (a set of 256
    attributes would have 2^256 subsets).  The cache holds one table
    per set size seen."""
    table = []
    for r in range(length + 1):
        for sub in itertools.combinations(range(length), r):
            table.append((sub + (length,) * (length - r),
                          tuple(j for j in range(length) if j not in sub)
                          + (length,) * r))
    table = np.array(table, dtype=np.uint8).reshape(len(table), 2, length)
    table.flags.writeable = False
    return table


def subset_pairs(workload):
    """Every pair R <= S of the workload's sets and its downward closure.

    The pairs are listed set by set, and within a set by the size of R
    and then in itertools.combinations order.  Returns (members, rows,
    pair_member, pair_set, rest):

    - members, the closure ordered by (cardinality, lexicographic), as
      index tuples;
    - rows, the members' attributes, one row each, ascending and padded
      with the sentinel attribute d to the largest set size;
    - pair_member and pair_set, the closure and set positions of each
      pair;
    - rest, the attributes of S - R of each pair, in the same padding.

    The sets of each size are expanded at once through a cached table
    of subset positions, and the closure is read off one lexicographic
    sort of the pairs' member rows, so the number of numpy calls grows
    with the set sizes, not with the number of sets.
    """
    sets, d = workload.sets, workload.universe.d
    # the smallest integer type that holds the sentinel d: lexsort sorts
    # keys of at most 16 bits by radix, several times faster than int64
    attr = np.min_scalar_type(d)
    lengths = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    attrs = np.fromiter(itertools.chain.from_iterable(sets), dtype=attr,
                        count=int(lengths.sum()))
    start = np.cumsum(lengths) - lengths
    counts = np.left_shift(1, lengths)
    first = np.cumsum(counts) - counts
    width = int(lengths.max(initial=0))
    # pairs[i] holds the attributes of R and of S - R of pair i
    pair_set = np.repeat(np.arange(len(sets), dtype=np.intp), counts)
    pairs = np.full((len(pair_set), 2, width), d, dtype=attr)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        k = np.flatnonzero(lengths == length)
        # the sets of this size, with the sentinel as one more column
        block = np.full((len(k), length + 1), d, dtype=attr)
        block[:, :length] = attrs[start[k, None] + np.arange(length)]
        at = (first[k, None] + np.arange(1 << length)).ravel()
        pairs[at, :, :length] = block[:, _subset_positions(length)] \
            .reshape(len(at), 2, length)
    rows, rest = pairs[:, 0], pairs[:, 1]
    size = (rows < d).sum(axis=1, dtype=attr)
    order = np.lexsort((*rows.T[::-1], size))
    ranked = rows[order]
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in ranked.T:
        new[1:] |= column[1:] != column[:-1]
    pair_member = np.empty(len(order), dtype=np.intp)
    pair_member[order] = np.cumsum(new) - 1
    rows = ranked[new]
    cuts = np.searchsorted(size[order][new], np.arange(width + 2)).tolist()
    members = ((),) * cuts[1] + tuple(itertools.chain.from_iterable(
        zip(*rows[cuts[r]:cuts[r + 1], :r].T.tolist())
        for r in range(1, width + 1)))
    return members, rows, pair_member, pair_set, rest


def downward_closure(workload):
    """Closure of the workload's sets under taking subsets.

    Returns the members as a tuple of index tuples, ordered by
    (cardinality, lexicographic): the members of subset_pairs.
    """
    return subset_pairs(workload)[0]


def normalize_weights(workload, p=None):
    """Scale the weights (p when given) to sum to one.

    Membership, order, kind and factor tables are unchanged.  The sets
    and tables of the workload were checked when it was made, so only a
    given p is checked, as Workload checks weights; the result is a copy
    of the workload with the divided weights, made without a second
    check.  Its weights have the bits of dividing the checked weights
    by their sum.
    """
    if not workload.sets:
        raise AllZeroWeights(
            "the workload has no sets, so it has no weights to normalize")
    weights = workload.weights if p is None \
        else _checked_weights(p, len(workload.sets))
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if total == math.inf:
        raise WeightOverflow(f"the weights sum to {total}, beyond the float "
                             "range; scale them down")
    if total <= 0:
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    weights = weights / total
    weights.flags.writeable = False
    normalized = copy.copy(workload)
    object.__setattr__(normalized, "weights", weights)
    return normalized


def marginal_eval(dataset, members, target):
    """Exact count of dataset rows matching a partial assignment.

    members may be given in any order; target is aligned with it.
    """
    sizes = dataset.universe.domain_sizes
    members = tuple(int(j) for j in members)
    target = tuple(int(t) for t in target)
    if len(members) != len(target):
        raise LengthMismatch("one target value per member attribute")
    for j, t in zip(members, target):
        if not 0 <= j < dataset.universe.d:
            raise AssignmentOutOfRange(f"attribute index {j} out of range")
        if not 0 <= t < sizes[j]:
            raise AssignmentOutOfRange(f"value {t} outside domain of attribute {j}")
    if dataset.n == 0:
        return 0
    match = np.ones(dataset.n, dtype=bool)
    for j, t in zip(members, target):
        match &= dataset.rows[:, j] == t
    return int(match.sum())


def read_workload_json(source):
    """Parse a workload document.

    The document has the shape {"attributes": [{"name", "size", "kind"}],
    "sets": [{"attrs": [names], "weight"}], "kind": ..} plus an optional
    "phi" object mapping attribute names to factor tables for product
    workloads.  Names must be strings without leading or trailing
    whitespace, sizes integers, weights numbers and phi tables lists of
    finite numbers; strings and booleans are rejected, not converted.
    A parsed document of any other shape raises AssignmentOutOfRange,
    naming the first offending entry.
    Accepts a path, a file object, or an already-parsed dict.
    Returns (universe, workload, attribute names).

    The sets are read in one pass that costs little per entry: each
    type is tested by identity before isinstance, which still decides
    subclasses and numpy scalars; each name is looked up once; a float
    weight is kept as parsed and the weights become an array in one
    call, while any other number is converted where it is read, so that
    an integer beyond the float range is reported at its own entry.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise AssignmentOutOfRange(f"workload {doc!r} is not an object")
    attrs = doc.get("attributes")
    if not isinstance(attrs, list):
        raise AssignmentOutOfRange(
            f"attributes {attrs!r} is not a list of attribute objects")
    for a in attrs:
        if not (isinstance(a, dict) and isinstance(a.get("name"), str)
                and "size" in a):
            raise AssignmentOutOfRange(
                f"attribute {a!r} is not an object with a name and a size")
    names = [a["name"] for a in attrs]
    for name in names:
        # read_dataset_csv strips header cells, so such a name could
        # never match a column
        if name != name.strip():
            raise AssignmentOutOfRange(
                f"attribute name {name!r} has leading or trailing "
                "whitespace")
    if len(set(names)) != len(names):
        raise AssignmentOutOfRange("duplicate attribute names")
    universe = build_universe([a["size"] for a in attrs],
                              [a.get("kind", CATEGORICAL) for a in attrs])
    index = {name: j for j, name in enumerate(names)}
    entries = doc.get("sets")
    if not isinstance(entries, list):
        raise AssignmentOutOfRange(f"sets {entries!r} is not a list of "
                                   "set objects")
    sets = []
    weights = []
    for entry in entries:
        if type(entry) is not dict and not isinstance(entry, dict):
            raise AssignmentOutOfRange(f"set {entry!r} is not an object")
        members = entry.get("attrs")
        if type(members) is not list \
                and not isinstance(members, (list, tuple)):
            raise AssignmentOutOfRange(
                f"attrs {members!r} is not a list of attribute names")
        ids = []
        for name in members:
            j = index.get(name) \
                if type(name) is str or isinstance(name, str) else None
            if j is None:
                raise AssignmentOutOfRange(f"unknown attribute {name!r}")
            ids.append(j)
        sets.append(ids)
        weight = entry.get("weight", 1.0)
        weights.append(weight if type(weight) is float
                       else _number(weight, "weight"))
    kind = doc.get("kind", "marginal")
    phi = doc.get("phi")
    if phi is not None and not isinstance(phi, dict):
        raise AssignmentOutOfRange(
            f"phi {phi!r} is not an object mapping attribute names to "
            "tables")
    if phi:
        if kind != "product":
            raise AssignmentOutOfRange("phi tables only apply to product workloads")
        tables = [None] * universe.d
        for name, table in phi.items():
            if name not in index:
                raise AssignmentOutOfRange(f"unknown attribute {name!r} in phi")
            if not (isinstance(table, (list, tuple))
                    and all(map(_is_number, table))):
                raise AssignmentOutOfRange(
                    f"phi table {table!r} of {name!r} is not a list of "
                    "numbers")
            tables[index[name]] = tuple(_number(v, f"phi entry of {name!r}")
                                        for v in table)
        for j, table in enumerate(tables):
            if table is None:
                tables[j] = (1.0,) + (0.0,) * (universe.domain_sizes[j] - 1)
        phi = tuple(tables)
    else:
        phi = None
    workload = Workload(universe=universe, sets=tuple(sets),
                        weights=np.array(weights, dtype=float), kind=kind,
                        phi=phi)
    return universe, workload, names


def _number(value, what):
    """A JSON number as a float; a bool, string or integer beyond the
    float range is rejected."""
    if not _is_number(value):
        raise AssignmentOutOfRange(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise AssignmentOutOfRange(f"{what} {value!r} is beyond the float "
                                   "range")


def _is_number(value):
    # JSON true and false are bools, which Python counts as integers;
    # the identity tests spare the numbers.Real check for JSON's own
    return type(value) is float or type(value) is int \
        or (isinstance(value, numbers.Real) and not isinstance(value, bool))


# Records read and converted at once by read_dataset_csv: lines on the
# fast path, where a line is a record, and csv records after the switch
# to csv.reader.  Bounds the raw text held in memory while each column
# still converts in one call.
CSV_CHUNK_ROWS = 1 << 14

# byte classes of the canonical integer grammar: 0 any other byte, 1 an
# ASCII digit, 2 the cell separator, 3 the line break
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = 1
_BYTE_CLASS[ord(",")] = 2
_BYTE_CLASS[ord("\n")] = 3
# longest cell of the grammar; every 18-digit number fits in int64
_MAX_DIGITS = 18


def read_dataset_csv(source, universe, names):
    """Read a dataset whose header row names the attributes.

    Columns may appear in any order and extra columns are rejected.
    A column holds either integer cells, validated against the domain,
    or non-integer cells, assigned dense codes in order of first
    appearance; a column mixing both is rejected.  Errors name the
    offending line.  Returns (dataset, value_maps) where value_maps[name]
    gives the string-to-code mapping of attributes that needed one.

    The header is read with csv.reader.  The body is then read as raw
    lines, CSV_CHUNK_ROWS at a time, and a chunk is parsed with numpy
    byte operations when it is canonical: every line has one cell per
    header cell, each cell is 1 to 18 ASCII digits, cells are separated
    by "," and each line ends with "\\n" or "\\r\\n" (the file's last
    line may have no ending).  The first chunk that fails this grammar
    and the rest of the file go through csv.reader, in chunks of
    CSV_CHUNK_ROWS records converted column by column: an integer column
    in one np.fromiter call, any other column cell by cell.  Both paths
    give the same rows, codes and errors, since a canonical line is one
    record.
    """
    if hasattr(source, "read"):
        return _parse_csv_rows(source, universe, names)
    with open(source, newline="") as fh:
        return _parse_csv_rows(fh, universe, names)


def _parse_csv_rows(source, universe, names):
    header = next(csv.reader(source), None)
    if header is None:
        raise LengthMismatch("empty dataset file")
    header = [h.strip() for h in header]
    position = {}
    for col, name in enumerate(header):
        if name not in names:
            raise AssignmentOutOfRange(f"unknown column {name!r}")
        if name in position:
            raise AssignmentOutOfRange(
                f"column {name!r} appears more than once")
        position[name] = col
    if len(position) != len(names):
        missing = sorted(set(names) - set(position))
        raise LengthMismatch(f"missing columns: {', '.join(missing)}")
    order = [position[name] for name in names]
    sizes = universe.domain_sizes
    value_maps = {name: {} for name in names}
    coded = [value_maps[name] for name in names]
    blocks = []
    seen = 0
    # (line, attribute, value) of the first cell outside its domain; it
    # is reported only once the whole file has parsed
    outside = None
    line = 1
    while chunk := list(itertools.islice(source, CSV_CHUNK_ROWS)):
        values = _integer_lines(chunk, len(header))
        if values is None:
            break
        values = values[:, order]
        beyond = values >= np.array(sizes)
        if outside is None and beyond.any():
            i, j = divmod(int(np.argmax(beyond)), universe.d)
            outside = (line + 1 + i, j, int(values[i, j]))
        blocks.append(values)
        line += len(chunk)
        seen += len(chunk)
    reader = csv.reader(itertools.chain(chunk, source))
    while chunk := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
        lines = range(line + 1, line + 1 + len(chunk))
        line += len(chunk)
        ragged = None
        widths = list(map(len, chunk))
        if widths.count(len(header)) != len(chunk):
            # skip blank lines; stop at a ragged one, whose error
            # stands unless a cell before it fails first
            kept = []
            for number, raw, width in zip(lines, chunk, widths):
                if width == len(header):
                    kept.append((number, raw))
                elif width:
                    ragged = LengthMismatch(
                        f"line {number}: expected {len(header)} cells")
                    break
            lines = [number for number, _ in kept]
            chunk = [raw for _, raw in kept]
        if chunk:
            cells = list(zip(*chunk))
            columns, errors, bad = [], [], []
            for j, col in enumerate(order):
                values, error, first_bad = _convert_column(
                    cells[col], lines, coded[j], sizes[j], names[j], seen)
                columns.append(values)
                if error is not None:
                    errors.append((error[0], j, error[1]))
                if first_bad is not None:
                    bad.append((first_bad[0], j, first_bad[1]))
            if errors:
                raise min(errors, key=lambda e: e[:2])[2]
            if bad and outside is None:
                outside = min(bad, key=lambda e: e[:2])
            blocks.append(np.column_stack(columns))
            seen += len(chunk)
        if ragged is not None:
            raise ragged
    if outside is not None:
        number, j, value = outside
        raise AssignmentOutOfRange(
            f"line {number}: value {value} of attribute {names[j]!r} "
            f"outside [0, {sizes[j]})")
    rows = (np.concatenate(blocks) if blocks
            else np.empty((0, universe.d), dtype=np.int64))
    # free the chunks before Dataset copies the rows
    del blocks
    dataset = Dataset(universe=universe, rows=rows)
    value_maps = {name: codes for name, codes in value_maps.items() if codes}
    return dataset, value_maps


def _integer_lines(lines, width):
    """A chunk of canonical lines as an (n, width) int64 array.

    Returns None when any line falls outside the grammar that
    read_dataset_csv documents.
    """
    text = "".join(lines)
    if not text.isascii():
        return None
    # a lone "\r" is left behind and fails the byte classes
    text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    kind = _BYTE_CLASS[data]
    if not kind.all():
        return None
    # a line holds at most one "\n", at its end, so the chunk holds one
    # per line and they must be every width-th separator
    ends = np.flatnonzero(kind > 1)
    if (ends.size != len(lines) * width
            or not (kind[ends[width - 1::width]] == 3).all()):
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _MAX_DIGITS:
        return None
    if longest == 1:
        values = data[::2].astype(np.int64) - ord("0")
    else:
        # Horner's rule over the right-aligned digit columns: column k
        # holds the k-th byte before each cell's end, zeroed where the
        # cell is shorter (a negative position wraps into the buffer and
        # is zeroed too)
        values = np.zeros(ends.size, dtype=np.int64)
        for k in range(longest, 0, -1):
            digits = data[ends - k] - np.uint8(ord("0"))
            digits[lengths < k] = 0
            values *= 10
            values += digits
    return values.reshape(len(lines), width)


def _convert_column(cells, lines, codes, size, name, seen):
    """One column of a chunk as int64 values.

    codes is the column's string-to-code map so far (empty for an
    integer column) and seen the number of data lines before the chunk.
    Returns (values, error, bad): error is (line, exception) of the
    first cell that mixes kinds or exceeds the domain's distinct
    values, and stops the conversion; bad is (line, value) of the first
    integer cell outside [0, size).
    """
    if not codes:
        try:
            values = np.fromiter(map(int, cells), np.int64, len(cells))
        except (ValueError, OverflowError):
            pass
        else:
            outside = (values < 0) | (values >= size)
            if outside.any():
                i = int(np.argmax(outside))
                return values, None, (lines[i], int(values[i]))
            return values, None, None
    # cell by cell: coded columns, and integer columns with a
    # non-integer or int64-overflowing cell
    values = np.zeros(len(cells), dtype=np.int64)
    bad = None
    for i, cell in enumerate(cells):
        cell = cell.strip()
        code = codes.get(cell)
        if code is None:
            try:
                value = int(cell)
            except ValueError:
                if not codes and (seen or i):
                    error = _mixed_column(lines[i], name)
                    return values, (lines[i], error), bad
                if len(codes) >= size:
                    error = AssignmentOutOfRange(
                        f"line {lines[i]}: attribute {name!r} has more "
                        f"than {size} distinct values")
                    return values, (lines[i], error), bad
                code = codes[cell] = len(codes)
            else:
                if codes:
                    error = _mixed_column(lines[i], name)
                    return values, (lines[i], error), bad
                if 0 <= value < size:
                    values[i] = value
                elif bad is None:
                    bad = (lines[i], value)
                continue
        values[i] = code
    return values, None, bad


def _mixed_column(line, name):
    return AssignmentOutOfRange(
        f"line {line}: attribute {name!r} mixes integer and non-integer "
        "cells")
