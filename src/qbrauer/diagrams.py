"""
Brauer-diagram and symmetric-group combinatorics.

Conventions (fixed once, used by every module and all serialized forms):

* A permutation w of {1..n} is a tuple in one-line notation, 1-based:
  ``w[i-1]`` is the image (i)w.  The group acts on the right, so products
  compose left factor first: (x)(uv) = ((x)u)v.
* ``s_ij(n, i, j)`` is the chain s_i s_{i+1} ... s_j for i <= j and
  s_i s_{i-1} ... s_j for i > j, where s_t swaps t and t+1.
* A Brauer diagram on 2n vertices numbers the top row 1..n left to right
  and the bottom row n+1..2n left to right.  It is stored as the
  fixed-point-free involution ``partner``, one object per diagram.
* A permutation is drawn as the diagram joining top i to bottom (i)w, so
  concatenation of diagrams (top factor first) matches the product uv.

This module provides the canonical factorization of a diagram through
e_(k) (the diagram with k adjacent horizontal edges per row), read off
the diagram's two rows by :func:`decompose`.  The loop count that
:func:`concat` returns is the classical Brauer product: at q = r = 1
the deformed product of two basis elements is δ = (r-1)/(q-1) to that
count times their concatenation, so ``concat`` is the q = 1 oracle for the deformed
kernel.  There is no classical element type, and this module never
imports :mod:`qbrauer.scalars`.

Six pure functions are cached with ``functools.cache``, each filled on
first use and never cleared.  :func:`star` and :func:`top_part` are keyed
by a diagram, which is interned, so the key hashes by address; each holds
at most (2n-1)!! entries per rank, and :func:`bottom_part` is three cache
reads.  Both parts are built by :func:`_part`, keyed by a layer and a
row's slot sequence, which holds at most sum_k transversal_count(n, k)
entries per rank (76 at n = 6, 232 at n = 7); a coordinate
(:class:`ReducedExpression`) reads its ``top`` and ``bottom`` there.
:func:`bottom_relabel` is keyed by a diagram and a permutation and holds
at most (2n-1)!! entries per rank on the pairs ``algebra`` passes.
:func:`reduced_word` is keyed by a permutation, an immutable tuple, holds
at most n! entries per rank, and returns a tuple of atoms that no caller
can change.  :func:`enumerate_diagrams` holds one tuple per rank.  No
value involves a scalar, so the generic and the integral versions share
them.
"""

from __future__ import annotations

from functools import cache


class SizeMismatch(ValueError):
    """Operands live in algebras of different rank n."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_mul(u: Perm, v: Perm) -> Perm:
    """(x)(uv) = ((x)u)v."""
    return tuple(v[x - 1] for x in u)


def perm_inv(u: Perm) -> Perm:
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)


def perm_length(w: Perm) -> int:
    """Inversion count #{(i,j) : i < j, (j)w < (i)w}."""
    count = 0
    for i, x in enumerate(w):
        for y in w[i + 1:]:
            if y < x:
                count += 1
    return count


def s_ij(n: int, i: int, j: int) -> Perm:
    """The chain permutation s_{i,j}; a reduced word of length |i - j| + 1."""
    w = list(range(1, n + 1))
    rng = range(i, j + 1) if i <= j else range(i, j - 1, -1)
    for t in rng:
        p, r = w.index(t), w.index(t + 1)  # right multiplication swaps values
        w[p], w[r] = t + 1, t
    return tuple(w)


def lmul_s(t: int, w: Perm) -> Perm:
    """s_t * w: swap the entries at positions t, t+1."""
    out = list(w)
    out[t - 1], out[t] = out[t], out[t - 1]
    return tuple(out)


def rmul_s(w: Perm, t: int) -> Perm:
    """w * s_t: swap the values t, t+1."""
    out = list(w)
    i, j = out.index(t), out.index(t + 1)
    out[i], out[j] = t + 1, t
    return tuple(out)


def left_descents(w: Perm):
    """Indices t with l(s_t w) < l(w)."""
    return [t for t in range(1, len(w)) if w[t - 1] > w[t]]


def right_descents(w: Perm):
    """Indices t with l(w s_t) < l(w)."""
    pos = perm_inv(w)
    return [t for t in range(1, len(w)) if pos[t] < pos[t - 1]]


def fixes_prefix(w: Perm, m: int) -> bool:
    """True iff w fixes 1..m pointwise."""
    return all(w[i] == i + 1 for i in range(m))


# ---------------------------------------------------------------------------
# the t-word normal form: w = t_{n-1} t_{n-2} ... t_1, t_j = 1 or s_{i_j, j}
# ---------------------------------------------------------------------------

def t_word(w: Perm) -> tuple:
    """The unique chain factorization of w: the nonidentity t_j as pairs
    (i_j, j), j strictly decreasing.  The concatenated chains form a reduced
    word, so the chain lengths add up to the length of w.

    t_j = s_{i,j}, where i is the position of j+1 in what remains of w.
    Peeling t_j off moves j+1 to the end, so it deletes that entry and
    leaves a permutation of 1..j.
    """
    rest = list(w)
    chains = []
    for j in range(len(w) - 1, 0, -1):
        i = rest.index(j + 1) + 1
        del rest[i - 1]
        if i <= j:
            chains.append((i, j))
    return tuple(chains)


@cache
def reduced_word(w: Perm) -> tuple:
    """The reduced word of the chain factorization of w, as a tuple of
    (j, +1) atoms, the generator-word encoding of ``hecke`` and ``algebra``.
    Cached: one tuple per permutation, which no caller can change."""
    return tuple((t, +1) for i, j in t_word(w) for t in range(i, j + 1))


# ---------------------------------------------------------------------------
# Brauer diagrams
# ---------------------------------------------------------------------------

class BrauerDiagram:
    """Perfect matching on 2n vertices; ``partner`` is the involution.

    Hash-consed: ``BrauerDiagram(n, partner)`` interns the matching that its
    caller built or checked and returns the one object kept for it, so
    ``==`` and ``hash`` are the object defaults (identity) and the layer is
    counted once.  No diagram may be changed in place, copied or pickled.
    """

    __slots__ = ("n", "partner", "_layer")

    def __new__(cls, n: int, partner: tuple):
        key = (n, partner)
        self = _DIAGRAMS.get(key)
        if self is None:
            self = object.__new__(cls)
            self.n, self.partner = n, partner
            self._layer = sum(1 for u in partner[:n] if u <= n) // 2
            _DIAGRAMS[key] = self
        return self

    def layer(self) -> int:
        """Number of horizontal edges per row."""
        return self._layer

    def edges(self):
        return sorted(
            (v, self.partner[v - 1])
            for v in range(1, 2 * self.n + 1)
            if v < self.partner[v - 1]
        )

    def __repr__(self) -> str:
        return f"BrauerDiagram(n={self.n!r}, partner={self.partner!r})"


# Process-global: every diagram by (n, partner).  Entries are never removed.
_DIAGRAMS: dict = {}


def diagram_from_edges(n: int, edges) -> BrauerDiagram:
    partner = [0] * (2 * n)
    for a, b in edges:
        partner[a - 1] = b
        partner[b - 1] = a
    return BrauerDiagram(n, tuple(partner))


def identity_diagram(n: int) -> BrauerDiagram:
    return diagram_from_edges(n, [(i, n + i) for i in range(1, n + 1)])


def e_k_diagram(n: int, k: int) -> BrauerDiagram:
    """Horizontal edges {2i-1, 2i} on both rows for i <= k, verticals elsewhere."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= 2k <= n, got k={k}, n={n}")
    edges = []
    for i in range(1, k + 1):
        edges.append((2 * i - 1, 2 * i))
        edges.append((n + 2 * i - 1, n + 2 * i))
    for i in range(2 * k + 1, n + 1):
        edges.append((i, n + i))
    return diagram_from_edges(n, edges)


def perm_to_diagram(w: Perm) -> BrauerDiagram:
    """Top i joined to bottom (i)w; w must be a permutation of 1..len(w)."""
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{n}")
    partner = [0] * (2 * n)
    for i, x in enumerate(w, 1):
        partner[i - 1], partner[n + x - 1] = n + x, i
    return BrauerDiagram(n, tuple(partner))


@cache
def star(d: BrauerDiagram) -> BrauerDiagram:
    """Rotate around the horizontal axis: swap the two rows.  Cached."""
    n = d.n
    flip = [u + n if u <= n else u - n for u in d.partner]
    return BrauerDiagram(n, tuple(flip[n:] + flip[:n]))


def top_swap(d: BrauerDiagram, j: int) -> BrauerDiagram:
    """The diagram s_j . d (swap top vertices j, j+1)."""
    return _vertex_swap(d, j, j + 1)


def bottom_swap(d: BrauerDiagram, j: int) -> BrauerDiagram:
    """The diagram d . s_j (swap bottom vertices j, j+1)."""
    return _vertex_swap(d, d.n + j, d.n + j + 1)


def swap_delta(d: BrauerDiagram, a: int) -> int:
    """The length change, -1, 0 or +1, of swapping the vertices a and a+1 of
    one row of ``d``, read off their two partners: the change of
    l(w1) + l(wd) for the top row (``top_swap(d, a)``), of l(wd) + l(w2) for
    the bottom row (``bottom_swap(d, a - n)``).

    It is 0 exactly when a and a+1 are joined to each other, and otherwise
    +1 exactly when the partner of a ranks before the partner of a+1: a cap
    end (a partner in the same row) ranks before a vertical end, and two
    partners of one kind rank by vertex number.  On a permutation diagram
    this is the Hecke rule l(s_j w) > l(w) iff (j)w < (j+1)w.  In the slot
    order of :func:`decompose` (caps first, then free vertices), swapping
    two free vertices composes wd with an adjacent transposition of slots;
    every other swap exchanges the values a and a+1 in the row's slot
    sequence, or the order of two adjacent caps, and leaves wd alone.
    """
    n, p = d.n, d.partner
    pa, pb = p[a - 1], p[a]
    if pa == a + 1:
        return 0
    top = a <= n
    cap_a, cap_b = (pa <= n) == top, (pb <= n) == top
    if cap_a != cap_b:
        return 1 if cap_a else -1
    return 1 if pa < pb else -1


def _vertex_swap(d: BrauerDiagram, a: int, b: int) -> BrauerDiagram:
    """Relabel vertices a and b: only their two edges change."""
    pa, pb = d.partner[a - 1], d.partner[b - 1]
    if pa == b:
        return d
    partner = list(d.partner)
    partner[a - 1], partner[b - 1] = pb, pa
    partner[pa - 1], partner[pb - 1] = b, a
    return BrauerDiagram(d.n, tuple(partner))


def concat(d1: BrauerDiagram, d2: BrauerDiagram):
    """Stack d1 on top of d2; return (composite diagram, closed-loop count).

    Middle vertex m is the bottom vertex n+m of d1 and the top vertex m of
    d2, so it carries one edge from each: the glued graph decomposes into
    paths between outer vertices plus alternating cycles confined to the
    middle row.  Each path is walked from an outer vertex through the two
    ``partner`` tuples; the middle vertices that no path meets form the
    cycles, which are the removed loops.
    """
    n = d1.n
    if d2.n != n:
        raise SizeMismatch(f"cannot concat diagrams with n={n} and n={d2.n}")
    p1, p2 = d1.partner, d2.partner
    partner = [0] * (2 * n)
    met = [False] * (n + 1)
    for v in range(1, 2 * n + 1):
        if partner[v - 1]:
            continue
        # a top vertex starts in d1, a bottom vertex in d2; in d1 the middle
        # vertices are n+1..2n, in d2 they are 1..n
        in1 = v <= n
        u = (p1 if in1 else p2)[v - 1]
        while (u > n) == in1:
            m = u - n if in1 else u
            met[m] = True
            in1 = not in1
            u = p1[n + m - 1] if in1 else p2[m - 1]
        partner[v - 1], partner[u - 1] = u, v
    loops = 0
    for m0 in range(1, n + 1):
        if not met[m0]:
            loops += 1
            m = m0
            while not met[m]:
                met[m] = True
                m = p1[n + m - 1] - n
                met[m] = True
                m = p2[m - 1]
    return BrauerDiagram(n, tuple(partner)), loops


def concat_many(*diagrams):
    """Concatenate top to bottom, accumulating the loop count."""
    d, total = diagrams[0], 0
    for nxt in diagrams[1:]:
        d, g = concat(d, nxt)
        total += g
    return d, total


# ---------------------------------------------------------------------------
# the canonical factorization through e_(k)
# ---------------------------------------------------------------------------

class ReducedExpression:
    """The unique triple (w1, wd, w2) with d = w1 e_(k) wd e_(k) w2 up to the
    k loops this concatenation closes; lengths are additive.

    ``left_word`` and ``right_word`` spell g_{w1} g_{wd} and g_{wd} g_{w2}
    in ``reduced_word`` atoms; each is reduced, because the lengths add.
    ``tail`` is the pair (word of wd, word of w2) that ``right_word``
    joins on each read: ``product`` reads the pair.  ``top`` and ``bottom`` are the top part g_{w1} e_(k) and the
    bottom part e_(k) g_{w2}, as diagrams, built from (k, w1) and (k, w2)
    by :func:`_part`.  Each is computed on its first read and kept in its
    own slot, so a coordinate whose wd or w2 is no permutation reaches
    ``inflation_bijection_check`` as a failure instead of raising in
    ``decompose`` (``test_bijection_check_kills_decompose_mutants``,
    ``_wd_slot_off_by_one``); eager words measured no faster.  g_{wd}
    commutes with e_(k), as wd fixes 1..2k, so b_d = g_{w1} g_{wd} e_(k)
    g_{w2} = g_{w1} e_(k) g_{wd} g_{w2}: ``product`` reads b_d as ``top``
    times g_{wd} g_{w2}, and ``left_word`` lifts ``bottom`` to b_d.  No
    field is changed in place.
    """

    __slots__ = ("k", "w1", "wd", "w2", "_left_word", "_tail", "_top", "_bottom")

    def __init__(self, k: int, w1: Perm, wd: Perm, w2: Perm):
        self.k, self.w1, self.wd, self.w2 = k, w1, wd, w2
        self._left_word = self._tail = self._top = self._bottom = None

    def __repr__(self) -> str:
        return (f"ReducedExpression(k={self.k!r}, w1={self.w1!r}, "
                f"wd={self.wd!r}, w2={self.w2!r})")

    @property
    def left_word(self) -> tuple:
        if self._left_word is None:
            self._left_word = reduced_word(self.w1) + reduced_word(self.wd)
        return self._left_word

    @property
    def tail(self) -> tuple:
        if self._tail is None:
            self._tail = (reduced_word(self.wd), reduced_word(self.w2))
        return self._tail

    @property
    def right_word(self) -> tuple:
        wd_word, w2_word = self.tail
        return wd_word + w2_word

    @property
    def top(self) -> "BrauerDiagram":
        if self._top is None:
            # w1 sends the i-th top slot to i
            self._top = _part(self.k, perm_inv(self.w1))
        return self._top

    @property
    def bottom(self) -> "BrauerDiagram":
        if self._bottom is None:
            # w2 sends i to the i-th bottom slot
            self._bottom = star(_part(self.k, self.w2))
        return self._bottom

    def length(self) -> int:
        return perm_length(self.w1) + perm_length(self.wd) + perm_length(self.w2)


def _row(d: BrauerDiagram, off: int):
    """One row of ``d`` in slot order, its vertices numbered 1..n.

    ``off`` is 0 for the top row and n for the bottom row.  Returns
    ``(caps, free)``: ``caps`` lists each horizontal edge of the row as its
    left then its right vertex, ordered by right vertex; ``free`` lists the
    vertices on vertical edges left to right.
    """
    n = d.n
    caps, free = [], []
    for v in range(1, n + 1):
        u = d.partner[off + v - 1] - off
        if not 1 <= u <= n:
            free.append(v)
        elif u < v:
            caps += (u, v)
    return caps, free


def decompose(d: BrauerDiagram) -> ReducedExpression:
    """The canonical (k, w1, wd, w2) of a diagram with 2k horizontal edges,
    read off its two rows; it is the diagram's cell coordinate.

    The slots of a row are its caps then its free vertices, as listed by
    :func:`_row`.  w1 sends the i-th top slot to i and w2 sends i to the
    i-th bottom slot, so e_(k) closes the caps pairwise; wd fixes 1..2k and
    sends the slot of each free top vertex to the slot of its bottom
    partner.  The inverse is the concatenation w1 e_(k) wd e_(k) w2,
    ``cellular.from_inflation``; the inflation bijection check rebuilds
    every diagram through it, from w1 and w2 too, independently of this
    read-off.
    """
    n = d.n
    tcaps, tfree = _row(d, 0)
    bcaps, bfree = _row(d, n)
    k = len(tcaps) // 2
    slot = {v: i for i, v in enumerate(bfree, 2 * k + 1)}
    wd = tuple(range(1, 2 * k + 1)) + tuple(slot[d.partner[t - 1] - n] for t in tfree)
    w1, w2 = perm_inv(tcaps + tfree), tuple(bcaps + bfree)
    return ReducedExpression(k, w1, wd, w2)


def diagram_length(d: BrauerDiagram) -> int:
    return decompose(d).length()


@cache
def _part(k: int, slots: tuple) -> BrauerDiagram:
    """The top part whose top row lists ``slots`` in slot order: the caps
    (slots[0], slots[1]), ..., (slots[2k-2], slots[2k-1]), the e_(k) bottom
    row, and the free top vertices slots[2k:] joined to bottom 2k+1..n
    without crossings.  Cached by value: at most transversal_count(n, k)
    entries per layer, one per one-row diagram with k caps."""
    n = len(slots)
    partner = [0] * (2 * n)
    for i in range(0, 2 * k, 2):
        a, b = slots[i], slots[i + 1]
        partner[a - 1], partner[b - 1] = b, a
        partner[n + i], partner[n + i + 1] = n + i + 2, n + i + 1
    for i in range(2 * k, n):
        t = slots[i]
        partner[t - 1], partner[n + i] = n + i + 1, t
    return BrauerDiagram(n, tuple(partner))


@cache
def top_part(d: BrauerDiagram) -> BrauerDiagram:
    """The diagram w1 . e_(k) of d: the top row of d, the e_(k) bottom row,
    and the free top vertices joined to bottom 2k+1..n without crossings.
    Cached; built by :func:`_part` from the row's slots."""
    caps, free = _row(d, 0)
    return _part(len(caps) // 2, tuple(caps + free))


def bottom_part(d: BrauerDiagram) -> BrauerDiagram:
    """The diagram e_(k) . w2 of d: the mirror image of :func:`top_part`,
    three cache reads."""
    return star(top_part(star(d)))


@cache
def bottom_relabel(d: BrauerDiagram, w: Perm) -> BrauerDiagram:
    """The diagram d . w for a permutation w: bottom vertex i of d becomes
    bottom vertex (i)w, and no loop closes.  For a layer-k diagram d with
    w2 = 1 and a w of layer k it is the diagram (k, w1, wd, w), since
    b_d g_w = g_{w1} g_{wd} e_(k) g_w is then a basis element.  Cached:
    keyed by an interned diagram and a permutation tuple, at most (2n-1)!!
    entries per rank on such pairs, as (d, w) -> d . w is then a
    bijection."""
    n, p = d.n, d.partner
    partner = list(p)  # the caps of the top row stay
    for i in range(n):
        u, v = p[n + i], n + w[i]
        if u > n:
            u = n + w[u - n - 1]
        else:
            partner[u - 1] = v
        partner[v - 1] = u
    return BrauerDiagram(n, tuple(partner))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@cache
def enumerate_diagrams(n: int) -> tuple:
    """All (2n-1)!! diagrams of rank n, in the order of their partner tuples.

    The partner tuples are listed by pairing the least unmatched vertex
    with each greater unmatched vertex in ascending order: every earlier
    entry of the tuple is then fixed, so that order is the sorted order.
    Each tuple is a matching by construction, so ``BrauerDiagram`` only
    interns it.  The result is cached per rank, and every call returns
    that one tuple.
    """
    n2, partner, found = 2 * n, [0] * (2 * n), []

    def pair_from(a: int) -> None:
        # every vertex below index a is matched
        while a < n2 and partner[a]:
            a += 1
        if a >= n2:
            found.append(BrauerDiagram(n, tuple(partner)))
            return
        for b in range(a + 1, n2):
            if not partner[b]:
                partner[a], partner[b] = b + 1, a + 1
                pair_from(a + 1)
                partner[b] = 0
        partner[a] = 0

    pair_from(0)
    return tuple(found)


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------

def render_diagram(d: BrauerDiagram) -> str:
    """Two-row ASCII form: vertices labelled by shared edge letters."""
    labels = {}
    names = {}
    def name(idx):
        # a, b, ..., z, A, ..., then numbers
        if idx < 26:
            return chr(ord("a") + idx)
        if idx < 52:
            return chr(ord("A") + idx - 26)
        return f"<{idx}>"
    for a, b in d.edges():
        idx = len(names)
        names[(a, b)] = name(idx)
        labels[a] = labels[b] = names[(a, b)]
    width = max(2, len(str(d.n)) + 1)
    head = "".join(str(i).rjust(width) for i in range(1, d.n + 1))
    top = "".join(labels[v].rjust(width) for v in range(1, d.n + 1))
    bot = "".join(labels[v].rjust(width) for v in range(d.n + 1, 2 * d.n + 1))
    return "\n".join(["  " + head, "  " + top, "  " + bot])


def diagram_to_json(d: BrauerDiagram) -> dict:
    return {"n": d.n, "edges": [list(e) for e in d.edges()]}


def diagram_from_json(obj: dict) -> BrauerDiagram:
    """Read ``{"n": n, "edges": [[a, b], ...]}``: n edges that meet each
    vertex of 1..2n once; raises ValueError on any other shape."""
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or obj["n"] < 1:
        raise ValueError('a diagram must be {"n": n, "edges": [...]} with n >= 1')
    n, edges = obj["n"], obj.get("edges")
    if not isinstance(edges, list) or len(edges) != n or not all(
        isinstance(e, list) and len(e) == 2
        and all(type(v) is int and 1 <= v <= 2 * n for v in e)
        for e in edges
    ):
        raise ValueError(f"edges must be a list of {n} vertex pairs in 1..{2 * n}")
    if len({v for e in edges for v in e}) != 2 * n:
        raise ValueError("the edges must meet each vertex once")
    return diagram_from_edges(n, [tuple(e) for e in edges])
