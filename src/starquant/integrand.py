"""Form integrals: the integrand, a deterministic rule for 2 sampled
dimensions and sampled replicates for more, loaded with numpy by the
first integral weights.integrate_graph_form computes.

The integrand is det M where row k holds the coefficients of the k-th
edge form, the propagator dphi whose coefficients angle_form writes
(rows in vertex-then-slot order), and the columns run over
(x_1, y_1, ..., x_n, y_n, t_1, ..., t_{m-2}) with the moving grounds
in descending position order.  This column convention fixes the
orientation that weights calibrates at order 1.

Source vertices are integrated out exactly.  A source (_sources) has
out-degree 2 and no incoming edge, so its two rows hold the only
entries of its two columns: det M = det B_v det M', M' without v's rows
and columns and free of z_v, and z_v integrates to source_form(a_v,
b_v) at its targets' positions.  The integrand is therefore prod_v
source_form(a_v, b_v) det M' over sampled_dims(graph) = 2(n -
#sources) + m - 2 coordinates, the remaining aerial points in vertex
order, then the moving grounds.  A
graph whose every aerial vertex is a source (the derivative-free
graphs) keeps the full integrand: 2n dimensions.  Default budgets stay
keyed by the form degree 2n + m - 2, and MAX_DIMS caps the sampled
count.

Each aerial point comes from the open unit square through
x = tan(pi (s - 1/2)), y = t/(1 - t); moving grounds are sorted
uniforms (simplex sampling).  A graph with 2 sampled dimensions is one
aerial point over the grounds 0 and 1 (every other aerial vertex a
source, or n = 1 and m = 2), and integrate gives it to _cubature: a
graded tensor Gauss-Legendre rule on that square, split at the
grounds, at two levels whose difference is the error estimate (method
"cubature", no seed, no budget).  Any other graph is sampled
(_sample): each integral is estimated from 32 independent replicates,
and their spread gives the standard error.  There are two sampling
methods:

- qmc (default): each replicate is a scrambled-Sobol point set.
- mc: each replicate is an iid PCG64 stream.  It stays as the
  independent cross-check: its spread does not depend on Sobol
  scrambling, so it shows whether the qmc error bars can be trusted.
  It costs one branch of the shared draw path below.

One draw path (_draws) fills every integral's points, straight into
its integrand plan's column workspace (_Plan.ut): a chunk is laid out
(dims, replicates, rows), a group of replicates that fits in
_BLOCK_ROWS = 8192 rows as one chunk, a longer replicate as chunks of
_BLOCK_ROWS rows.  A qmc chunk is bit-identical to scipy's qmc.Sobol
per replicate seed.  Each integral scrambles once for all its seeds and
builds two small Gray-code tables per seed by reflection, high (2^hi
rows) and low (2^lo rows, lo + hi bits per replicate); any run of
points is high[h] ^ low[l], one broadcast XOR scaled by 2^-30 into the
columns.  Direction numbers follow Joe and Kuo's recurrence from the
table _JOE_KUO (at most MAX_DIMS = 32 dimensions and 2^30 points per
replicate; more raise ConfigError); the LMS + digital-shift scrambling
is the top bit of each 32-bit half of raw PCG64 words, as
default_rng(seed).integers(0, 2) draws, and one GF(2) product.
tests/test_weights.py::TestSobolBlock pins the bit identity with scipy:
every table row, the bit source, the chunks and any split of them.  An
mc chunk holds the same PCG64 doubles a row-major draw would.

Each integral builds one integrand plan (_Plan) from its graph: the
sources, each sampled point's columns, and each row's nonzero entries
of M (Im A, Re A, -Im A or d_wy), in real arithmetic on the plan's
columns: no complex array.  Each block's squared distances are computed
once and read by the coincidence guard and, as 1/|z - w|^2 and
1/|z - wbar|^2, by angle_form's two poles.  The entries and det M are
compiled once to ufunc calls at every size: det M by _laplace's
expansion, along one row while an odd number of rows is left and along
the top two rows while an even number is left, skipping structurally
zero factors, and a matrix with no term left (such as a moving ground
no edge reaches) has det M = 0 and a zero root.  Signs and factors of
two stay outside the compiled values (_Term): a ground's two poles are
equal, so its row is twice the computed one, and negation and doubling
commute exactly with the rounding of +, - and * (barring overflow and
subnormal results), so the program negates and doubles nothing and det
M's sign * 2^exp joins the constant jac is divided by.  Each block
length binds the whole block once: one list of calls with their
operands, views of the workspace, from the ground sort to det M, so a
block only makes calls.  Everything is written through out= into one
workspace per integral, so a block allocates nothing outside it.
_Plan.__call__ takes sample rows (redraws, tests) and copies each block
into the columns.  Every integrand float equals the dense evaluation's,
the same expansion with every term kept
(tests/test_weights.py::TestIntegrandPlan against tests/helpers.py),
except that an exactly zero value can carry the other sign where a sum
of two negated terms cancels exactly (see _Term), which no mean sees;
both differ from the complex A = (2z - w - wbar)/Q at rounding level.
Guarded rows are redrawn through the same plan
(_redraw): a replicate's rejected samples are replaced by uniform draws
from a PCG64 stream of its own redraw seed until none is rejected.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConfigError, SamplingError
from .graphs import KGraph, serialize
from .weights import stable_seed

# independent replicates per integral; their spread gives the std_error
N_REPLICATES = 32

_GUARD = 1e-12

# rows per integrand block: blocks of a few thousand rows cost least per row
_BLOCK_ROWS = 8192


# ---------------------------------------------------------------------------
# the propagator: the angle form dphi on the upper half plane
# ---------------------------------------------------------------------------

def angle_form(dx, ym, yp, ia, ib):
    """(Re A, Im A, d_wy) of dphi from dx = x_z - x_w, ym = y_z - y_w,
    yp = y_z + y_w, ia = 1/(dx^2 + ym^2) and ib = 1/(dx^2 + yp^2).

    The propagator angle phi(z, w) = arg((z - w)(z - wbar)) of two points
    of the closed upper half plane H is the angle at z between the
    geodesics to w and to its mirror image wbar.  Its differential is a
    single-valued 1-form even though phi jumps across a branch cut, and
    it has no normal component on the real axis (Neumann).  Since
    Q = (z - w)(z - wbar) is holomorphic in z,

        dphi = Im(A) dx_z + Re(A) dy_z - Im(A) dx_w + d_wy dy_w,

    with A = d_z log Q = 1/(z - w) + 1/(z - wbar), two simple poles:

        Re A = dx (ia + ib),   Im A = -(ym ia + yp ib),
        d_wy = 2 y_w Im(1/Q) = dx (ib - ia),

    as 2 i y_w / Q = 1/(z - w) - 1/(z - wbar).  At a ground y_w = 0,
    ia = ib and d_wy is exactly 0; the x_w coefficient is minus the x_z
    one, as phi is invariant under a common real translation.

    Only +, -, * and unary minus: elementwise over floats or arrays, and
    _Plan compiles it over symbolic entries.  No domain checks.
    """
    return dx * (ia + ib), -(ym * ia + yp * ib), dx * (ib - ia)


def source_form(dx, sy, out=None, *, apart=False):
    """F(a, b) = int_H dphi(z, a) ^ dphi(z, b), z over H in dx ^ dy, from
    a - bbar = dx + i sy (dx = x_a - x_b, sy = y_a + y_b):

        F(a, b) = 4 pi arg(a - bbar) - 2 pi^2,

    arg(a - bbar) = arctan2(sy, dx) in [0, pi], by Stokes on
    phi(z, a) dphi(z, b) with phi(a, b) - phi(b, a) = 2 arg(a - bbar).
    F(0, 1) = 2 pi^2 is the order-1 weight 1/2, F(a, a) = 0, and the
    mirror z -> 1 - zbar negates F.  _Plan integrates every source
    vertex out with it.

    a, b lie in the closed half plane; a = b gives 0, including a = b on
    the axis, where arg is undefined.  apart=True promises a - bbar != 0
    on every element whose value counts (a or b aerial, or two distinct
    fixed grounds) and skips the search for a = b.  Elementwise over
    arrays or scalars, into out when given; no domain checks.
    """
    f = np.multiply(4.0 * math.pi, np.arctan2(sy, dx, out=out), out=out)
    f = np.subtract(f, 2.0 * math.pi ** 2, out=out)
    if apart or np.min(sy) > 0 or np.count_nonzero(dx) == np.size(dx):
        return f                # a - bbar != 0 everywhere
    zero = np.logical_and(np.equal(dx, 0), np.equal(sy, 0))
    return np.positive(np.where(zero, 0.0, f), out=out)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _laplace(e, k: int):
    """det of the k x k matrix whose entry (i, j) is e(i, j), by Laplace
    expansion in +, - and * alone: along the top row while an odd number
    of rows is left, along the top two rows (each 2 x 2 minor times its
    complement) while an even number is left, every sum left to right in
    column order.  An integrand plan passes _Terms: a factor that is the
    structural zero _ZERO (an entry, or a 2 x 2 minor without a product
    of two nonzero entries) is skipped before its complement is
    expanded, and a matrix whose expansion keeps no term gives _ZERO."""
    return _minor(e, {}, 0, tuple(range(k)))


def _minor(e, memo, r, cols):
    """det of _laplace's rows r.. and columns cols, each expanded once:
    memo maps (r, cols) to its value."""
    if (r, cols) in memo:
        return memo[r, cols]
    if len(cols) % 2:                           # along row r
        terms = ((i, (a,), e(r, a)) for i, a in enumerate(cols))
    else:                                       # along rows r, r + 1
        terms = ((i + j + 1, (a, b),
                  e(r, a) * e(r + 1, b) - e(r, b) * e(r + 1, a))
                 for (i, a), (j, b) in itertools.combinations(
                     enumerate(cols), 2))
    total = None
    for parity, used, factor in terms:
        if factor is _ZERO:
            continue
        rest = tuple(c for c in cols if c not in used)
        term = factor * _minor(e, memo, r + len(used), rest) if rest \
            else factor
        if total is None:
            total = -term if parity % 2 else term
        else:
            total = total - term if parity % 2 else total + term
    memo[r, cols] = _ZERO if total is None else total
    return memo[r, cols]


# ---------------------------------------------------------------------------
# scrambled Sobol' points
# ---------------------------------------------------------------------------

_SOBOL_BITS = 30                        # scipy's default resolution
# 2^(29-k): the value of matrix column k, and of output bit 29-k
_BIT_VALUES = np.uint32(1) << np.arange(29, -1, -1, dtype=np.uint32)
# where an LMS matrix keeps its random bits; scipy sets the diagonal to 1
_STRICT_LOWER = np.tril(np.ones((_SOBOL_BITS, _SOBOL_BITS), np.float32), -1)

MAX_DIMS = 32                           # the most dimensions qmc samples
# Joe and Kuo's (2008) parameters of Sobol' dimensions 2..MAX_DIMS as scipy
# ships them: (primitive polynomial, leading and constant bits set; m_1..m_s)
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)


@functools.lru_cache(maxsize=None)
def _direction_bits(dims: int, k: int) -> np.ndarray:
    """Bits of the unscrambled direction numbers v_j = m_j 2^(29-j),
    j < k, shape (dims, 30, k), bit 29-p in row p.  The first dimension
    has every m_j = 1; the others follow Joe and Kuo's recurrence."""
    if dims > MAX_DIMS:
        raise ConfigError(f"qmc sampling covers at most {MAX_DIMS} "
                          f"dimensions, got {dims}; use method mc")
    if k > _SOBOL_BITS:     # later columns would be all zero: points repeat
        raise ConfigError(f"qmc sampling draws at most 2^{_SOBOL_BITS} "
                          f"points per replicate, got up to 2^{k}; "
                          f"lower the sample budget")
    m = np.ones((dims, k), dtype=np.uint32)
    for d, (poly, init) in enumerate(_JOE_KUO[:dims - 1], start=1):
        s, mj = len(init), list(init)
        for j in range(s, k):
            new = mj[j - s]
            for i in range(1, s + 1):
                if poly >> (s - i) & 1:
                    new ^= mj[j - i] << i
            mj.append(new)
        m[d] = mj[:k]
    v = m << np.arange(29, 29 - k, -1, dtype=np.uint32)
    vb = ((v[:, None] & _BIT_VALUES[:, None]) != 0).astype(np.float32)
    vb.setflags(write=False)
    return vb


def _scramble(dims: int, seeds, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Digital shift (the first point) and the first k scrambled direction
    numbers of qmc.Sobol(d=dims, scramble=True, seed=s) for each seed, as
    uint32 arrays of shape (len(seeds), dims) and (len(seeds), dims, k)."""
    vb = _direction_bits(dims, k)
    # scipy draws dims shift rows, then dims 30-row LMS matrices, as
    # default_rng(s).integers(0, 2, ..., np.uint32): the top bit of each
    # 32-bit half of a PCG64 word, low half first
    bits = np.empty((len(seeds), dims * 31 * _SOBOL_BITS), dtype=np.uint8)
    for i, s in enumerate(seeds):
        raw = np.random.PCG64(s).random_raw(bits.shape[1] // 2)
        bits[i] = raw.astype("<u8", copy=False).view("<u4") >> np.uint32(31)
    bits = bits.reshape(len(seeds), dims * 31, _SOBOL_BITS)
    lms = bits[:, dims:].reshape(-1, dims, _SOBOL_BITS, _SOBOL_BITS)
    # scrambled v_j: bit 29-p is row p of (LMS @ v_j's bits) mod 2; the
    # float32 sums count at most 30 ones, so they are exact
    sv = _BIT_VALUES @ (((lms * _STRICT_LOWER) @ vb + vb).astype(np.uint8) & 1)
    return bits[:, :dims] @ _BIT_VALUES[::-1], sv


def _reflect(start: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Gray-code table along a new last axis, by reflection from T[0] =
    start: T[h:2h] = T[h-1::-1] ^ dirs[..., b] for h = 2^b."""
    t = np.empty(start.shape + (1 << dirs.shape[-1],), dtype=np.uint32)
    t[..., 0] = start
    for b in range(dirs.shape[-1]):
        h = 1 << b
        np.bitwise_xor(t[..., h - 1::-1], dirs[..., b, None],
                       out=t[..., h:2 * h])
    return t


def _draws(method: str, dims: int, seeds, per_rep: int):
    """fill(first, start, cols) writes points start..start+rows-1 of the
    replicate seeds first..first+n-1 into cols, shape (dims, n, rows);
    a seed's points must be asked for in order (mc reads one stream).

    qmc writes qmc.Sobol(d=dims, scramble=True, seed=s).random(per_rep)
    bit for bit, from one _scramble of every seed.  With k = lo + hi
    bits, point i = h 2^lo + l in Gray-code order is high[h] ^ low[l],
    as gray(i) = gray(h) 2^lo ^ gray(l) ^ (h & 1) 2^(lo-1): low reflects
    the first lo directions from 0, high the rest, each XOR direction
    lo-1, from the shift.  A run of whole high rows is one broadcast
    XOR; a part of one row costs one more (a chunk's stop, or past 2^26
    points per replicate its start, can fall off a multiple of 2^lo)."""
    if method == "mc":
        gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

        def fill(first, start, cols):
            for gen, col in zip(gens[first:], cols.swapaxes(0, 1)):
                np.copyto(col, gen.random(col.shape[::-1]).T)
        return fill
    k = (per_rep - 1).bit_length()
    shift, sv = _scramble(dims, seeds, k)
    shift, sv = shift.T, sv.transpose(1, 0, 2)      # dims leading
    lo = k - k // 2
    low = _reflect(np.zeros_like(shift), sv[..., :lo])
    high = _reflect(shift, sv[..., lo:] ^ sv[..., lo - 1:lo])
    nl = low.shape[-1]

    def fill(first, start, cols):
        n, stop = cols.shape[1], start + cols.shape[2]
        hi_t, lo_t = high[:, first:first + n], low[:, first:first + n]
        a = min(stop, -(-start // nl) * nl)         # whole rows in [a, b)
        b = max(a, stop // nl * nl)
        for p, q in ((start, a), (b, stop)):
            if p < q:
                np.bitwise_xor(hi_t[..., p // nl, None],
                               lo_t[..., p % nl:p % nl + q - p],
                               out=cols[..., p - start:q - start])
        np.bitwise_xor(hi_t[..., a // nl:b // nl, None], lo_t[..., None, :],
                       out=cols[..., a - start:b - start].reshape(
                           dims, n, -1, nl))
        np.multiply(cols, 2.0 ** -_SOBOL_BITS, out=cols)
    return fill


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------

def _sources(graph: KGraph) -> tuple[int, ...]:
    """Aerial vertices that the integrand integrates out in closed form:
    out-degree 2 and no incoming edge.  Empty when every aerial vertex is
    one (the derivative-free graphs keep their sampled integrand and
    spread)."""
    hit = {t for targets in graph.out_edges for t in targets}
    found = tuple(v for v, targets in enumerate(graph.out_edges)
                  if len(targets) == 2 and v not in hit)
    return () if len(found) == graph.n else found


def sampled_dims(graph: KGraph) -> int:
    """Dimensions the integrand samples: 2 per aerial vertex that is not
    a source, plus the m - 2 moving grounds."""
    return 2 * (graph.n - len(_sources(graph))) + graph.m - 2


class _Term:
    """A symbolic value in an integrand plan: sign * 2^exp times the value
    of node, an id in the plan's node table ids (hash-consed: a leaf key,
    or an operation on two ids, maps to the id of its first occurrence),
    or node None for a structural zero, which products absorb and sums
    drop.  Dropping changes at most the sign of an exactly zero result,
    and only when every kept term is zero (see _Plan).

    Signs and doublings stay outside the node: -a is a's node with the
    other sign, a + a is a's node with exp + 1, -a + b is sub(b, a).  In
    round-to-nearest, fl(-x) = -fl(x) and fl(2x) = 2 fl(x) for every +, -
    and * (barring overflow and subnormal results), so the computed
    node scaled by sign * 2^exp is the value an explicit negation or
    doubling would give.  The one exception is the sign of an exact
    zero: where a = -b, or a and b are zeros of opposite sign,
    (-a) + (-b) is +0 but -(a + b) is -0.  A zero's sign can change a
    product or a later sum only in the sign of another zero, so the
    integrand can differ only in the sign of a value that is exactly
    zero, which adds nothing to a mean.  Random and Sobol' rows show no
    such case; rows on the lattice {0, 1/4, 1/2, 3/4}^k do, in graphs
    whose determinant cancels exactly there."""
    __slots__ = ("ids", "node", "sign", "exp")

    def __init__(self, ids, node, sign=1, exp=0):
        self.ids, self.node, self.sign, self.exp = ids, node, sign, exp

    def __mul__(self, other):
        if self.node is None or other.node is None:
            return _ZERO
        return _Term(self.ids, _intern(self.ids, "mul", self.node, other.node),
                     self.sign * other.sign, self.exp + other.exp)

    def __add__(self, other):
        return self._sum(other, other.sign)

    def __sub__(self, other):
        return self._sum(other, -other.sign)

    def __neg__(self):
        return self if self.node is None else _Term(
            self.ids, self.node, -self.sign, self.exp)

    def _sum(self, other, sign):
        """self + sign * |other|, where |other| is other without its sign."""
        if other.node is None:
            return self
        if self.node is None:
            return _Term(other.ids, other.node, sign, other.exp)
        exp = min(self.exp, other.exp)
        a, b = self._node_at(exp), other._node_at(exp)
        if self.sign == sign:
            if a == b:                          # a + a = 2a, exactly
                return _Term(self.ids, a, sign, exp + 1)
            return _Term(self.ids, _intern(self.ids, "add", a, b), sign, exp)
        if self.sign < 0:
            a, b = b, a                         # -a + b = b - a
        return _Term(self.ids, _intern(self.ids, "sub", a, b), 1, exp)

    def _node_at(self, exp):
        """The node of this value over sign * 2^exp, exp <= self.exp.  A
        Laplace term takes one entry per row, and each row's entries
        share one exp, so a plan's sums never need the doubling here."""
        node = self.node
        for _ in range(self.exp - exp):
            node = _intern(self.ids, "add", node, node)
        return node


def _intern(ids, op, a, b):
    """The id of op(a, b) in the node table ids; add and mul are
    commutative in floating point, so their operands are ordered."""
    key = (op, a, b) if op == "sub" or a <= b else (op, b, a)
    return ids.setdefault(key, len(ids))


_ZERO = _Term(None, None)
_UFUNCS = {"mul": np.multiply, "add": np.add, "sub": np.subtract}


class _Plan:
    """One graph's integrand, laid out once and evaluated in blocks of at
    most `rows` sample rows in one workspace allocated here.

    Row r of the form matrix M is the r-th edge of a sampled vertex; its
    nonzero entries are Im A and Re A in the source's columns, -Im A and
    d_wy in an aerial target's, -Im A in a moving ground's: angle_form over
    x_i, y_i and distances shared with the guard, of point i to ground g
    (dx = x_i - g, 1/r^2) and of points i < j (dx, y_i -+ y_j, both
    1/|d|^2; dx, y_i - y_j negated for the edge j -> i).  The guard
    rejects |d|^2 < _GUARD^2, skipping a mirror distance no edge reads
    (|z_i - zbar_j| >= |z_i - z_j| once y > 0).

    The entries and det M (_laplace's expansion less its structurally
    zero terms) compile to ufunc calls on the workspace's slots, equal
    subterms once (_compile).  Signs and doublings are folded into the
    _Terms, so the program has no negation and no a + a (the two poles
    of a form at a ground are equal, so a ground row is twice its
    computed values); det M's sign * 2^exp folds into the exact constant
    jac is divided by, k_move! / (sign * 2^exp).  An expansion with no
    term left binds the root 0.0 and compiles no call.  Floats equal
    the dense evaluation's: on a row that passes the guard a dropped
    term is +-0, which can change a sum only in the sign of an exact
    zero; the folding is exact up to overflow, subnormal results and the
    zero sign _Term describes.

    Each block length binds its calls once (_bind): one list of (ufunc or
    function, operands ending in the output) over views of the
    workspace, covering the ground sorting network, the point map and
    Jacobian, the guard's squared distances and mask, the source factors
    (source_form, one call each; it looks for a = bbar only
    when both targets are grounds and one of them moves) and the
    program.  _block makes those calls and
    writes det M x jac to out."""

    def __init__(self, graph: KGraph, rows: int):
        n, m = graph.n, graph.m
        sources = _sources(graph)
        # sampled aerial vertices in order; point[v] is v's column pair
        point = {v: i for i, v in enumerate(
            v for v in range(n) if v not in sources)}
        ns, k_move = len(point), m - 2
        k = 2 * ns + k_move
        self.graph, self.dims, self.rows = graph, k, rows
        self.ns, self.m, self.k_move = ns, m, k_move

        def where(tgt):     # ("z", point) or ("g", ground index)
            return ("z", point[tgt]) if tgt < n else ("g", tgt - n)

        self.sources = [tuple(map(where, graph.out_edges[v]))
                        for v in sources]
        # each sampled edge: (source point, target, {column: kind})
        self.edges = []
        for v, ci in point.items():
            for tgt in graph.out_edges[v]:
                cols = {2 * ci: "im", 2 * ci + 1: "re"}
                if tgt < n:
                    cols[2 * point[tgt]] = "nim"
                    cols[2 * point[tgt] + 1] = "dwy"
                elif 0 < tgt - n < m - 1:
                    cols[2 * ns + (k_move - (tgt - n))] = "nim"
                self.edges.append((ci, where(tgt), cols))

        ids = {}
        entries = self._entries(ids)
        root = _laplace(lambda r, c: entries.get((r, c), _ZERO), k)
        self.scale = float(root.sign << root.exp)
        self.program = self._compile(list(ids), root)

        # one workspace per plan, so malloc sees one block to keep for the
        # next plan (glibc raises its mmap threshold past a freed chunk):
        # columns, jac, den, tmp, two temporaries, slots.  It starts on a
        # 64-byte cache line: malloc's offset within a line varies with
        # whatever was allocated before, and the block's ufuncs ran up to
        # 15% slower on misaligned rows
        n_f = (k + 5 + self.n_slots) * rows
        ws = np.empty(n_f + rows // 4 + 9)
        ws = ws[-ws.ctypes.data % 64 // 8:]
        flt = ws[:n_f].reshape(-1, rows)
        self.ut = flt[:k]                       # one column per sample
        self.jac, self.den, self.tmp, *self.temps = flt[k:k + 5]
        self.slots = flt[k + 5:]
        self.bad, self.btmp = ws[n_f:].view(bool)[:2 * rows].reshape(2, rows)
        self._bound = {rows: self._bind(rows)}

    def _entries(self, ids):
        """M's nonzero entries as _Terms by (row, column), their nodes in
        the table ids."""
        def leaf(*key):
            return _Term(ids, ids.setdefault(key, len(ids)))

        entries = {}
        for r, (ci, (kind, j), cols) in enumerate(self.edges):
            if kind == "g":
                y, inv = leaf("y", ci), leaf("gi", ci, j)
                re, im, d_wy = angle_form(leaf("x", ci) if j == 0 else leaf(
                    "gdx", ci, j), y, y, inv, inv)
            else:
                pair = tuple(sorted((ci, j)))
                dx, ym, yp, ia, ib = (leaf(name, *pair) for name in
                                      ("pdx", "pym", "pyp", "pia", "pib"))
                if ci > j:
                    dx, ym = -dx, -ym
                re, im, d_wy = angle_form(dx, ym, yp, ia, ib)
            forms = {"im": im, "re": re, "nim": -im, "dwy": d_wy}
            entries.update(((r, c), forms[f]) for c, f in cols.items())
        return entries

    def _compile(self, nodes, root):
        """Ufunc calls (ufunc, operands, output) evaluating the _Term root,
        post-order without repeats, on slots numbered: the columns x_i,
        y_i (self.cols), the distance leaves (self.kept), then registers;
        a leaf's or register's slot is reused once it is dead.  nodes
        lists the node table's keys by id.  The root stays unscaled in
        its slot (self.root), None when no term is left (det M = 0)."""
        order, seen = [], bytearray(len(nodes))

        def visit(i):
            if not seen[i]:
                seen[i] = 1
                key = nodes[i]
                if key[0] in _UFUNCS:
                    visit(key[1])
                    visit(key[2])
                order.append(i)

        if root.node is not None:
            visit(root.node)
        calls = [i for i in order if nodes[i][0] in _UFUNCS]
        cols = [i for i in order if nodes[i][0] in ("x", "y")]
        kept = [i for i in order if nodes[i][0] not in _UFUNCS
                and nodes[i][0] not in ("x", "y")]
        self.cols = [nodes[i] for i in cols]
        self.kept = {nodes[i]: j for j, i in enumerate(kept)}
        base = len(cols)
        slot = [None] * len(nodes)
        for j, i in enumerate(cols):
            slot[i] = j
        for j, i in enumerate(kept):
            slot[i] = base + j
        last = [-1] * len(nodes)
        for pos, i in enumerate(calls):
            last[nodes[i][1]] = last[nodes[i][2]] = pos
        free, program, top = [], [], base + len(self.kept)
        for pos, i in enumerate(calls):
            op, a, b = nodes[i]
            free += [slot[arg] for arg in {a, b} if last[arg] == pos
                     and slot[arg] >= base]
            if not free:
                free.append(top)
                top += 1
            slot[i] = free.pop()
            program.append((_UFUNCS[op], (slot[a], slot[b]), slot[i]))
        self.n_slots = top - base
        self.root = None if root.node is None else slot[root.node]
        return program

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Integrand values of unit-cube sample rows u into out; NaN marks
        rejected rows."""
        step = self.rows
        with np.errstate(all="ignore"):
            for c in range(0, len(u), step):
                rows = u[c:c + step]
                np.copyto(self.ut[:, :len(rows)], rows.T)
                self._block(out[c:c + step])
        return out

    def _block(self, out):
        """Integrand values of the first len(out) samples in ut, one per
        column, into out; ut is overwritten.  Floating-point errors are
        the caller's to silence (np.errstate): a guarded row may divide
        by zero."""
        r = len(out)
        bound = self._bound.get(r)
        if bound is None:       # keep the full length and the latest other
            bound = self._bind(r)
            self._bound = {self.rows: self._bound[self.rows], r: bound}
        calls, root, jac, bad, btmp = bound
        for f, args in calls:
            f(*args)
        np.multiply(root, jac, out=out)
        np.isfinite(out, out=btmp)
        np.logical_not(btmp, out=btmp)
        np.logical_or(bad, btmp, out=bad)
        np.copyto(out, np.nan, where=bad)

    def _bind(self, r):
        """The calls of a block of r samples, with every operand a view of
        the workspace or a constant: (calls, root, jac, bad, btmp), where
        calls leave det M / (sign * 2^exp) in root and the rest of the
        integrand times sign * 2^exp in jac, and bad marks the guarded
        rows."""
        calls, ns, m, k_move = [], self.ns, self.m, self.k_move

        def call(f, *args):
            calls.append((f, args))
            return args[-1]

        ut = self.ut[:, :r]
        # moving grounds in ascending position: a compare-exchange network
        tg, lo = ut[2 * ns:], self.tmp[:r]
        for end in range(k_move - 1, 0, -1):
            for j in range(end):
                call(functools.partial(np.minimum, out=lo), tg[j], tg[j + 1])
                call(functools.partial(np.maximum, out=tg[j + 1]), tg[j],
                     tg[j + 1])
                call(np.copyto, tg[j], lo)

        jac, den, tmp = self.jac[:r], self.den[:r], self.tmp[:r]
        xs, ys = ut[0:2 * ns:2], ut[1:2 * ns:2]
        for i in range(ns):
            x, y = xs[i], ys[i]                 # from s and t, in place
            call(np.subtract, x, 0.5, x)
            call(np.multiply, np.pi, x, x)
            call(np.tan, x, x)
            omt = tmp if i else den             # 1 - t
            call(np.subtract, 1.0, y, omt)
            call(np.divide, y, omt, y)
            # Jacobian: prod pi (1 + x^2) / prod (1 - t), squared
            if i:
                call(np.multiply, den, tmp, den)
            term = tmp if i else jac
            call(np.multiply, x, x, term)
            call(np.add, 1.0, term, term)
            call(np.multiply, np.pi, term, term)
            if i:
                call(np.multiply, jac, tmp, jac)
        call(np.multiply, den, den, den)
        call(np.divide, jac, den, jac)

        def ground(g):
            return 0.0 if g == 0 else 1.0 if g == m - 1 else tg[g - 1]

        bad, btmp = self.bad[:r], self.btmp[:r]
        call(np.isfinite, jac, bad)
        call(np.logical_not, bad, bad)
        for i in range(ns):
            call(np.less_equal, ys[i], 0.0, btmp)
            call(np.logical_or, bad, btmp, bad)

        # each squared distance once: the guard tests it, and a kept one
        # becomes its leaf 1/|d|^2; what no call reads goes to temporaries
        g2, index = _GUARD * _GUARD, self.kept
        slots = self.slots[:, :r]
        t0, t1, t2, t3 = den, tmp, self.temps[0][:r], self.temps[1][:r]

        def at(key, temp):
            return slots[index[key]] if key in index else temp

        def near(key, base2, v, temp):      # |d|^2 = base2 + v^2
            d2 = call(np.multiply, v, v, at(key, temp))
            call(np.add, base2, d2, d2)
            call(np.less, d2, g2, btmp)
            call(np.logical_or, bad, btmp, bad)
            if key in index:
                call(np.divide, 1.0, d2, d2)

        for i in range(ns):
            y2 = call(np.multiply, ys[i], ys[i], t0)
            for g in range(m):
                dx = xs[i] if g == 0 else call(
                    np.subtract, xs[i], ground(g), at(("gdx", i, g), t1))
                near(("gi", i, g), y2, dx, t2)
            for j in range(i + 1, ns):
                dx = call(np.subtract, xs[i], xs[j], at(("pdx", i, j), t0))
                ym = call(np.subtract, ys[i], ys[j], at(("pym", i, j), t1))
                dx2 = call(np.multiply, dx, dx, t2)
                near(("pia", i, j), dx2, ym, t3)
                if ("pib", i, j) in index:
                    yp = call(np.add, ys[i], ys[j], at(("pyp", i, j), t1))
                    near(("pib", i, j), dx2, yp, t3)

        # a source's two rows are the only entries in its two columns, so
        # det M = det B_v det M' with M' free of z_v, and z_v integrates
        # to source_form (Laplace expansion; sign +1)
        def coords(where):
            kind, j = where
            return (xs[j], ys[j]) if kind == "z" else (ground(j), 0.0)

        divisor = math.factorial(k_move) / self.scale      # exact
        if divisor != 1.0:
            call(np.divide, jac, divisor, jac)
        for a, b in self.sources:
            (xa, ya), (xb, yb) = coords(a), coords(b)
            # a = bbar needs two grounds, one of them moving: an aerial
            # target has y > 0 on every unguarded row
            apart = "z" in (a[0], b[0]) or {a[1], b[1]} == {0, m - 1}
            call(functools.partial(source_form, apart=apart),
                 call(np.subtract, xa, xb, t0), call(np.add, ya, yb, t1), t2)
            call(np.multiply, jac, t2, jac)

        bufs = [ut[2 * i + (name == "y")] for name, i in self.cols] + \
            list(slots)
        for ufunc, (a, b), dst in self.program:
            call(ufunc, bufs[a], bufs[b], bufs[dst])
        root = 0.0 if self.root is None else bufs[self.root]
        return calls, root, jac, bad, btmp


# ---------------------------------------------------------------------------
# the deterministic rule for 2 sampled dimensions
# ---------------------------------------------------------------------------

# the rule's s panels: the grounds 0 and 1 map to (s, t) = (1/2, 0) and
# (3/4, 0), so each is a panel corner
_RULE_CUTS = (0.0, 0.5, 0.625, 0.75, 1.0)
# Gauss-Legendre nodes per axis and panel: the coarse level, then the fine
_RULE_LEVELS = (64, 96)


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [0, 1],
    nodes ascending: Newton's method on the three-term recurrence from
    Tricomi's estimates, in elementwise arithmetic alone (no LAPACK)."""
    x = -np.cos(np.pi * (np.arange(1, q + 1) - 0.25) / (q + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, q + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = q * (x * p1 - p0) / (x * x - 1)    # P_q'(x)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return (1 + x) / 2, 1 / ((1 - x * x) * dp * dp)


@functools.lru_cache(maxsize=None)
def _rule_axes(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """(s, ws, t, wt): the level-q product rule on the unit square, whose
    nodes are (s_i, t_j) with weight ws_i wt_j; s runs over every panel
    of _RULE_CUTS in order, q nodes each, and t over [0, 1].  Each axis
    of a panel maps Gauss-Legendre nodes through u -> u^3 / (u^3 +
    (1-u)^3), which grades them toward both ends: near a ground, and
    near the corners (0, 1) and (1, 1) that hold infinity, the
    integrand goes like 1/r, and the grading's Jacobian cancels it."""
    x, w = _gauss_legendre(q)
    a, b = x ** 3, (1 - x) ** 3
    t = a / (a + b)
    wt = w * 3 * (x * (1 - x)) ** 2 / (a + b) ** 2
    cuts = np.array(_RULE_CUTS)
    width = np.diff(cuts)[:, None]
    axes = ((cuts[:-1, None] + width * t).ravel(), (width * wt).ravel(),
            t, wt)
    for axis in axes:
        axis.setflags(write=False)
    return axes


def _cubature(graph: KGraph) -> tuple[float, float, int]:
    """Raw form integral of a graph with 2 sampled dimensions (one
    sampled aerial point, grounds at 0 and 1) by the product rule of
    _rule_axes at each of _RULE_LEVELS, on the sampler's (s, t) square;
    returns (value, error, nodes evaluated).  The value is the fine
    level's; the error is |fine - coarse|, a deterministic estimate (it
    overstates the fine level's error, which falls about as q^-6), at
    least the bound (N - 1) eps sum|w f| on rounding in the fine level's
    sum of N terms.  A block holds whole rows of constant s; the sums
    are elementwise products and numpy's pairwise sums, never a BLAS
    dot, so they do not depend on BLAS threads.  A guarded node raises
    SamplingError."""
    plan = _Plan(graph, _BLOCK_ROWS)
    sums, used = [], 0
    for q in _RULE_LEVELS:
        s, ws, t, wt = _rule_axes(q)
        # s nodes per block: equal blocks, so each level binds one length
        step = max(d for d in range(1, _BLOCK_ROWS // q + 1)
                   if len(s) % d == 0)
        rows, mags = np.empty(len(s)), np.empty(len(s))
        vals = np.empty((step, q))
        with np.errstate(all="ignore"):     # guarded nodes may divide by 0
            for c in range(0, len(s), step):
                np.copyto(plan.ut[0, :step * q].reshape(step, q),
                          s[c:c + step, None])
                np.copyto(plan.ut[1, :step * q].reshape(step, q), t)
                plan._block(vals.reshape(-1))
                np.multiply(vals, wt, out=vals)
                np.sum(vals, axis=1, out=rows[c:c + step])
                np.abs(vals, out=vals)
                np.sum(vals, axis=1, out=mags[c:c + step])
        if np.isnan(rows).any():
            raise SamplingError(f"a rule node for {serialize(graph)} "
                                "fell inside the coincidence guard")
        sums.append(float(np.sum(np.multiply(rows, ws, out=rows))))
        used += len(s) * q
    rounding = (len(s) * q - 1) * np.finfo(float).eps * float(
        np.sum(np.multiply(mags, ws, out=mags)))
    return sums[-1], max(abs(sums[-1] - sums[0]), rounding), used


def _redraw(plan: _Plan, vals: np.ndarray, seed: int) -> None:
    """Refill one replicate's guarded values (NaN in vals) in place with
    the plan's values at fresh uniform draws from PCG64(seed), round by
    round until none is left."""
    gen = np.random.Generator(np.random.PCG64(seed))
    bad = np.isnan(vals)
    for _ in range(64):
        fresh = gen.random((int(bad.sum()), plan.dims))
        vals[bad] = plan(fresh, np.empty(len(fresh)))
        bad = np.isnan(vals)
        if not bad.any():
            return
    raise SamplingError(f"sample redraws for {serialize(plan.graph)} "
                        "failed to escape the guard")


def integrate(graph: KGraph, method: str, total: int, seed: int
              ) -> tuple[float, float, int]:
    """Raw form integral of a graph of positive form degree (checked by
    weights.integrate_graph_form); returns (value, std_error, n_samples).
    method_of(graph, method) names the method: "cubature" (_cubature,
    which reads neither total nor seed) or method (_sample)."""
    if method_of(graph, method) == "cubature":
        return _cubature(graph)
    return _sample(graph, method, total, seed)


def method_of(graph: KGraph, method: str) -> str:
    """The method integrate applies to graph when asked for method: the
    deterministic rule, "cubature", for 2 sampled dimensions."""
    return "cubature" if sampled_dims(graph) == 2 else method


def _sample(graph: KGraph, method: str, total: int, seed: int
            ) -> tuple[float, float, int]:
    """Raw form integral by method, from total // N_REPLICATES points per
    replicate (at least one), replicate r seeded by stable_seed(seed,
    "rep", r); returns (value, std_error, n_samples)."""
    dims = sampled_dims(graph)
    per_rep = max(1, total // N_REPLICATES)
    rep_seeds = [stable_seed(seed, "rep", r) for r in range(N_REPLICATES)]
    # qmc past the Sobol' caps raises here, before the plan is allocated
    fill = _draws(method, dims, rep_seeds, per_rep)
    group = max(1, min(N_REPLICATES, _BLOCK_ROWS // per_rep))
    plan = _Plan(graph, min(_BLOCK_ROWS, group * per_rep))
    buf = np.empty((group, per_rep))        # one group's values, reused
    means = []
    for first in range(0, N_REPLICATES, group):
        seeds = rep_seeds[first:first + group]
        n, vals = len(seeds), buf[:len(seeds)]
        # a chunk is the whole group or a run of one replicate, drawn
        # into the plan's columns; its values follow the previous
        # chunk's in vals
        rows = vals.reshape(-1)
        with np.errstate(all="ignore"):     # guarded rows may divide by 0
            for c in range(0, per_rep, _BLOCK_ROWS):
                size = min(per_rep - c, _BLOCK_ROWS)
                fill(first, c, plan.ut[:, :n * size].reshape(dims, n, size))
                plan._block(rows[n * c:n * (c + size)])
        for k in np.flatnonzero(np.isnan(vals).any(axis=1)):
            _redraw(plan, vals[k], stable_seed(seeds[k], "redraw"))
        means.extend(vals.mean(axis=1).tolist())
    value = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return value, std_error, per_rep * N_REPLICATES
