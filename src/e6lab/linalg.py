"""Exact linear algebra over Q.

Dense matrices are lists of row lists; sparse vectors are {index: scalar}
dicts and sparse matrices {row: {col: scalar}}, with Fraction or int
entries.  Zero tests are truthiness tests.  Q is the only field, so no
routine takes one: every zero or one a routine writes is the Fraction
`QZERO` or `QONE`.

`rref` is the one elimination: it reduces dense or sparse rows on {col: x}
dicts, so its cost follows the nonzeros, not the width, and it is
fraction-free: each row is cleared of denominators once and made primitive
(`primitive`), and a row is reduced by an echelon row p as a r - b p with
a, b coprime ints, then divided by its content (`_eliminate`).  Only the
result is rational: every entry `rref` returns is a Fraction, one built per
nonzero, for int rows too.  `kernel`, `SpanSolver` and
`IntKernelAccumulator.kernel_basis` read the int rows of the reduced form
(`_reduced_echelon`) before any Fraction is built.  The
reduced row echelon form of a matrix is unique, so every basis it returns
(and `kernel`, `eigenspace`, `mat_inverse`, `SpanSolver` and
`IntKernelAccumulator` on top of it) is deterministic whatever the row
order or the order of elimination.  `rank` takes dense or {col: x} rows
too, and only counts the pivots of the forward elimination, with no
Fraction built.  One span solver (`SpanSolver`)
expresses vectors in a fixed basis on integer rows, one symmetric
congruence elimination (`congruence_diagonalize`) gives both the Witt
pivots and the Sylvester inertia, and one Gram loop (`gram`) evaluates a
bilinear form on lists of vectors.  The congruence elimination runs on sparse symmetric {col: x} rows
and keeps its change of basis as sparse columns, so a step costs time in the
nonzeros it meets; its results are Fractions, `QZERO` for a zero.

Construction runs on Python ints: `int_scaled` turns a rational vector,
rows, a matrix or a table into (common denominator d, entries times d as
ints) once, the sparse helpers (`sp_matvec`, `sp_bracket`,
`sp_trace_product`) keep the type of their inputs, and a Fraction is built
only for a nonzero coefficient that `SpanSolver.int_coordinates` returns:
a construction that holds an int vector with a known scale reads its
sparse coordinates there, with no copy and no dense list.
`IntKernelAccumulator` keeps its kernel as primitive int vectors and
reduces them with the same `_eliminate`: a constraint row is dotted as it
is, and only the dot products of a rational row are cleared of
denominators; its kernel basis comes out as int rows on one scale.

The exact kernels allocate Fractions, dicts and lists by the hundred
thousand, each an object CPython's cyclic garbage collector tracks, so with
the collector on a kernel triggers collections that walk every table the process keeps
and find nothing to free: nothing a kernel drops is held in a reference
cycle, so reference counting frees it at once.  `acyclic` is the one place
the package touches the `gc` module: it pauses the collector for the length
of one construction or certificate call and restores it on every exit.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from .scalars import QONE, QZERO


# ---------------------------------------------------------------------------
# the collector pause


def acyclic(fn):
    """fn, with the cyclic garbage collector paused for the length of each
    call and turned back on when the call returns or raises.

    For a function that drops nothing held in a reference cycle, so that
    reference counting frees everything it drops at once: only cycle
    detection waits.  Re-entrant: when the collector is already off, whether paused
    by an outer decorated call or turned off by the caller, it is left as
    it is, so it is turned back on only at the outermost exit, and never
    for a caller that turned it off.  Under ``lru_cache``, place it below
    the cache, so that a cache hit does not touch the collector.
    """

    @wraps(fn)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return call


# ---------------------------------------------------------------------------
# dense helpers


def zeros(n, m):
    return [[QZERO] * m for _ in range(n)]


def mat_mul(a, b):
    nb = len(b[0])
    bsp = [sparse(row) for row in b]
    out = []
    for arow in a:
        orow = [QZERO] * nb
        for aik, brow in zip(arow, bsp):
            if aik:
                for j, x in brow.items():
                    orow[j] = orow[j] + aik * x
        out.append(orow)
    return out


def gram(m, xs, ys):
    """[[x m y^T for y in ys] for x in xs]: the bilinear form m on two lists
    of row vectors; m, xs and ys are dense or {col: x} rows.

    Only nonzeros are visited: x m is summed over the nonzeros of x and of
    the rows of m they select, and spread over the ys through an index of
    their nonzero columns.  Every entry is a Fraction, `QZERO` for a zero.
    """
    msp = {}
    cols = {}  # column c -> [(j, y_j[c])] over the nonzeros of the ys
    for j, y in enumerate(ys):
        for c, b in sparse(y).items():
            cols.setdefault(c, []).append((j, b))
    out = []
    for x in xs:
        xm = {}
        for i, a in sparse(x).items():
            mrow = msp.get(i)
            if mrow is None:
                mrow = msp[i] = sparse(m[i])
            for c, v in mrow.items():
                if c in cols:
                    xm[c] = xm.get(c, QZERO) + a * v
        orow = [QZERO] * len(ys)
        for c, v in xm.items():
            if v:
                for j, b in cols[c]:
                    orow[j] += v * b
        out.append(orow)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(u, s):
    return [x * s for x in u]


def sparse(v) -> dict:
    """{index: x} for the nonzero entries of a dense list or a dict."""
    return {i: x for i, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}


def lin_comb(coeffs, vectors):
    """sum(c * v) as a dense list, accumulated over the nonzeros only."""
    acc = {}
    for co, v in zip(coeffs, vectors):
        if co:
            sp_add_into(acc, sparse(v), co)
    return [acc.get(j, QZERO) for j in range(len(vectors[0]))]


# ---------------------------------------------------------------------------
# echelon forms, kernels, solving


def rref(rows, ncols=None):
    """Reduced row echelon form of dense rows, or of {col: x} rows of width
    ncols.

    Returns (reduced nonzero rows as dense lists of Fractions, pivot column
    list).  `_reduced_echelon` gives the primitive int rows, each zero at
    every pivot column but its own, and row p is read off as one
    `Fraction(x, lead)` per nonzero entry, lead its entry at the pivot.  The
    reduced echelon form is unique, so the result does not depend on the row
    order, and its entries are Fractions (`QZERO` for a zero) whatever the
    input's types.
    """
    if ncols is None:
        if rows and isinstance(rows[0], dict):
            raise TypeError("rref of dict rows needs ncols")
        ncols = len(rows[0]) if rows else 0
    reduced = _reduced_echelon(rows)
    red = []
    for pc, r in reduced.items():
        lead = r[pc]
        out = [QZERO] * ncols
        for c, x in r.items():
            out[c] = Fraction(x, lead)
        red.append(out)
    return red, list(reduced)


def _reduced_echelon(rows) -> dict:
    """{pivot column: primitive int row} in pivot order for the reduced row
    echelon form of dense or {col: x} rows: row p is the reduced row of
    pivot p times its entry at p, so it is 0 at every other pivot column.

    `_echelon` reduces the rows to primitive int echelon rows;
    back-substitution then clears each pivot column from the rows above it
    on the same int rows.
    """
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # rows below are already reduced, so clearing their pivot columns here
    # brings in no other pivot column
    for pc in reversed(pivots):
        r = echelon[pc]
        for c in [c for c in r if c != pc and c in echelon]:
            r = _eliminate(r, r[c], echelon[c], echelon[c][c])
        echelon[pc] = r
    return {pc: echelon[pc] for pc in pivots}


def _echelon(rows) -> dict:
    """{pivot column: row} for the echelon form of dense or {col: x} rows,
    fraction-free.

    Each row is cleared of denominators once and made primitive, so the
    elimination runs on sparse Python-int rows: a row is reduced at its
    leading column c by the echelon row p already there, as
    a r - b p with a, b coprime (`_eliminate`), or becomes the echelon row
    of c (`echelon_insert`).  Every echelon row is a primitive {col: int}
    row; its entry at the pivot is any nonzero int.
    """
    echelon = {}  # pivot column -> primitive int row with nothing to its left
    for r in rows:
        echelon_insert(echelon, int_scaled(sparse(r))[1])
    return echelon


def echelon_insert(echelon: dict, r: dict):
    """Reduce the {col: int} row r, with no zero entry, against the echelon
    rows {pivot column: row} of `_echelon` (`echelon_reduce`); insert what
    is left at its leading column and return it, or None when r reduces to
    0, that is when it lies in the span of the echelon rows.  r may be
    overwritten."""
    r = echelon_reduce(echelon, r)
    if not r:
        return None
    echelon[min(r)] = r
    return r


def echelon_reduce(echelon: dict, r: dict) -> dict:
    """The {col: int} row r, with no zero entry, made primitive and reduced
    against the echelon rows: {} when r lies in their span, and otherwise a
    primitive row whose leading column holds no echelon row.  r may be
    overwritten."""
    r = primitive(r)
    while r:
        c = min(r)
        p = echelon.get(c)
        if p is None:
            return r
        r = _eliminate(r, r[c], p, p[c])
    return r


def _eliminate(r: dict, x, p: dict, y) -> dict:
    """The int row a r - b p divided by its content, where a = y / g and
    b = x / g for g = gcd(x, y): a linear form that takes r to x and p to y
    vanishes on it, such as the entry at a column where r holds x and p
    holds y.  r is overwritten."""
    g = gcd(x, y)
    a, b = y // g, x // g
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in p.items():
        w = r.get(k, 0) - b * v
        if w:
            r[k] = w
        else:
            del r[k]
    return primitive(r)


def primitive(row):
    """An int row, dense or {col: x}, divided by the gcd of its entries;
    returned as it is when that gcd is 0 or 1."""
    g = gcd(*(row.values() if isinstance(row, dict) else row))
    if g <= 1:
        return row
    if isinstance(row, dict):
        return {k: x // g for k, x in row.items()}
    return [x // g for x in row]


def rank(rows) -> int:
    """Rank of dense rows or of {col: x} rows: the pivots of the
    fraction-free echelon form, so dict rows need no width, nothing is
    back-substituted and no Fraction is built."""
    return len(_echelon(rows))


def kernel(rows, ncols):
    """Canonical basis of {v : rows @ v = 0}, itself in reduced echelon form;
    rows are dense lists or {col: x} dicts.

    A free column fc gives the kernel vector with fc at 1 and -red_p[fc] at
    each pivot p; it goes to `rref` as the int row L e_fc - sum_p
    (L / lead_p) r_p[fc] e_p, L the lcm of the leads of the rows that reach
    fc, read off the int rows of `_reduced_echelon`.
    """
    reduced = _reduced_echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc not in reduced:
            reach = [(pc, r[fc], r[pc]) for pc, r in reduced.items() if fc in r]
            big = lcm(*(lead for _, _, lead in reach))
            v = {fc: big}
            for pc, x, lead in reach:
                v[pc] = -x * (big // lead)
            basis.append(v)
    return rref(basis, ncols)[0]


class SpanSolver:
    """Expresses rational vectors in a fixed, linearly independent basis,
    given by dense rows or by {col: x} rows of width ncols, each row scale
    times its basis vector (scale a positive int, so that int rows on one
    common denominator can be passed as they are).

    The basis, augmented by the identity, is reduced once to the int rows of
    `_reduced_echelon`, and no Fraction is built: a row given as scale * b_i
    is augmented by scale * e_i, scale times the row [b_i | e_i], so the
    reduced form, and the solver, are those of the basis b_i.  Reduced row
    p (1 at its own pivot, 0 at the other pivots) is kept as the int row
    R_p = L * red_p off the pivot columns, and the transform row taking it
    back to the basis as T_p = M * transform_p, with L and M the common
    denominators of the two sets (`_common_scale`).

    `int_coordinates` is the one read: an int query V with a known scale s
    is in the span iff L V - sum_p V[p] R_p is 0, and then the coordinates
    of V / s are sum_p V[p] T_p / (s M), in one pass over the nonzeros of V
    and of the rows it meets, in Python ints.  A rational query is scaled
    to ints by `int_scaled` first.
    """

    def __init__(self, basis, ncols=None, scale: int = 1):
        n = len(basis)
        if ncols is None:
            if basis and isinstance(basis[0], dict):
                raise TypeError("SpanSolver of dict rows needs ncols")
            ncols = len(basis[0]) if n else 0
        aug = []
        for i, b in enumerate(basis):
            row = sparse(b)
            row[ncols + i] = scale
            aug.append(row)
        reduced = _reduced_echelon(aug)
        if len(reduced) != n or (reduced and max(reduced) >= ncols):
            raise ValueError("basis vectors are linearly dependent")
        self.n = n
        red, transform = [], []
        for pc, r in reduced.items():
            red.append({c: x for c, x in r.items() if c < ncols and c not in reduced})
            transform.append({c - ncols: x for c, x in r.items() if c >= ncols})
        leads = [r[pc] for pc, r in reduced.items()]
        self.lcm_red, self.red = _common_scale(red, leads)
        self.lcm_transform, self.transform = _common_scale(transform, leads)
        self._rows = {p: (r, t) for p, r, t in zip(reduced, self.red, self.transform)}

    def int_coordinates(self, vs: dict, scale: int):
        """The nonzero coordinates {j: Fraction} of vs / scale wrt the basis,
        in ascending j, or None if vs is outside its span; vs is an int
        {col: x} vector and scale a positive int.  vs is only read."""
        lcm_red = self.lcm_red
        rows = self._rows
        resid = {}  # L vs - sum_p vs[p] R_p, off the pivot columns
        acc = {}  # sum_p vs[p] T_p
        for c, x in vs.items():
            pr = rows.get(c)
            if pr is None:
                resid[c] = resid.get(c, 0) + lcm_red * x
            else:
                for k, r in pr[0].items():
                    resid[k] = resid.get(k, 0) - x * r
                for j, t in pr[1].items():
                    acc[j] = acc.get(j, 0) + x * t
        if any(resid.values()):
            return None
        den = self.lcm_transform * scale
        return {j: Fraction(acc[j], den) for j in sorted(acc) if acc[j]}


def _common_scale(rows, leads):
    """(L, [L * row / lead for each int row and its lead]) as Python ints, L
    the least common denominator of the rationals row / lead: row / lead is
    in lowest terms over |lead| / gcd(lead, content of row)."""
    big = lcm(*(abs(lead) // gcd(lead, *row.values()) for row, lead in zip(rows, leads)))
    return big, [{c: x * big // lead for c, x in row.items()} for row, lead in zip(rows, leads)]


def int_scaled(x):
    """(d, y): d the least common denominator of the rational entries of x,
    and y the same nest of dicts and lists with every entry times d as a
    Python int.

    x is a dense or sparse vector, or a list or dict of such nests: sparse
    rows, a sparse matrix, a structure-constant table, a list of matrices.
    Entries are Fractions or ints, which both have .numerator and
    .denominator.
    """
    depth = 1
    entries = list(x.values() if isinstance(x, dict) else x)
    while entries and isinstance(entries[0], (dict, list)):
        entries = [e for c in entries for e in (c.values() if isinstance(c, dict) else c)]
        depth += 1
    d = lcm(*{e.denominator for e in entries})
    return d, _times(x, d, depth)


def _times(x, d, depth):
    if depth > 1:
        if isinstance(x, dict):
            return {k: _times(v, d, depth - 1) for k, v in x.items()}
        return [_times(v, d, depth - 1) for v in x]
    if isinstance(x, dict):
        return {k: e.numerator * (d // e.denominator) for k, e in x.items()}
    return [e.numerator * (d // e.denominator) for e in x]


def mat_inverse(a):
    """Inverse of a square matrix, read off the reduced echelon form
    [I | A^-1] of [A | I]."""
    n = len(a)
    aug = []
    for i, row in enumerate(a):
        r = sparse(row)
        r[n + i] = QONE
        aug.append(r)
    red, pivots = rref(aug, 2 * n)
    if pivots and pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def eigenspace(m, lam):
    """Basis of ker(m - lam), m square, given by dense or {col: x} rows."""
    rows = [sparse(row) for row in m]
    for i, r in enumerate(rows):
        sp_add_into(r, {i: QONE}, -lam)
    return kernel(rows, len(m))


def intersect_spans(basis_a, basis_b):
    """Basis of span(basis_a) & span(basis_b)."""
    if not basis_a or not basis_b:
        return []
    ncols = len(basis_a[0])
    na = len(basis_a)
    # row col of [A^T | -B^T]: a kernel vector (c, d) has sum c_i a_i = sum d_j b_j
    rows = [{} for _ in range(ncols)]
    for i, b in enumerate(basis_a):
        for col, x in sparse(b).items():
            rows[col][i] = x
    for j, b in enumerate(basis_b):
        for col, x in sparse(b).items():
            rows[col][na + j] = -x
    combos = kernel(rows, na + len(basis_b))
    return rref([lin_comb(c[:na], basis_a) for c in combos], ncols)[0]


# ---------------------------------------------------------------------------
# symmetric congruence diagonalization (Sylvester inertia) over Q


def congruence_diagonalize(m):
    """(diag, p) with p^T m p = diag(diag), p rational invertible.

    m is symmetric, given by dense rows or {col: x} rows.  Simultaneous
    row/column elimination on sparse symmetric rows.  A zero pivot a_kk is
    swapped with the first later nonzero diagonal entry; when there is none,
    the first nonzero a_ij (i < j, row by row) is repaired by adding row/col
    j into i, which makes the diagonal entry 2*a_ij != 0 over Q; when the
    rest of the matrix is zero, the remaining diagonal entries are 0.  Rows
    and columns before the pivot k are already eliminated and dropped, so
    step k costs time in the nonzeros of row k and of the rows it meets; p
    is kept as sparse columns, and a column operation touches their nonzeros
    only.  Every entry returned is a Fraction, `QZERO` where it is zero.
    """
    n = len(m)
    a = [{c: Fraction(x) for c, x in sparse(row).items()} for row in m]
    pcols = [{c: QONE} for c in range(n)]  # pcols[c]: the nonzeros of column c of p
    diag = [QZERO] * n
    for k in range(n):
        if k not in a[k]:
            swap = next((j for j in range(k + 1, n) if j in a[j]), None)
            if swap is None:
                pair = next(
                    ((i, min(js)) for i in range(k, n) if (js := [j for j in a[i] if j > i])),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                _add_row_col(a, i, j)
                sp_add_into(pcols[i], pcols[j], QONE)
                swap = i
            if swap != k:
                _swap_row_col(a, k, swap)
                pcols[k], pcols[swap] = pcols[swap], pcols[k]
        ak = a[k]
        a[k] = {}
        piv = diag[k] = ak.pop(k)
        # column c -= (a_kc / piv) column k, and the same for rows: the Schur
        # complement a_rc -= a_rk a_kc / piv, nonzero only where a_rk, a_kc are
        fs = [(c, x / piv) for c, x in ak.items()]
        for r, _ in fs:
            ar = a[r]
            x = ar.pop(k)
            for c, fc in fs:
                v = ar.get(c)
                v = -fc * x if v is None else v - fc * x
                if v:
                    ar[c] = v
                else:
                    ar.pop(c, None)
        pk = pcols[k]
        for c, fc in fs:
            sp_add_into(pcols[c], pk, -fc)
    p = [[QZERO] * n for _ in range(n)]
    for c, col in enumerate(pcols):
        for r, x in col.items():
            p[r][c] = x
    return diag, p


def _add_row_col(a, i, j):
    """Add row and column j of the sparse symmetric matrix a into row and
    column i: the new a_ii is a_ii + 2 a_ij + a_jj."""
    ri = a[i]
    new = dict(ri)
    sp_add_into(new, a[j], QONE)
    v = new.get(i, QZERO) + new.get(j, QZERO)
    if v:
        new[i] = v
    else:
        new.pop(i, None)
    for r in set(ri) | set(new):
        if r != i:
            if r in new:
                a[r][i] = new[r]
            else:
                a[r].pop(i, None)
    a[i] = new


def _swap_row_col(a, k, s):
    """Swap rows and columns k and s of the sparse symmetric matrix a."""
    rk, rs = a[k], a[s]
    for r in (set(rk) | set(rs)) - {k, s}:
        row = a[r]
        x, y = row.pop(k, None), row.pop(s, None)
        if x is not None:
            row[s] = x
        if y is not None:
            row[k] = y
    swapped = {k: s, s: k}
    a[k] = {swapped.get(c, c): x for c, x in rs.items()}
    a[s] = {swapped.get(c, c): x for c, x in rk.items()}


def congruence_inertia(m):
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix: the signs
    of the diagonal that `congruence_diagonalize` reaches."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    rows = [sparse(row) for row in m]
    # if a_ij != a_ji, one of them is nonzero and the other row does not match it
    if any(rows[c].get(r) != x for r, row in enumerate(rows) for c, x in row.items()):
        raise ValueError("matrix is not symmetric")
    diag, _ = congruence_diagonalize(rows)
    npos = sum(1 for d in diag if d > 0)
    nneg = sum(1 for d in diag if d < 0)
    return npos, nneg, n - npos - nneg


# ---------------------------------------------------------------------------
# sparse dict vectors / matrices


def sp_add_into(acc: dict, v: dict, coef):
    for k, x in v.items():
        val = acc.get(k)
        val = coef * x if val is None else val + coef * x
        if val:
            acc[k] = val
        else:
            acc.pop(k, None)


def sp_matvec(m: dict, v: dict) -> dict:
    # m: {row: {col: val}} acting on column vector v
    out = {}
    for r, row in m.items():
        acc = None
        for c, x in row.items():
            y = v.get(c)
            if y is not None:
                acc = x * y if acc is None else acc + x * y
        if acc:
            out[r] = acc
    return out


def sp_bracket(a: dict, b: dict, ncols: int) -> dict:
    """The commutator ab - ba of two sparse matrices {row: {col: x}},
    flattened row-major to {row * ncols + col: x}.  Both products are summed
    into that one dict, so the entries keep the type of the inputs' (ints
    stay ints)."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, xrow in x.items():
            base = i * ncols
            for k, u in xrow.items():
                yrow = y.get(k)
                if yrow:
                    su = sign * u
                    for j, v in yrow.items():
                        out[base + j] = out.get(base + j, 0) + su * v
    return {key: v for key, v in out.items() if v}


def sp_trace_product(a: dict, b: dict):
    # tr(a @ b), exact
    acc = None
    for i, arow in a.items():
        for k, x in arow.items():
            brow = b.get(k)
            if brow is None:
                continue
            y = brow.get(i)
            if y is not None:
                acc = x * y if acc is None else acc + x * y
    return acc


def dense_to_sparse(m) -> dict:
    return {i: r for i, row in enumerate(m) if (r := sparse(row))}


# ---------------------------------------------------------------------------
# integer fast machinery for big homogeneous rational systems


class IntKernelAccumulator:
    """Incremental kernel of a growing homogeneous system over Q.

    The basis of the current solution space is kept as primitive integer
    sparse vectors; each new constraint either is already satisfied or cuts
    the dimension by one.  A column index, cols[u] = {vector id: its entry
    at u}, gives the dot products.
    """

    def __init__(self, nunknowns: int):
        self.n = nunknowns
        self.basis: dict[int, dict[int, int]] = {
            u: {u: 1} for u in range(nunknowns)
        }
        self.cols: dict[int, dict[int, int]] = {u: {u: 1} for u in range(nunknowns)}

    def add_constraint(self, row: dict) -> bool:
        """Add one {unknown: Fraction|int} row; True if the dimension dropped.

        The row is dotted as it is with the basis vectors that touch its
        unknowns; it is never stored, so scaling it would only scale the dot
        products.  A row the kernel satisfies, a repeated row among them,
        leaves the basis as it is.  Otherwise the dot products of a rational
        row are cleared of denominators together (`int_scaled`), the first
        vector the row does not annihilate is dropped, and each other one, v,
        becomes the primitive int vector `_eliminate` makes of v and the
        dropped one, which the row annihilates.
        """
        basis, cols = self.basis, self.cols
        dots = {}
        for u, c in row.items():
            if c:
                for vid, x in cols.get(u, {}).items():
                    dots[vid] = dots.get(vid, 0) + c * x
        hit = [(vid, d) for vid, d in dots.items() if d]
        if not hit:
            return False
        hit.sort()
        if not all(type(d) is int for _, d in hit):
            hit = list(zip([vid for vid, _ in hit], int_scaled([d for _, d in hit])[1]))
        pid, pd = hit[0]
        pvec = basis.pop(pid)
        for u in pvec:
            del cols[u][pid]
        for vid, d in hit[1:]:
            newvec = basis[vid] = _eliminate(basis[vid], d, pvec, pd)
            # only an entry where both v and pvec are nonzero can vanish
            for u in pvec:
                if u not in newvec:
                    del cols[u][vid]
            for u, x in newvec.items():
                cols[u][vid] = x
        return True

    def kernel_basis(self):
        """(L, rows): the kernel's basis in reduced echelon form (deterministic)
        as {col: int} rows on one scale, row t = L * (basis vector t) with L
        the least common denominator (`_common_scale`).  The int basis rows
        are reduced by `_reduced_echelon` as they are; no Fraction is built."""
        reduced = _reduced_echelon(list(self.basis.values()))
        return _common_scale(list(reduced.values()), [r[pc] for pc, r in reduced.items()])
