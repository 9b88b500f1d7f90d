"""Reference Smith normal form for integer matrices of any size, on plain
lists of ints: the oracle the library's 2x2 ``lattices._snf2`` is held to.

``smith_normal_form`` pivots on the smallest nonzero entry in absolute
value of the remaining block, the first one in row order, so its
transforms are deterministic and ``_snf2`` must reproduce them exactly.
``matmul`` and ``det`` check its output on any square size.
"""


def smith_normal_form(rows):
    """Return (D, U, V) as tuples of rows with U @ rows @ V = D.

    D is diagonal with nonnegative entries and d1 | d2 | ...; U and V are
    unimodular.  The pivot at each stage is the smallest nonzero entry in
    absolute value of the remaining block, which fixes the reduction path.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        for j in range(n):
            a[dst][j] += c * a[src][j]
            u[dst][j] += c * u[src][j]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    for k in range(n):
        while True:
            # smallest |nonzero| entry of the trailing block becomes the pivot
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
            if piv is None:
                break  # trailing block is zero
            if piv[0] != k:
                swap_rows(k, piv[0])
            if piv[1] != k:
                swap_cols(k, piv[1])
            p = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                q = a[i][k] // p
                if q:
                    add_row(i, k, -q)
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, n):
                q = a[k][j] // p
                if q:
                    add_col(j, k, -q)
                if a[k][j]:
                    dirty = True
            if dirty:
                continue
            # divisibility: fold in any entry the pivot does not divide yet
            witness = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % p:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            add_row(k, witness, 1)
        if a[k][k] < 0:
            for j in range(n):
                a[k][j] = -a[k][j]
                u[k][j] = -u[k][j]

    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(map(tuple, v))


def matmul(*mats):
    """The product of square matrices given as rows, as a tuple of rows."""
    out = mats[0]
    for b in mats[1:]:
        out = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in out
        )
    return tuple(map(tuple, out))


def det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )
