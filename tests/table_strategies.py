"""Hypothesis strategies shared by the closure-kernel and screen tests."""

from hypothesis import strategies as st

from aritygap import FiniteFunction, iter_points


def _domain(draw):
    """A (k, n) with k^n <= 256."""
    k = draw(st.integers(2, 4))
    return k, draw(st.integers(0, 5 if k < 4 else 4))


def _table(draw, k, n):
    """A table at (k, n): uniform, over two values, totally symmetric,
    symmetric in x_1 and x_2, with forced fictive positions, or constant."""
    kind = draw(st.sampled_from(("raw", "binary", "symmetric", "pair", "fictive", "constant")))
    points = list(iter_points(k, n))
    top = 1 if kind == "binary" else k - 1
    values = draw(st.lists(st.integers(0, top), min_size=len(points), max_size=len(points)))
    fictive = draw(st.sets(st.integers(0, n - 1))) if n else set()
    canon = {
        "symmetric": lambda p: tuple(sorted(p)),
        "pair": lambda p: tuple(sorted(p[:2])) + p[2:],
        "fictive": lambda p: tuple(0 if i in fictive else c for i, c in enumerate(p)),
        "constant": lambda p: points[0],
    }.get(kind, lambda p: p)
    index = {p: m for m, p in enumerate(points)}
    return tuple(values[index[canon(p)]] for p in points)


@st.composite
def kernel_cases(draw):
    """A function with k^n <= 256 whose table is of one of the kinds above."""
    k, n = _domain(draw)
    return FiniteFunction(k, n, _table(draw, k, n))


@st.composite
def table_chunks(draw):
    """A (k, n) with k^n <= 256 and one to six tables there, each of its
    own kind."""
    k, n = _domain(draw)
    return k, n, [_table(draw, k, n) for _ in range(draw(st.integers(1, 6)))]
