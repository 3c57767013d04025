"""The table of mpmath references follows the draws of ``mpmath_refs``."""

import mpmath_refs


def test_table_holds_each_declared_sweep_on_its_draws():
    # drawn against the table, no mpmath: a changed seed, count or range
    # without a rewritten table fails here (points checks the count and the
    # rows read), and a changed expression or precision fails
    # `python tests/mpmath_refs.py --check`
    assert list(mpmath_refs.table()) == list(mpmath_refs.SWEEPS)
    for name, entry in mpmath_refs.table().items():
        assert mpmath_refs.digest(mpmath_refs.points(name)) == entry["inputs"], name
