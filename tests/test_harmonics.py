"""Harmonic basis, quadrature and derivative-matrix checks.

The derivative matrices are validated against 5-point central finite
differences of independently evaluated solid harmonics; quadrature exactness
is checked through Gram matrices.  The per-degree store is checked for its
invariant: a matrix is returned only after its degree's self-test passed,
each degree is tested once, and only degrees that are read are tested.  The
self-test's polar-node projection is checked against the full sphere-rule
projection of ``oracles.grid_self_test_projection`` on the same polar nodes,
and both must reject a single perturbed entry; the vectorised ladder builders
are checked against the loop builders of ``oracles``.
"""

import ast
import gc
import math
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from elastoplasmon import cli, harmonics
from elastoplasmon.harmonics import (
    build_quadrature,
    ensure_tables,
    shared_tables,
    sph_harm_stack,
)
from oracles import (
    HarmonicIndex,
    build_s_matrices,
    dmat,
    eval_Y,
    grid_self_test_projection,
    loop_lower_matrices,
    loop_raise_matrices,
    table_sph_harm_stack,
)


def test_constant_harmonic():
    assert eval_Y(HarmonicIndex(0, 0), [0.3, -0.4, math.sqrt(0.75)]) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), abs=1e-14
    )


def test_axial_harmonic_north_pole():
    assert eval_Y(HarmonicIndex(1, 0), [0, 0, 1]) == pytest.approx(math.sqrt(3 / (4 * math.pi)), abs=1e-14)


def test_sectoral_node_at_equator():
    assert abs(eval_Y(HarmonicIndex(2, 1), [1, 0, 0])) < 1e-14


def test_invalid_index_rejected():
    with pytest.raises(ValueError):
        HarmonicIndex(2, 3)


def test_non_unit_direction_rejected():
    with pytest.raises(ValueError):
        eval_Y(HarmonicIndex(1, 0), [0, 0, 1.001])


def test_weights_sum_to_sphere_area():
    q = build_quadrature(4)
    assert abs(q.weights.sum() - 4 * math.pi) < 1e-12


def test_orthonormality_gram():
    q = build_quadrature(8)
    # self-inner products up to degree 4 and one explicit pair from degree 3
    for n in range(0, 5):
        Y = q.harmonics(n)
        gram = q.project(Y, n).T
        assert np.max(np.abs(gram - np.eye(2 * n + 1))) < 1e-10
    v33 = q.project(q.harmonics(3)[:, 1], 3)[1]  # Y_3^2 against itself
    assert abs(v33 - 1.0) < 1e-10
    cross = q.project(q.harmonics(2)[:, 2], 3)  # Y_2^0 against degree 3
    assert np.max(np.abs(cross)) < 1e-10


def test_rule_is_freed_with_its_harmonics():
    q = build_quadrature(10)
    assert q.harmonics(3) is q.harmonics(3)
    ref = weakref.ref(q)
    del q
    gc.collect()
    assert ref() is None


def test_sph_harm_stack_is_bit_identical_to_full_table():
    # the per-degree recurrence repeats the full table's arithmetic element by element
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for n in range(42):
        for pts in (build_quadrature(2 * n + 4).nodes, dirs, poles, dirs[0], dirs[:12].reshape(3, 4, 3)):
            Y = sph_harm_stack(n, pts)
            assert Y.shape == pts.shape[:-1] + (2 * n + 1,)
            assert np.array_equal(Y, table_sph_harm_stack(n, pts)), (n, pts.shape)


def test_self_test_runs_one_recurrence(monkeypatch):
    # degrees 1, 5 and 9 share the 16-node band: one rule, one recurrence
    monkeypatch.setattr(harmonics, "_BANDS", {})
    calls = []
    shapes = []
    rows = harmonics._legendre_rows

    def counted(n_max, z):
        calls.append(n_max)
        shapes.append(np.shape(z))
        return rows(n_max, z)

    monkeypatch.setattr(harmonics, "_legendre_rows", counted)
    for n in (1, 5, 9):
        harmonics._self_test_degree(n, harmonics._lower_matrices(n), harmonics._raise_matrices(n))
    assert calls == [14]  # the polar factors of Y_0 .. Y_{k-2}
    assert shapes == [(16,)]
    assert sorted(harmonics._BANDS) == [16]


def test_band_sizes():
    # k = 16 ceil((n+3)/16): degree n's band holds at least its n+3 polar nodes
    assert [harmonics._band_size(n) for n in (0, 13, 14, 29, 30, 64, 70)] == [16, 16, 32, 32, 48, 80, 80]


def test_vectorised_ladders_equal_loop_builders():
    for n in range(71):
        if n:
            assert np.array_equal(harmonics._lower_matrices(n), loop_lower_matrices(n)), n
        assert np.array_equal(harmonics._raise_matrices(n), loop_raise_matrices(n)), n


def test_stacking_order_is_descending_m():
    # Y_n^{-m} = (-1)^m conj(Y_n^m) pins the order layout
    d = np.array([0.48, -0.6, 0.64])
    Y = sph_harm_stack(3, d)
    for m in range(1, 4):
        assert Y[3 + m] == pytest.approx((-1) ** m * np.conj(Y[3 - m]), abs=1e-14)


@pytest.fixture(scope="module")
def tables12():
    return shared_tables(12)


def _fd5(f, x, j, h):
    e = np.zeros(3)
    e[j] = h
    return (f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)) / (12 * h)


def test_lower_degree_one_axial_entry(tables12):
    # d/dz [r Y_1^0] = sqrt(3) Y_0^0
    assert tables12.lower[1][2][1, 0] == pytest.approx(math.sqrt(3), abs=1e-14)


def test_raise_degree_one_axial_entry(tables12):
    # coupling Y_1^0 -> Y_2^0 of the irregular family
    assert tables12.raise_[1][2][1, 2] == pytest.approx(-2 * math.sqrt(3 / 5), abs=1e-12)


def test_lower_x_derivative_no_axial_coupling(tables12):
    # x-derivative of the axial solid harmonic has no Y_0^0 part
    assert abs(tables12.lower[1][0][1, 0]) < 1e-14


def test_defining_identities_against_finite_differences(tables12):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(4):
        x = rng.normal(size=3)
        x *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(x)
        r = np.linalg.norm(x)
        h = 1e-5 * max(1.0, r)
        for n in (1, 2, 3, 6, 10, 12):
            def regular(p, n=n):
                rr = np.linalg.norm(p)
                return rr**n * sph_harm_stack(n, p / rr)

            def irregular(p, n=n):
                rr = np.linalg.norm(p)
                return rr ** (-n - 1) * sph_harm_stack(n, p / rr)

            for j in range(3):
                fd = _fd5(regular, x, j, h)
                an = r ** (n - 1) * (sph_harm_stack(n - 1, x / r) @ tables12.lower[n][j].T)
                worst = max(worst, np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(fd))))
                fd = _fd5(irregular, x, j, h)
                an = r ** (-n - 2) * (sph_harm_stack(n + 1, x / r) @ tables12.raise_[n][j].T)
                worst = max(worst, np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(fd))))
    assert worst < 1e-9


def test_harmonicity_of_solid_harmonics(tables12):
    # 7-point FD Laplacian of r^n Y_n^m vanishes
    rng = np.random.default_rng(5)
    h = 3e-4
    for n in (2, 5, 8):
        x = rng.normal(size=3)
        x *= 1.1 / np.linalg.norm(x)

        def solid(p, n=n):
            rr = np.linalg.norm(p)
            return rr**n * sph_harm_stack(n, p / rr)

        lap = -6 * solid(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            lap = lap + solid(x + e) + solid(x - e)
        lap /= h**2
        scale = n * (n + 1) * np.max(np.abs(solid(x))) / np.dot(x, x)
        assert np.max(np.abs(lap)) / scale < 1e-6


def test_build_time_self_test_runs():
    # the self-test of each degree runs when the degree is first read
    tables = shared_tables(3)
    assert all(tables.raise_[n] is not None for n in range(4))
    assert all(tables.lower[n] is not None for n in range(1, 4))
    with pytest.raises(IndexError):
        tables.lower[4]
    with pytest.raises(IndexError):
        tables.raise_[-1]
    with pytest.raises(TypeError):  # a read-only view
        tables.lower[3] = tables.lower[3]
    # the module-level views read any degree of the same store, unbounded
    for n in (0, 3, 13):
        assert harmonics.raise_[n] is shared_tables(n + 1).raise_[n]
        assert harmonics.lower[n] is shared_tables(n + 1).lower[n]
    assert harmonics.lower[0] is None and harmonics.raise_[0].shape == (3, 1, 3)
    for ladder in (harmonics.lower, harmonics.raise_):
        with pytest.raises(IndexError):
            ladder[-1]
        with pytest.raises(TypeError):
            ladder[3] = ladder[3]


def test_no_package_function_takes_or_sizes_a_table():
    # outside harmonics, which defines the bounded tables, package functions
    # read the ladders by degree; only the two signatures the benchmark passes
    # a table to positionally keep an (unused) parameter
    takes, names = set(), {}
    for path in sorted(Path(harmonics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree) if path.stem != "harmonics" else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if "tables" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    takes.add(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names[path.stem] = used & {"ensure_tables", "shared_tables"}
    assert takes == {"waves.assemble_H", "waves.perfect_wave"}
    assert {m: u for m, u in names.items() if u and m != "harmonics"} == {}


@pytest.fixture
def self_tests(monkeypatch):
    """An empty per-degree store; counts the self-tests run into it.

    The counted self-test is not run (the matrices are the genuine ones and
    the store is discarded after the test), which keeps degree 40 cheap.
    """
    counts = Counter()
    monkeypatch.setattr(harmonics, "_DEGREES", {})
    monkeypatch.setattr(harmonics, "_self_test_degree", lambda n, *pair: counts.update([n]))
    return counts


def test_corrupt_degree_fails_on_first_read_and_is_not_kept(monkeypatch):
    monkeypatch.setattr(harmonics, "_DEGREES", {})
    good = harmonics._raise_matrices

    def corrupt(n):
        Rx, Ry, Rz = good(n)
        if n == 7:
            Ry = Ry.copy()
            Ry[3, 5] += 1e-7
        return Rx, Ry, Rz

    monkeypatch.setattr(harmonics, "_raise_matrices", corrupt)
    tables = shared_tables(12)
    assert tables.raise_[6][1].shape == (13, 15)
    with pytest.raises(AssertionError, match=r"raise_\[7\]\[1\]"):
        tables.raise_[7]
    assert 7 not in harmonics._DEGREES
    with pytest.raises(AssertionError):  # not served on a second read either
        tables.lower[7]
    monkeypatch.setattr(harmonics, "_raise_matrices", good)
    assert np.array_equal(tables.raise_[7][1], good(7)[1])
    assert 7 in harmonics._DEGREES


def test_polar_projection_matches_grid_oracle():
    # the polar-node projection and the full product rule on the band's polar
    # nodes agree entry by entry
    for n in range(1, 42):
        polar, grid = harmonics._polar_projection(n), grid_self_test_projection(n)
        for family in range(2):
            for j in range(3):
                assert np.max(np.abs(polar[family][j] - grid[family][j])) < 1e-12, (n, family, j)


@pytest.mark.parametrize("n", [0, 1, 7, 13, 14, 20, 29, 30, 64])
def test_perturbed_entry_rejected_by_both_routes(n, monkeypatch):
    # one 1e-8 change, real or imaginary, in any of the six matrices is caught,
    # on an entry the ladder fills and on one it leaves zero
    good = (harmonics._lower_matrices(n) if n else None, harmonics._raise_matrices(n))
    routes = (harmonics._polar_projection, lambda n, grid=grid_self_test_projection(n): grid)
    for family, name in enumerate(("lower", "raise_")):
        for j in range(0 if good[family] is None else 3):
            ref = good[family][j]
            filled = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
            zeros = np.argwhere(ref == 0)
            for at in (filled, tuple(zeros[len(zeros) // 2])):
                for kick in (1e-8, 1e-8j):
                    bad = [None if f is None else list(f) for f in good]
                    bad[family][j] = ref.copy()
                    bad[family][j][at] += kick
                    for route in routes:
                        monkeypatch.setattr(harmonics, "_polar_projection", route)
                        with pytest.raises(AssertionError, match=rf"^{re.escape(name)}\[{n}\]\[{j}\] "):
                            harmonics._self_test_degree(n, *bad)
    for route in routes:  # and the genuine matrices pass on both
        monkeypatch.setattr(harmonics, "_polar_projection", route)
        harmonics._self_test_degree(n, *good)


def test_every_admissible_degree_self_tests(monkeypatch):
    # a valid run reads at most 6 degrees beyond cli.MAX_DEGREE
    monkeypatch.setattr(harmonics, "_DEGREES", {})
    n_max = cli.MAX_DEGREE + 6
    tables = shared_tables(n_max)
    for n in range(n_max + 1):
        tables.raise_[n]
    assert sorted(harmonics._DEGREES) == list(range(n_max + 1))


def test_growing_tables_tests_each_degree_once(self_tests):
    small = ensure_tables(None, 12)
    for n in range(1, 13):
        small.lower[n], small.raise_[n]
    big = ensure_tables(small, 40)
    assert (small.n_max, big.n_max) == (12, 40)
    for t in (small, big):
        for n in range(1, t.n_max + 1):
            t.lower[n], t.raise_[n], dmat(t, n, n - 1, 2)
    assert self_tests == Counter(range(1, 41))
    with pytest.raises(ValueError):  # matrices shared by every table stay as tested
        big.lower[5][0][0, 0] = 1.0


def test_each_ladder_is_one_read_only_array():
    # lower[n] is one (3, 2n+1, 2n-1) array and raise_[n] one (3, 2n+1, 2n+3)
    # array, the store's own; [j] is a view of it
    tables = ensure_tables(None, 40)
    for n in range(41):
        for k, (family, cols) in enumerate(((tables.lower, 2 * n - 1), (tables.raise_, 2 * n + 3))):
            if n == 0 and k == 0:
                continue
            D = family[n]
            assert type(D) is np.ndarray and D.dtype == complex and D.shape == (3, 2 * n + 1, cols)
            assert not D.flags.writeable
            assert all(D[j].base is D for j in range(3))
            assert D is harmonics._DEGREES[n][k]


def test_reading_degree_28_tests_nothing_above(self_tests):
    tables = ensure_tables(None, 40)
    assert not self_tests
    tables.lower[28], tables.raise_[28], dmat(tables, 28, 29, 0)
    assert self_tests == Counter([28])


def test_dmat_reindexing(tables12):
    # the stored ladder reindexed, not copied: a view of the degree's array
    for got, family, j in ((dmat(tables12, 5, 4, 1), tables12.lower[5], 1),
                           (dmat(tables12, 5, 6, 2), tables12.raise_[5], 2)):
        assert np.array_equal(got, family[j]) and np.shares_memory(got, family)
    with pytest.raises(ValueError):
        dmat(tables12, 5, 8, 0)


def test_s_matrix_shapes_and_symmetry(tables12):
    s = build_s_matrices(2, tables12)
    assert s.s4.shape == (3, 3)
    assert s.s6.shape == (7, 7)
    assert np.max(np.abs(s.s4 - s.s4.T)) < 1e-10
    assert np.max(np.abs(s.s6 - s.s6.T)) < 1e-10
    # the two Laplacian compositions vanish identically
    assert np.max(np.abs(s.s3)) < 1e-12
    assert np.max(np.abs(s.s5)) < 1e-12


def test_s4_matches_quadrature_gram(tables12):
    # s4 entries from quadrature: project d_j[r^2 Y_2] onto Y_1, then recombine
    n = 2
    quad = build_quadrature(12)
    lower = [quad.project(n * quad.nodes[:, j : j + 1] * quad.harmonics(n) + _surface_grad(n, quad)[:, :, j], n - 1).T
             for j in range(3)]
    s4_quad = sum(tables12.raise_[n - 1][j] @ lower[j] for j in range(3))
    s4 = build_s_matrices(n, tables12).s4
    assert np.max(np.abs(s4 - s4_quad)) < 1e-10


def _surface_grad(n, quad):
    from oracles import _surface_gradient_stack

    return _surface_gradient_stack(n, quad.nodes)


def test_range_error_for_s_matrices(tables12):
    with pytest.raises(ValueError):
        build_s_matrices(12, tables12)
