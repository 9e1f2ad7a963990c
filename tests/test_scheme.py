import dataclasses
from fractions import Fraction
from unittest import mock

import pytest

from poisson_stencils import scheme
from poisson_stencils.interpolation import (
    SingularMatrixError,
    lagrange_basis,
    monomial_segment,
    stencil_nodes,
)
from poisson_stencils.quadrature import LambdaPoly, a_on_monomial, b_on_monomial
from poisson_stencils.scheme import (
    NAMED_SCHEMES,
    SchemeSpec,
    UnknownSchemeError,
    generate_scheme,
    isotropic_nine_point,
    named_scheme,
    serialize_tables,
)
from poisson_stencils.simulator import SimConfig, run

AXES = [(-1, 0), (0, -1), (1, 0), (0, 1)]
CORNERS = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
AXES2 = [(-2, 0), (0, -2), (2, 0), (0, 2)]


@pytest.fixture(scope="module")
def schemes():
    return {name: named_scheme(name) for name in NAMED_SCHEMES}


def test_five_point_tables(schemes):
    p5 = schemes["P5"]
    assert set(p5.offsets) == {(0, 0), *AXES}
    assert p5.radius == 1
    assert p5.first_u[(0, 0)] == LambdaPoly({0: 1, 2: -2})
    assert p5.first_v[(0, 0)] == LambdaPoly({0: 1, 2: Fraction(-2, 3)})
    assert p5.two_step[(0, 0)] == LambdaPoly({0: 2, 2: -4})
    for off in AXES:
        assert p5.first_u[off] == LambdaPoly({2: Fraction(1, 2)})
        assert p5.first_v[off] == LambdaPoly({2: Fraction(1, 6)})
        assert p5.two_step[off] == LambdaPoly({2: 1})
    assert (-1, -1) not in p5.first_u and (-1, -1) not in p5.first_v


def test_nine_point_tables(schemes):
    p9 = schemes["P9"]
    assert len(p9.offsets) == 9
    assert (-2, 0) not in p9.first_u and (0, -2) not in p9.first_v
    assert p9.first_u[(0, 0)] == LambdaPoly({0: 1, 2: -2, 4: Fraction(1, 3)})
    assert p9.first_v[(0, 0)] == LambdaPoly({0: 1, 2: Fraction(-2, 3), 4: Fraction(1, 15)})
    for off in AXES:
        assert p9.first_u[off] == LambdaPoly({2: Fraction(1, 2), 4: Fraction(-1, 6)})
        assert p9.first_v[off] == LambdaPoly({2: Fraction(1, 6), 4: Fraction(-1, 30)})
    for off in CORNERS:
        assert p9.first_u[off] == LambdaPoly({4: Fraction(1, 12)})
        assert p9.first_v[off] == LambdaPoly({4: Fraction(1, 60)})
    for off in AXES:
        assert p9.two_step[off] == LambdaPoly({2: 1, 4: Fraction(-1, 3)})


def test_thirteen_point_tables(schemes):
    p13 = schemes["P13"]
    assert len(p13.offsets) == 13
    assert p13.radius == 2
    assert (-2, -1) not in p13.first_u and (-1, -2) not in p13.first_u
    # two-step bracket coefficients: (4-2lam^2)/3 on axes, lam^2/6 on corners,
    # (lam^2-1)/12 on the distance-2 arms, all times lam^2
    for off in AXES:
        assert p13.two_step[off] == LambdaPoly({2: Fraction(4, 3), 4: Fraction(-2, 3)})
    for off in CORNERS:
        assert p13.two_step[off] == LambdaPoly({4: Fraction(1, 6)})
    for off in AXES2:
        assert p13.two_step[off] == LambdaPoly({2: Fraction(-1, 12), 4: Fraction(1, 12)})
    assert p13.two_step[(0, 0)] == LambdaPoly({0: 2, 2: -5, 4: Fraction(5, 3)})
    # first-step velocity bracket: (4/3 - 2lam^2/5), lam^2/10, (lam^2/20 - 1/12)
    assert p13.first_v[(0, 0)] == LambdaPoly({0: 1, 2: Fraction(-5, 6), 4: Fraction(1, 6)})
    for off in AXES:
        assert p13.first_v[off] == LambdaPoly({2: Fraction(2, 9), 4: Fraction(-1, 15)})
    for off in CORNERS:
        assert p13.first_v[off] == LambdaPoly({4: Fraction(1, 60)})
    for off in AXES2:
        assert p13.first_v[off] == LambdaPoly({2: Fraction(-1, 72), 4: Fraction(1, 120)})


@pytest.mark.parametrize("m,count", [(6, 5), (11, 9), (15, 13)])
def test_pruning_counts(m, count):
    assert len(generate_scheme(m).offsets) == count


def test_two_step_doubles_first_u(schemes):
    for spec in schemes.values():
        assert set(spec.two_step) == set(spec.first_u)
        for off, poly in spec.first_u.items():
            assert spec.two_step[off] == 2 * poly


def test_conventional_first_step_replaces_velocity_table_only(schemes):
    p5, c5 = schemes["P5"], schemes["C5"]
    assert c5.first_v == {(0, 0): LambdaPoly({0: 1})}
    assert c5.first_u == p5.first_u
    assert c5.two_step == p5.two_step
    assert schemes["C13"].first_v == {(0, 0): LambdaPoly({0: 1})}


def test_isotropic_nine_point_tables():
    iso = isotropic_nine_point()
    for off in AXES:
        assert iso.two_step[off] == LambdaPoly({2: Fraction(2, 3)})
        assert iso.first_u[off] == LambdaPoly({2: Fraction(1, 3)})
    for off in CORNERS:
        assert iso.two_step[off] == LambdaPoly({2: Fraction(1, 6)})
        assert iso.first_u[off] == LambdaPoly({2: Fraction(1, 12)})
    assert iso.two_step[(0, 0)] == LambdaPoly({0: 2, 2: Fraction(-10, 3)})
    assert iso.first_v == {(0, 0): LambdaPoly({0: 1})}
    assert sum(iso.two_step.values()) == 2


def test_c9_pairs_conventional_first_step_with_isotropic_table(schemes):
    c9 = schemes["C9"]
    iso = isotropic_nine_point()
    assert c9.two_step == iso.two_step
    assert c9.first_u == iso.first_u
    assert c9.first_v == {(0, 0): LambdaPoly({0: 1})}


def test_named_scheme_rejects_unknown_name():
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(UnknownSchemeError, match="'p7'"):
            named_scheme("p7")


@pytest.mark.parametrize("name", [5, None, ["P5"]])
def test_named_scheme_rejects_a_name_that_is_not_a_string(name):
    # These ended in an AttributeError on the missing upper().
    with pytest.raises(UnknownSchemeError, match="^unknown scheme"):
        named_scheme(name)


def test_named_schemes_are_shared_and_derive_four_bases(cold_caches):
    # A cold process derives P5, P9 and P13 from Lagrange bases and C9 from
    # the isotropic table; C5 and C13 reuse the shared P5 and P13.
    generated = mock.Mock(wraps=scheme.generate_scheme)
    with mock.patch.object(scheme, "generate_scheme", generated):
        specs = {name: named_scheme(name) for name in NAMED_SCHEMES}
        assert all(named_scheme(name.lower()) is specs[name] for name in NAMED_SCHEMES)
    assert [call.args[0] for call in generated.call_args_list] == [6, 11, 15]
    assert named_scheme("p5") is named_scheme("P5")
    for p, c in (("P5", "C5"), ("P13", "C13")):
        assert all(
            poly is specs[p].two_step[offset] for offset, poly in specs[c].two_step.items()
        )
    assert scheme._named_scheme.cache_info().currsize == len(NAMED_SCHEMES)


@pytest.mark.parametrize("m", [6, 11, 15])
def test_moment_exactness(m):
    # scheme tables reproduce the exact operator values on every segment monomial
    spec = generate_scheme(m)
    monomials = monomial_segment(m)
    nodes = stencil_nodes(m)
    for mu in monomials:
        acc_u = LambdaPoly.zero()
        acc_v = LambdaPoly.zero()
        for node in nodes:
            value = Fraction(node[0] ** mu[0] * node[1] ** mu[1])
            if node in spec.first_u:
                acc_u = acc_u + spec.first_u[node] * value
            if node in spec.first_v:
                acc_v = acc_v + spec.first_v[node] * value
        assert acc_u == a_on_monomial(mu)
        assert acc_v == b_on_monomial(mu)


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_four_fold_symmetry(name, schemes):
    spec = schemes[name]
    for table in (spec.first_u, spec.first_v, spec.two_step):
        for (q1, q2), poly in table.items():
            assert table[(-q2, q1)] == poly
            assert table[(q2, q1)] == poly  # the coordinate swap


def test_isotropic_four_fold_symmetry():
    iso = isotropic_nine_point()
    for (q1, q2), poly in iso.two_step.items():
        assert iso.two_step[(-q2, q1)] == poly


def test_consistency_sums(schemes):
    for spec in schemes.values():
        assert sum(spec.first_u.values()) == 1
        assert sum(spec.first_v.values()) == 1
        assert sum(spec.two_step.values()) == 2


def test_five_point_two_step_is_classical(schemes):
    expected = {(0, 0): LambdaPoly({0: 2, 2: -4})}
    expected.update({off: LambdaPoly({2: 1}) for off in AXES})
    assert schemes["P5"].two_step == expected


def test_serialization_format(schemes):
    lines = serialize_tables(schemes["P5"]).splitlines()
    assert "1 0 first_v 2:1/6" in lines
    assert "0 0 first_u 0:1 2:-2" in lines
    p13_lines = serialize_tables(schemes["P13"]).splitlines()
    assert "2 0 two_step 2:-1/12 4:1/12" in p13_lines
    c5_lines = serialize_tables(schemes["C5"]).splitlines()
    assert [line for line in c5_lines if "first_v" in line] == ["0 0 first_v 0:1"]


def test_serialized_tables_are_formed_once_per_spec(cold_caches):
    # generate formed a spec's text anew on every call, though it never
    # changes; a spec sharing the name but not the tables has its own text.
    p5 = named_scheme("P5")
    text = serialize_tables(p5)
    assert serialize_tables(named_scheme("p5")) is text
    other = dataclasses.replace(p5, first_v={(0, 0): LambdaPoly.constant(1)})
    assert hash(other) == hash(p5) and serialize_tables(other) != text
    assert scheme._serialized.cache_info().currsize == 2


def test_tables_are_read_only_copies(schemes):
    p5 = named_scheme("P5")
    for role in ("first_u", "first_v", "two_step"):
        with pytest.raises(TypeError):
            getattr(p5, role)[(0, 0)] = LambdaPoly.constant(7)
    assert p5 == schemes["P5"] and hash(p5) == hash(schemes["P5"])
    source = {(0, 0): LambdaPoly.constant(2), (1, 0): LambdaPoly({2: 1})}
    spec = SchemeSpec(name="s", first_u=source, first_v=source, two_step=source)
    source[(0, 0)] = LambdaPoly.constant(5)
    del source[(1, 0)]
    assert list(spec.two_step) == [(0, 0), (1, 0)]
    assert spec.first_u[(0, 0)] == LambdaPoly.constant(2)


def _two_operator_assembly(m):
    """Tables built by applying the displacement and velocity operators separately.

    Each basis polynomial is integrated termwise with ``a_on_monomial`` and
    ``b_on_monomial``; an offset is kept in a table when its value there is
    nonzero, and the two-step table is twice the displacement table.
    """
    basis = lagrange_basis(m)
    first_u, first_v, two_step = {}, {}, {}
    for s, offset in enumerate(basis.nodes):
        u_val = v_val = LambdaPoly.zero()
        for mu, coeff in basis.polynomial(s).items():
            u_val = u_val + a_on_monomial(mu) * Fraction(coeff)
            v_val = v_val + b_on_monomial(mu) * Fraction(coeff)
        if u_val:
            first_u[offset] = u_val
            two_step[offset] = 2 * u_val
        if v_val:
            first_v[offset] = v_val
    return first_u, first_v, two_step


@pytest.mark.parametrize("m", range(1, 22))
def test_generate_scheme_matches_two_operator_assembly(m):
    try:
        spec = generate_scheme(m)
    except SingularMatrixError:
        pytest.skip(f"no Lagrange basis for m = {m}")
    expected = _two_operator_assembly(m)
    actual = (spec.first_u, spec.first_v, spec.two_step)
    for table, reference in zip(actual, expected):
        assert list(table.items()) == list(reference.items())
    offsets = {offset for reference in expected for offset in reference}
    assert spec.radius == max(max(abs(q1), abs(q2)) for q1, q2 in offsets)


def test_radius_is_derived_from_the_tables():
    p13 = named_scheme("P13")
    hand_built = SchemeSpec(
        name="hand-built", first_u=p13.first_u, first_v=p13.first_v, two_step=p13.two_step
    )
    assert hand_built.radius == 2
    # The simulator sizes its ghost cells from the derived radius.
    errors = [
        run(SimConfig(scheme=spec, n=16, n_t=4, lam=0.5, bc="dirichlet")).error
        for spec in (hand_built, p13)
    ]
    assert errors[0] == errors[1]
    assert SchemeSpec(name="empty", first_u={}, first_v={}, two_step={}).radius == 0


def test_offsets_are_the_union_of_all_three_tables():
    # offsets once joined first_u and first_v alone, so the (±2, ±1) offsets
    # of this two-step table were missing although radius counted them.
    p5 = named_scheme("P5")
    knight = [(2, 1), (-2, 1), (2, -1), (-2, -1)]
    table = {**p5.two_step, **dict.fromkeys(knight, LambdaPoly({4: Fraction(1, 12)}))}
    wide = SchemeSpec(name="wide", first_u=p5.first_u, first_v=p5.first_v, two_step=table)
    assert wide.offsets == (*p5.offsets, *knight) and wide.radius == 2
    one = LambdaPoly.constant(1)
    ordered = SchemeSpec(name="ordered", first_u={}, first_v={(0, 1): one, (0, 0): one},
                         two_step={(0, 0): one, (1, 0): one})
    assert ordered.offsets == ((0, 1), (0, 0), (1, 0))
