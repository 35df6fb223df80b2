import random
from fractions import Fraction
from math import comb

import pytest

import models
from conftest import (
    dense_ce_differential,
    dense_matrix,
    lowered,
    random_form,
    random_unimodular,
    rank_by_reverse_elimination,
    vector_to_form,
)
from g2forms import _linalg, invariants
from g2forms.catalog import bundled_ids, load_bundled
from g2forms.exterior import AltForm, form_to_vector, monomials, parse_form
from g2forms.invariants import (
    InvariantFormSpace,
    PartialDataError,
    _kernel,
    ce_differential,
    closed_forms,
    d_squared_check,
    invariant_forms,
)
from g2forms.liealg import (
    HomogeneousSpaceData,
    from_matrices,
    jacobi_check,
    reductive_split,
)
from g2forms.scalars import PolyScalar


def sl3r_data(symbols=()):
    algebra = from_matrices(models.sl3r_matrices(), symbols=symbols)
    return reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])


def su21_data(p, q):
    algebra = from_matrices(models.su21_matrices(p, q))
    return reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])


def abelian(dim=7):
    return HomogeneousSpaceData(dim, [], {}, partial=False)


def generic_form(gamma_texts, symbols, dim=7):
    phi = AltForm(dim, 3, symbols)
    for name, text in zip(symbols, gamma_texts):
        phi = phi + parse_form(text, dim, 3, symbols).scale(
            PolyScalar.parse(name, symbols)
        )
    return phi


def test_invariant_dimensions():
    assert invariant_forms(sl3r_data(), 3).dim == 7
    assert invariant_forms(su21_data(1, 1), 3).dim == 13
    assert invariant_forms(abelian(), 3).dim == 35
    assert invariant_forms(abelian(), 0).dim == 1


def test_invariant_basis_is_annihilated_by_isotropy():
    data = sl3r_data()
    space = invariant_forms(data, 3)
    a = [[e.constant_value() for e in row] for row in dense_matrix(data.isotropy[0], 7)]
    for gamma in space.basis:
        # finite Lie-derivative: sum over slots of gamma(..., A e_i, ...)
        for idx in monomials(7, 3):
            total = Fraction(0)
            for t in range(3):
                for j in range(1, 8):
                    coeff = a[idx[t] - 1][j - 1]
                    if coeff:
                        replaced = idx[:t] + (j,) + idx[t + 1 :]
                        total += coeff * gamma.eval_basis(replaced).constant_value()
            assert total == 0


def test_parametric_isotropy_requires_instantiation():
    ctx = ("t",)
    entry = PolyScalar.parse("t", ctx)
    data = HomogeneousSpaceData(2, [{(1, 1): entry, (2, 2): entry}], {}, symbols=ctx, partial=True)
    with pytest.raises(ValueError, match="instantiate"):
        invariant_forms(data, 1)
    assert invariant_forms(data.instantiate({"t": Fraction(1)}), 1).dim == 0


def test_ce_differential_calibration_values():
    # three independent printed evaluations pin the sign convention
    syms = tuple(f"a{i}" for i in range(1, 8))
    data = sl3r_data(syms)
    phi = generic_form(
        [
            "e^{1 2 3}",
            "e^{1 4 5}",
            "e^{1 6 7}",
            "e^{1 2 4} + e^{1 3 5}",
            "e^{1 2 5} - e^{1 3 4}",
            "e^{2 4 6} - e^{2 5 7} - e^{3 4 7} - e^{3 5 6}",
            "e^{2 4 7} + e^{2 5 6} + e^{3 4 6} - e^{3 5 7}",
        ],
        syms,
    )
    assert ce_differential(data, phi).eval_basis((3, 5, 6, 7)).render() == "-a3"

    syms5 = tuple(f"a{i}" for i in range(1, 6))
    algebra = from_matrices(models.so32_matrices(), symbols=syms5)
    so32 = reductive_split(algebra, [8, 9, 10], list(range(1, 8)))
    phi5 = generic_form(
        [
            "e^{1 2 3}",
            "e^{1 2 6} - e^{1 3 5} + e^{2 3 4}",
            "e^{1 5 6} - e^{2 4 6} + e^{3 4 5}",
            "e^{1 4 7} + e^{2 5 7} + e^{3 6 7}",
            "e^{4 5 6}",
        ],
        syms5,
    )
    assert ce_differential(so32, phi5).eval_basis((1, 2, 4, 5)).render() == "2*a4"

    syms10 = tuple(f"a{i}" for i in range(1, 11))
    n4 = from_matrices(models.so41_fixed_matrices(), symbols=syms10)
    data4 = reductive_split(n4, [8, 9, 10], list(range(1, 8)))
    phi10 = generic_form(
        [
            "e^{1 2 3}",
            "e^{1 4 5} - e^{1 6 7}",
            "e^{1 4 6} + e^{1 5 7}",
            "e^{1 4 7} - e^{1 5 6}",
            "e^{2 4 5} - e^{2 6 7}",
            "e^{2 4 6} + e^{2 5 7}",
            "e^{2 4 7} - e^{2 5 6}",
            "e^{3 4 5} - e^{3 6 7}",
            "e^{3 4 6} + e^{3 5 7}",
            "e^{3 4 7} - e^{3 5 6}",
        ],
        syms10,
    )
    value = ce_differential(data4, phi10).eval_basis((4, 5, 6, 7))
    assert value.render() == "a2 + a6 + a10"


def test_ce_differential_matches_dense_oracle_on_the_catalog():
    # every canonical case: its invariant 2-, 3- and 4-form bases on the
    # instantiated data, and its generic form on the symbolic data
    checked = 0
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        if record.raw.get("exploratory"):
            continue
        engine = record
        data = engine.homog_num()
        for degree in (2, 3, 4):
            for gamma in invariant_forms(data, degree).basis:
                expected = dense_ce_differential(data, gamma)
                assert ce_differential(data, gamma) == expected, (case_id, degree)
                checked += 1
        if record.gamma_forms:
            phi = engine.generic_form
            expected = dense_ce_differential(engine.homog_sym, phi)
            assert ce_differential(engine.homog_sym, phi) == expected, case_id
            checked += 1
    assert checked == 266


def test_ce_differential_vanishes_on_abelian_data():
    rng = random.Random(11)
    data = abelian()
    for _ in range(10):
        alpha = random_form(rng, 7, rng.randint(1, 3))
        assert ce_differential(data, alpha).is_zero()


def test_ce_differential_is_linear_over_scalars():
    rng = random.Random(12)
    data = sl3r_data(("c",))
    c = PolyScalar.parse("c", ("c",))
    for _ in range(10):
        alpha = random_form(rng, 7, 3, ("c",))
        beta = random_form(rng, 7, 3, ("c",))
        lhs = ce_differential(data, alpha.scale(c) + beta)
        rhs = ce_differential(data, alpha).scale(c) + ce_differential(data, beta)
        assert lhs == rhs


def test_closed_forms_branch_a_matches_printed_family():
    family = closed_forms(su21_data(0, 1), 3)
    assert family.dim == 3 and family.invariant_dim == 7
    monos = monomials(7, 3)
    computed = [form_to_vector(f, monos) for f in family.basis]
    printed = [
        form_to_vector(parse_form(t, 7, 3, ()), monos)
        for t in [
            "e^{1 2 4} - e^{1 3 5}",
            "e^{1 2 5} + e^{1 3 4}",
            "e^{2 4 7} - e^{2 5 6} + e^{3 4 6} + e^{3 5 7}",
        ]
    ]
    assert _linalg._reduced(computed) == _linalg._reduced(printed)
    assert family.parameters == ("a1", "a2", "a3")
    assert family.generic.symbols == ("a1", "a2", "a3")


def test_closed_forms_on_abelian_data_is_everything():
    family = closed_forms(abelian(), 3)
    assert family.dim == family.invariant_dim == 35
    assert family.rank == 0


def test_closed_family_dimension_against_reverse_elimination_oracle():
    for data in (sl3r_data(), su21_data(0, 1), su21_data(1, 1), abelian()):
        space = invariant_forms(data, 3)
        out_monomials = monomials(7, 4)
        rows = [
            form_to_vector(ce_differential(data, gamma), out_monomials)
            for gamma in space.basis
        ]
        rank = rank_by_reverse_elimination(rows)
        family = closed_forms(data, 3)
        assert family.dim == space.dim - rank
        assert family.rank == rank


def test_d_squared_check_passes_on_full_data():
    for data in (sl3r_data(), abelian()):
        for degree in (2, 3):
            assert d_squared_check(data, degree).ok


def test_d_squared_check_reports_a_non_jacobi_bracket():
    # [e1, e2] = e3 and [e1, e3] = e1 break Jacobi: the cyclic sum of (1, 2, 3)
    # is [[e3, e1], e2] = -[e1, e2] = -e3.  With d e^r = -sum c^r_ij e^{ij}:
    # d e^1 = -e^{13}, d e^2 = 0, d e^3 = -e^{12}; then d e^{13} = e^1 ^ e^{12} = 0
    # and d e^{12} = -e^{13} ^ e^2 = e^{123}, so d(d e^3) = -e^{123} is the one failure
    one = PolyScalar.constant(1)
    data = HomogeneousSpaceData(3, [], {(1, 2): {3: one}, (1, 3): {1: one}})
    report = d_squared_check(data, 1)
    assert (report.ok, report.checked) == (False, 3)
    assert report.render() == (
        "d o d != 0 on 1 invariant 1-form(s):\n"
        "  gamma = e^{3}\n"
        "  d(d gamma) = -e^{1 2 3}"
    )
    assert jacobi_check(data).render() == (
        "jacobi: 1 violating triple(s)\n  (1,2,3): cyclic sum = (0, 0, -1)"
    )
    # d(d gamma) of a 2-form is a 4-form on a 3-space
    assert d_squared_check(data, 2).render() == "d o d = 0 on all 3 invariant 2-forms"


def test_d_squared_check_refuses_partial_data():
    payload = models.t2n1_payload()
    iso = [
        {
            (r, c): PolyScalar.constant(x)
            for r, row in enumerate(m, 1)
            for c, x in enumerate(row, 1)
        }
        for m in payload["isotropy"]
    ]
    bracket = {
        key: {r: PolyScalar.constant(x) for r, x in enumerate(vec, 1)}
        for key, vec in payload["bracket"].items()
    }
    data = HomogeneousSpaceData(7, iso, bracket, partial=True)
    with pytest.raises(PartialDataError):
        d_squared_check(data, 3)


def test_derived_objects_are_built_once_per_data(monkeypatch):
    data = sl3r_data()
    assignment = {}
    assert data.instantiate(assignment) is data.instantiate(assignment)
    assert data.instantiate({}) is data
    space = invariant_forms(data, 3)
    assert invariant_forms(data, 3) is space
    calls = []
    original = invariants._kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # one _kernel call per solve (it eliminates once per component of unknowns)
    monkeypatch.setattr(invariants, "_kernel", counting)
    family = closed_forms(data, 3)
    assert len(calls) == 1  # the kernel of d; the invariant basis is reused
    assert closed_forms(data, 3) is family
    assert d_squared_check(data, 3).ok
    assert len(calls) == 1


def stacked_rows(ops, n, k):
    """The int rows of the rational operators on k-forms, stacked: for each operator
    and each output monomial it reaches, the row over ``monomials(n, k)`` read
    from its ``columns`` (den times the matrix, so the kernel is the same)."""
    rows, monos = [], monomials(n, k)
    for op in ops:
        layer = next(iter(op.columns.values()), {})
        for out in sorted({out for column in layer.values() for out in column}):
            rows.append([layer.get(m, {}).get(out, 0) for m in monos])
    return rows


def test_closed_family_is_the_common_kernel_of_the_derivations_and_d():
    # a second route to every closed family: the kernel of the stacked rows of
    # the isotropy derivations and d on all k-forms, with no invariant basis
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        for assignment in record.enumerations:
            data = record.homog_num(assignment)
            n = data.dim_m
            for k in range(n + 1):
                ops = [*data.derivations(k), data.differential(k)]
                kernel = lowered(_linalg._nullspace_ints(stacked_rows(ops, n, k), comb(n, k)))
                family = closed_forms(data, k)
                assert family.basis == [vector_to_form(vec, n, k) for vec in kernel]
                assert family.rank == invariant_forms(data, k).dim - family.dim


def test_solves_on_a_rational_basis_of_m_match_the_stacked_kernels():
    # a rational change of basis inside m (h kept) gives invariant and closed
    # bases with denominators, which no bundled case has: each must still be
    # the kernel of the stacked rows, read through the validating constructor
    rng = random.Random(2027)
    e = models.sl3r_matrices()
    scale = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(7)]
    p = [[x * s for x, s in zip(row, scale)] for row in random_unimodular(rng, 7, shears=6)]
    m = [[[sum(p[k][c] * e[k][r][t] for k in range(7)) for t in range(3)] for r in range(3)]
         for c in range(7)]
    data = reductive_split(from_matrices(m + [e[7]]), [8], list(range(1, 8)))
    dens = set()
    for k in range(8):
        space, family = invariant_forms(data, k), closed_forms(data, k)
        for ops, basis in [(data.derivations(k), space.basis),
                           ([*data.derivations(k), data.differential(k)], family.basis)]:
            kernel = lowered(_linalg._nullspace_ints(stacked_rows(ops, 7, k), comb(7, k)))
            assert basis == [vector_to_form(vec, 7, k) for vec in kernel], k
            dens |= {form.den for form in basis}
        assert family.rank == space.dim - family.dim
    assert max(dens) > 1


def test_kernel_does_not_depend_on_block_or_entry_order():
    # seeded int columns, zero columns among them, and blocks of zero columns or
    # of no columns at all: the kernel is that of the stacked rows, whatever the
    # order of the blocks and of the entries of each column
    rng = random.Random(3030)
    outputs, dims = monomials(5, 2), set()
    for _ in range(80):
        ncols, blocks = rng.randint(1, 8), []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.3:
                blocks.append([] if kind < 0.15 else [{} for _ in range(ncols)])
            else:
                blocks.append([{out: rng.choice([-3, -2, -1, 1, 2, 3])
                                for out in rng.sample(outputs, rng.choice([0, 1, 1, 2, 3]))}
                               for _ in range(ncols)])
        kernel = _kernel(blocks, ncols)
        reordered = [[dict(rng.sample(list(column.items()), len(column))) for column in block]
                     for block in reversed(blocks)]
        assert _kernel(reordered, ncols) == kernel
        rows = [[column.get(out, 0) for column in block] for block in blocks if block
                for out in outputs]
        assert kernel == _linalg._nullspace_ints(rows, ncols)
        dims.add(len(kernel))
    assert 0 in dims and max(dims) > 1


def test_kernel_of_interleaved_blocks_is_that_of_the_stacked_rows():
    # seeded systems of small coupled blocks whose columns interleave, beside
    # free and pinned single columns, spread over blocks with empty ones among them
    rng = random.Random(3737)
    kinds = set()
    for _ in range(120):
        ncols = rng.randint(1, 12)
        order, groups = rng.sample(range(ncols), ncols), []
        while order:
            size = rng.randint(1, 4)
            groups.append(order[:size])
            order = order[size:]
        nblocks = rng.randint(1, 3)
        blocks = [[{} for _ in range(ncols)] for _ in range(nblocks)]
        for g, cols in enumerate(groups):
            kind = "free" if len(cols) == 1 and rng.random() < 0.5 else "read"
            kinds.add((kind, len(cols) > 1))
            for t in range(rng.randint(1, len(cols) + 1) if kind == "read" else 0):
                block = rng.choice(blocks)  # the row (block, (g, t)) reads some of the group
                for j in rng.sample(cols, rng.randint(1, len(cols))):
                    block[j][g, t] = rng.choice([-3, -2, -1, 1, 2, 3])
        for _ in range(rng.randint(0, 2)):
            blocks.insert(rng.randrange(len(blocks) + 1), [])
        outputs = sorted({out for block in blocks for column in block for out in column})
        rows = [[column.get(out, 0) for column in block] for block in blocks if block
                for out in outputs]
        assert _kernel(blocks, ncols) == _linalg._nullspace_ints(rows, ncols)
    assert kinds == {("free", False), ("read", False), ("read", True)}


def test_su31_derivation_kernel_is_solved_by_components(monkeypatch):
    data = load_bundled("su31").homog_num()
    ops, monos = data.derivations(3), monomials(data.dim_m, 3)
    zero = (0,) * len(data.symbols)
    blocks = [[op.columns.get(zero, {}).get(m, {}) for m in monos] for op in ops]
    widths, original = [], _linalg._nullspace_ints

    def counting(mat, ncols):
        widths.append(ncols)
        return original(mat, ncols)

    monkeypatch.setattr(_linalg, "_nullspace_ints", counting)
    kernel = _kernel(blocks, len(monos))
    assert 1 < len(widths) and max(widths) < len(monos)
    assert kernel == original(stacked_rows(ops, data.dim_m, 3), len(monos))


@pytest.mark.parametrize("solve", [invariant_forms, closed_forms, d_squared_check])
@pytest.mark.parametrize("degree", [True, False, 1.0, 3.0, "3", None, Fraction(3)])
def test_degree_must_be_an_int(solve, degree):
    # a bool or a float equal to an int would read that degree's memo
    with pytest.raises(TypeError, match="degree is an int"):
        solve(sl3r_data(), degree)


@pytest.mark.parametrize("solve", [invariant_forms, closed_forms, d_squared_check])
def test_negative_degree_is_refused_by_name(solve):
    # the message named a shift the caller never passed
    with pytest.raises(ValueError, match=r"^degree must be nonnegative, got -1$"):
        solve(sl3r_data(), -1)


def test_instantiations_with_equal_isotropy_share_one_invariant_solve():
    record = load_bundled("T2.n3.generic")
    datas = [record.homog_num(assignment) for assignment in record.enumerations]
    assert len(datas) == 4 and len({id(data) for data in datas}) == 4
    for k in range(record.dim_m + 1):
        space = invariant_forms(datas[0], k)
        assert all(invariant_forms(data, k) is space for data in datas), k
        assert all(data.derivations(k) is datas[0].derivations(k) for data in datas), k
        # the bracket entries stay per data: the sign pairs change the bracket
        assert len({id(data.differential(k)) for data in datas}) == 4
        assert len({id(closed_forms(data, k)) for data in datas}) == 4


def test_isotropy_memo_is_keyed_by_context_and_tables():
    ctx = ("s", "t")
    s, t = (PolyScalar.parse(name, ctx) for name in ctx)
    one = PolyScalar.constant(1, ctx)
    bracket = {(1, 2): {3: s}, (1, 3): {2: t}}
    rational = HomogeneousSpaceData(3, [{(1, 2): one, (2, 1): -one}], bracket, symbols=ctx,
                                    partial=True)
    at_s, at_t = rational.instantiate({"s": Fraction(1)}), rational.instantiate({"t": Fraction(1)})
    for k in range(4):
        # equal rational tables, but different reduced contexts
        space_s, space_t = invariant_forms(at_s, k), invariant_forms(at_t, k)
        assert space_s is not space_t
        assert all(g.symbols == ("t",) for g in space_s.basis)
        assert all(g.symbols == ("s",) for g in space_t.basis)
    varying = HomogeneousSpaceData(3, [{(1, 2): t, (2, 1): -t}], bracket, symbols=ctx,
                                   partial=True)
    zero, unit = ({"s": Fraction(1), "t": Fraction(v)} for v in (0, 1))
    assert invariant_forms(varying.instantiate(zero), 2) is not invariant_forms(
        varying.instantiate(unit), 2
    )
    assert invariant_forms(varying.instantiate(zero), 2).dim == 3
    assert invariant_forms(varying.instantiate(unit), 2).dim == 1
    # the same table at another value of the bracket's s: shared
    other = varying.instantiate({"s": Fraction(2), "t": Fraction(1)})
    assert invariant_forms(other, 2) is invariant_forms(varying.instantiate(unit), 2)
    assert closed_forms(other, 2) is not closed_forms(varying.instantiate(unit), 2)


def test_invariant_spaces_compare_by_degree_and_basis():
    e1, e2 = parse_form("e^{1}", 3, 1), parse_form("e^{2}", 3, 1)
    space = InvariantFormSpace(1, [e1, e2])
    assert space == InvariantFormSpace(1, [parse_form("e^{1}", 3, 1), parse_form("e^{2}", 3, 1)])
    assert space != InvariantFormSpace(1, [e1])
    assert space != InvariantFormSpace(1, [e2, e1])
    assert space != InvariantFormSpace(2, [e1, e2])
    assert space != (1, [e1, e2])
    with pytest.raises(TypeError):
        hash(space)


def test_shared_invariant_spaces_equal_a_fresh_solve():
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        for assignment in record.enumerations:
            data = record.homog_num(assignment)
            fresh = HomogeneousSpaceData(
                data.dim_m, data.isotropy, data.bracket, data.names, data.symbols, data.partial
            )
            for k in range(data.dim_m + 1):
                assert invariant_forms(data, k) == invariant_forms(fresh, k), (case_id, k)
                shared, unshared = closed_forms(data, k), closed_forms(fresh, k)
                assert (shared.basis, shared.rank) == (unshared.basis, unshared.rank), (case_id, k)
