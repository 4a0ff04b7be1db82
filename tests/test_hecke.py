import pytest

from polycell.errors import BallTooSmall
from polycell.hecke import (
    HeckeAlgebra,
    L_ONE,
    L_Q,
    L_Q_MINUS_1,
    L_ZERO,
    Laurent,
    laurent_of_int_poly,
)


def test_laurent_arithmetic():
    v = Laurent(1, (1,))
    vinv = Laurent(-1, (1,))
    assert v * vinv == L_ONE
    assert (v + vinv).coeffs == (1, 0, 1)
    assert v - v == L_ZERO
    assert L_Q == Laurent(2, (1,))
    assert (L_Q_MINUS_1 + L_ONE) == L_Q


def test_laurent_of_int_poly_substitutions():
    p = (1, 2)  # 1 + 2q
    assert laurent_of_int_poly(p, scale=2) == Laurent(0, (1, 0, 2))
    assert laurent_of_int_poly(p, scale=-2) == Laurent(-2, (2, 0, 1))
    assert laurent_of_int_poly(p, scale=-2, offset=3) == Laurent(1, (2, 0, 1))
    assert laurent_of_int_poly((), scale=2) == L_ZERO


def test_quadratic_relation(g237):
    H = HeckeAlgebra(g237)
    s = g237.element((1,))
    out = H.multiply({s.word: L_ONE}, {s.word: L_ONE})
    assert out == {(): L_Q, (1,): L_Q_MINUS_1}


def test_unit_and_length_additive_products(g237):
    H = HeckeAlgebra(g237)
    w = g237.element((0, 1, 2))
    assert H.multiply({w.word: L_ONE}, {(): L_ONE}) == {w.word: L_ONE}
    r, s = g237.element((0,)), g237.element((1,))
    assert H.multiply({r.word: L_ONE}, {s.word: L_ONE}) == {(0, 1): L_ONE}


def test_c_basis_small(g237, kl237):
    H = HeckeAlgebra(g237)
    assert H.c_basis(g237.identity, kl237) == {(): L_ONE}
    s = g237.element((1,))
    cs = H.c_basis(s, kl237)
    assert cs == {(): Laurent(1, (-1,)), (1,): Laurent(-1, (1,))}


def test_c_basis_leading_coefficient(g237, kl237):
    H = HeckeAlgebra(g237)
    for txt in ((0,), (0, 1), (1, 2, 1), (0, 1, 0)):
        w = g237.element(txt)
        cw = H.c_basis(w, kl237)
        assert cw[w.word] == Laurent(-w.length, (1,))


def test_h_constants_examples(g237, kl237):
    H = HeckeAlgebra(g237)
    s = g237.element((1,))
    h = H.h_constants(s, s, kl237)
    assert h == {(1,): Laurent(-1, (-1, 0, -1))}  # -(v + 1/v)
    # identity acts as the unit
    y = g237.element((0, 1))
    h_ey = H.h_constants(g237.identity, y, kl237)
    assert h_ey == {y.word: L_ONE}


def test_h_constants_roundtrip_dihedral(g237, kl237):
    H = HeckeAlgebra(g237)
    pairs = [(1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    for xw in pairs:
        for yw in pairs:
            x, y = g237.element(xw), g237.element(yw)
            h = H.h_constants(x, y, kl237)
            recombined: dict = {}
            for zw, coeff in h.items():
                z = g237.element(zw)
                for tw, c in H.c_basis(z, kl237).items():
                    cur = recombined.get(tw, L_ZERO)
                    tot = cur + c * coeff
                    if tot == L_ZERO:
                        recombined.pop(tw, None)
                    else:
                        recombined[tw] = tot
            direct = H.multiply(H.c_basis(x, kl237), H.c_basis(y, kl237))
            assert recombined == direct


def test_ball_too_small(g237):
    from polycell.kl import KLTable

    table = KLTable(g237, g237.ball(2))
    H = HeckeAlgebra(g237)
    w = g237.element((0, 1))
    with pytest.raises(BallTooSmall):
        H.h_constants(w, w, table)
    with pytest.raises(BallTooSmall):
        H.a_lower_bounds(2, table)


def test_a_lower_bound(g237, kl237):
    H = HeckeAlgebra(g237)
    b1 = H.a_lower_bounds(1, kl237)
    assert b1[()] == 0
    s = (1,)
    assert b1[s] >= 1
    # monotone in the sample radius
    b2 = H.a_lower_bounds(2, kl237)
    assert b2[s] >= b1[s]
