import numpy as np
import pytest
from numpy.testing import assert_allclose

from parma import (
    PeriodicModel,
    SolutionInput,
    build_fundamental,
    direct_recursion,
    general_solution,
)

from conftest import random_model


def random_input(rng, model, steps):
    return SolutionInput(
        model, origin=int(rng.integers(-20, 21)), steps=steps,
        initial=rng.uniform(-5, 5, model.p),
        innovations=rng.uniform(-5, 5, steps + model.q))


class TestContracts:
    def test_initial_length_enforced(self, rng):
        model = random_model(rng, p=3)
        with pytest.raises(ValueError, match="initial values"):
            SolutionInput(model, 0, 4, initial=[1.0], innovations=np.zeros(4 + model.q))

    def test_innovation_length_enforced(self, rng):
        model = random_model(rng, p=1, q=2)
        with pytest.raises(ValueError, match="innovations"):
            SolutionInput(model, 0, 4, initial=[1.0], innovations=np.zeros(4))

    def test_negative_steps_rejected(self, rng):
        model = random_model(rng, p=1, q=0)
        with pytest.raises(ValueError, match="steps"):
            SolutionInput(model, 0, -1, initial=[1.0], innovations=[])

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0)], ids=repr)
    def test_non_integer_steps_rejected(self, rng, bad):
        model = random_model(rng, p=1, q=0)
        with pytest.raises(ValueError, match=r"^steps must be an integer >= 0, got "):
            SolutionInput(model, 0, bad, initial=[1.0], innovations=[0.0])


class TestSpecialCases:
    def test_zero_steps_is_identity(self, rng):
        model = random_model(rng, p=2)
        inp = SolutionInput(model, origin=3, steps=0, initial=[1.7, -0.4],
                            innovations=np.zeros(model.q))
        dec = general_solution(inp)
        assert dec.total == 1.7
        assert dec.par_drift == 0.0 and dec.par_noise == 0.0

    def test_one_step_reproduces_difference_equation(self, rng):
        model = random_model(rng, p=3, q=2)
        view = model.view()
        inp = random_input(rng, model, steps=1)
        t = inp.origin + 1
        want = view.drift(t) + inp.eps(t)
        for j in range(1, model.q + 1):
            want += view.ma(j, t) * inp.eps(t - j)
        for m in range(1, model.p + 1):
            want += view.ar(m, t) * inp.initial[m - 1]
        assert_allclose(general_solution(inp).total, want, rtol=1e-14)
        assert_allclose(direct_recursion(inp), want, rtol=1e-14)

    def test_constant_ar1_geometric_decay(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        inp = SolutionInput(model, origin=0, steps=10, initial=[1.0],
                            innovations=np.zeros(10))
        assert_allclose(direct_recursion(inp), 0.5 ** 10, rtol=1e-15)

    def test_par12_two_steps_by_hand(self):
        model = PeriodicModel(l=2, p=1, q=0, drift=np.zeros(2),
                              ar=[[0.5, 0.8]], ma=[], sigma2=np.ones(2))
        # origin t-2 sits in season 2, so the first step applies 0.5
        inp = SolutionInput(model, origin=2, steps=2, initial=[1.0],
                            innovations=np.zeros(2))
        assert_allclose(direct_recursion(inp), 0.8 * 0.5)
        assert_allclose(general_solution(inp).total, 0.8 * 0.5)


class TestEquivalence:
    def test_general_equals_direct_on_random_instances(self, rng):
        for _ in range(150):
            model = random_model(rng, l=int(rng.integers(1, 13)))
            steps = int(rng.integers(0, 61))
            inp = random_input(rng, model, steps)
            a = general_solution(inp).total
            b = direct_recursion(inp)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_long_horizon_par34(self, rng):
        model = random_model(rng, p=3, q=0, l=4)
        inp = random_input(rng, model, steps=24)
        assert_allclose(general_solution(inp).total, direct_recursion(inp),
                        rtol=1e-9)

    def test_explosive_coefficients_stay_equivalent(self, rng):
        # the identity is algebra, not a stationarity statement: values
        # grow to ~1e12 here and the two routes still agree in relative
        # terms
        for _ in range(20):
            model = random_model(rng, coef_scale=1.8, l=3)
            inp = random_input(rng, model, steps=60)
            a = general_solution(inp).total
            b = direct_recursion(inp)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class TestStructure:
    def test_split_is_exact(self, rng):
        model = random_model(rng, p=2, q=1)
        inp = random_input(rng, model, steps=12)
        dec = general_solution(inp)
        assert dec.total == dec.hom + dec.par_drift + dec.par_noise

    def test_zero_noise_and_drift_leave_only_hom(self, rng):
        model = random_model(rng, p=3, q=2, drift_scale=0.0)
        inp = SolutionInput(model, origin=0, steps=9,
                            initial=rng.uniform(-2, 2, 3),
                            innovations=np.zeros(9 + 2))
        dec = general_solution(inp)
        assert dec.par_drift == 0.0 and dec.par_noise == 0.0

    def test_zero_initial_leaves_only_particular(self, rng):
        model = random_model(rng, p=3, q=1)
        inp = SolutionInput(model, origin=5, steps=9, initial=np.zeros(3),
                            innovations=rng.uniform(-1, 1, 10))
        assert general_solution(inp).hom == 0.0

    def test_linearity(self, rng):
        model = random_model(rng, p=2, q=2)
        doubled = PeriodicModel(l=model.l, p=model.p, q=model.q,
                                drift=2.0 * model.drift, ar=model.ar,
                                ma=model.ma, sigma2=model.sigma2)
        init = rng.uniform(-2, 2, 2)
        eps = rng.uniform(-1, 1, 8 + 2)
        base = general_solution(SolutionInput(model, 0, 8, init, eps)).total
        twice = general_solution(
            SolutionInput(doubled, 0, 8, 2.0 * init, 2.0 * eps)).total
        assert_allclose(twice, 2.0 * base, rtol=1e-12)

    def test_single_determinant_form(self, rng):
        # the whole solution is one Hessenbergian: replace the first column
        # of the fundamental matrix by the stacked forcing terms
        for _ in range(10):
            model = random_model(rng, l=int(rng.integers(1, 5)),
                                 p=int(rng.integers(1, 4)))
            steps = int(rng.integers(max(1, model.p), 11))
            inp = random_input(rng, model, steps)
            view = model.view()
            t = inp.origin + steps

            mat = build_fundamental(model, t, steps).values.copy()
            col = np.zeros(steps)
            for m in range(1, steps + 1):
                u = inp.origin + m
                col[m - 1] = view.drift(u) + inp.eps(u)
                for j in range(1, model.q + 1):
                    col[m - 1] += view.ma(j, u) * inp.eps(u - j)
                if m <= model.p:
                    h_m = 0.0
                    for j in range(m, model.p + 1):
                        h_m += view.ar(model.p - j + m, u) * inp.initial[model.p - j]
                    col[m - 1] += h_m
            mat[:, 0] = col
            assert_allclose(np.linalg.det(mat), general_solution(inp).total,
                            rtol=1e-8, atol=1e-10)
