import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import NonConvergence, OutOfRange

from conftest import poiseuille_psi, poiseuille_u1


class TestConfig:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            ns.SolverConfig(tol=0.0)


class TestStokes:
    def test_poiseuille_recovered_in_interior(self, straight, carrier_unit):
        grid = geo.make_grid(straight, -8, 8, 257, 33)
        st = ns.solve_stokes(grid, carrier_unit, straight)
        mask = np.abs(grid.xi) <= 4.0
        err = np.abs(st.u1[mask, :] - poiseuille_u1(grid.x2[mask, :])).max()
        # ny=33: one-sided wall stencil bias (h^2/3)|psi'''| ~ 2e-3
        assert err < 2.5e-3
        errp = np.abs(st.psi[mask, :] - poiseuille_psi(grid.x2[mask, :])).max()
        assert errp < 2e-4

    def test_zero_flux_gives_zero_field(self, straight):
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        st = ns.solve_stokes(grid, fc.CarrierParams(0.0, 0.5), straight)
        assert np.abs(st.psi).max() == 0.0
        assert np.abs(st.omega).max() == 0.0


class TestPicard:
    def test_poiseuille_is_discrete_fixed_point(self, straight, carrier_unit):
        # the nodal shear flow solves every interior equation exactly
        grid = geo.make_grid(straight, -6, 6, 97, 25)
        psi = poiseuille_psi(grid.x2)
        omega = 1.5 * grid.x2
        state = ns._state_from_fields(grid, straight, carrier_unit, psi, omega)
        ws = ns._Workspace(grid, carrier_unit, straight)
        assert ns.residual_norm(state, ws) < 1e-12

    def test_fixed_point_state_unchanged(self, poiseuille_state):
        new, res = ns.picard_step(poiseuille_state)
        assert res < 1e-9
        assert np.abs(new.psi - poiseuille_state.psi).max() < 1e-9

    def test_zero_flux_stays_zero(self, straight):
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        params = fc.CarrierParams(0.0, 0.5)
        st = ns.solve_stokes(grid, params, straight)
        new, res = ns.picard_step(st)
        assert np.abs(new.psi).max() == 0.0
        assert res == 0.0


class TestResidual:
    def test_blocks_exact_on_quadratic_fields(self):
        # central differences are exact on fields quadratic in (xi, eta), so
        # every block of r = b - A(u) x has a closed form on the curved grid
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        grid = geo.make_grid(bump, -6, 6, 49, 13)
        ws = ns._Workspace(grid, fc.CarrierParams(2.0), bump)
        hy = grid.hy
        xi = grid.xi[:, None] * np.ones(grid.ny)
        eta = grid.eta[None, :] * np.ones((grid.nx, 1))
        psi = 0.3 + 0.2 * xi - 0.7 * eta + 0.05 * xi**2 + 0.4 * xi * eta + 1.1 * eta**2
        psi_e = -0.7 + 0.4 * xi + 2.2 * eta
        psi_xx, psi_xe, psi_ee = 0.1, 0.4, 2.2
        omega = -0.5 + 0.3 * xi + 0.9 * eta - 0.02 * xi**2 - 0.6 * xi * eta + 0.8 * eta**2
        om_x, om_e = 0.3 - 0.04 * xi - 0.6 * eta, 0.9 - 0.6 * xi + 1.6 * eta
        om_xx, om_xe, om_ee = -0.04, -0.6, 1.6
        rng = np.random.default_rng(3)
        u1, u2 = rng.standard_normal((2, grid.nx, grid.ny))
        state = ns.FlowState(grid=grid, profile=ws.profile, params=fc.CarrierParams(2.0),
                             psi=psi, omega=omega, u1=u1, u2=u2)

        cxy = 2.0 * grid.j1
        cyy = grid.j1**2 + 1.0 / grid.f[:, None] ** 2
        lap_psi = psi_xx + cxy * psi_xe + cyy * psi_ee + grid.lap_s * psi_e
        lap_om = om_xx + cxy * om_xe + cyy * om_ee + grid.lap_s * om_e
        adv = u1 * om_x + (u1 * grid.j1 + u2 / grid.f[:, None]) * om_e
        want_psi = -(lap_psi + omega)
        want_om = -(lap_om - adv)
        # one-sided closure on a quadratic: (8 psi_1 - psi_2 - 7 psi_0)/(2 hy^2)
        # is psi_ee + 3 psi_e/hy at eta = 0 and psi_ee - 3 psi_e/hy at eta = 1
        want_om[:, 0] = -(omega[:, 0] + cyy[:, 0] * (psi_ee + 3 * psi_e[:, 0] / hy))
        want_om[:, -1] = -(omega[:, -1] + cyy[:, -1] * (psi_ee - 3 * psi_e[:, -1] / hy))
        left = (np.full(grid.ny, grid.a), grid.x2[0])
        right = (np.full(grid.ny, grid.b), grid.x2[-1])
        want_psi[0] = fc.stream_G(left, state.params, ws.profile) - psi[0]
        want_psi[-1] = fc.stream_G(right, state.params, ws.profile) - psi[-1]
        want_psi[:, 0] = -psi[:, 0]
        want_psi[:, -1] = 2.0 - psi[:, -1]
        want_om[0] = fc.carrier_vorticity(left, state.params, ws.profile) - omega[0]
        want_om[-1] = fc.carrier_vorticity(right, state.params, ws.profile) - omega[-1]

        r_psi, r_om = ws.residual(state).reshape(2, grid.nx, grid.ny)
        blocks = {
            "interior psi": (r_psi[1:-1, 1:-1], want_psi[1:-1, 1:-1]),
            "interior omega": (r_om[1:-1, 1:-1], want_om[1:-1, 1:-1]),
            "closure": (r_om[1:-1, [0, -1]], want_om[1:-1, [0, -1]]),
            "psi walls": (r_psi[:, [0, -1]], want_psi[:, [0, -1]]),
            "psi ends": (r_psi[[0, -1]], want_psi[[0, -1]]),
            "omega ends": (r_om[[0, -1]], want_om[[0, -1]]),
        }
        for name, (got, want) in blocks.items():
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        scale = max(1.0, float(np.abs(omega).max()))
        assert ns.residual_norm(state, ws) == pytest.approx(max(
            np.abs(want_psi[1:-1, 1:-1]).max(), np.abs(want_om[1:-1]).max()) / scale,
            rel=1e-12)

    def test_norms_partition_the_rows(self, straight):
        # each row of b moves one row of r: an end psi row only the boundary
        # defect, a wall-closure row only the residual norm
        params = fc.CarrierParams(1.0, 0.5)
        state = ns.solve_steady(straight, params, -4, 4, 65, 17,
                                ns.SolverConfig(tol=1e-12))
        grid = state.grid
        ws = ns._Workspace(grid, params, straight)
        res, bd = ns.residual_norm(state, ws), ns.boundary_defect(state, ws)
        assert res < 1e-12 and bd < 1e-12
        delta = 1e-6
        psi_scale = max(1.0, float(np.abs(state.psi).max()))
        om_scale = max(1.0, float(np.abs(state.omega).max()))
        ny, n = grid.ny, ws.n
        rows = [
            (ny // 2, "boundary", psi_scale),         # psi end (0, ny // 2)
            (7 * ny, "boundary", psi_scale),          # psi wall (7, 0)
            (n + ny // 2, "boundary", om_scale),      # omega end (0, ny // 2)
            (n + 7 * ny, "interior", om_scale),       # wall closure (7, 0)
        ]
        for row, moved, scale in rows:
            offset = ns._Workspace(grid, params, straight)
            offset.rhs[row] += delta
            got_res = ns.residual_norm(state, offset)
            got_bd = ns.boundary_defect(state, offset)
            if moved == "boundary":
                assert got_res == res
                assert got_bd == pytest.approx(delta / scale, rel=1e-6)
            else:
                assert got_bd == bd
                assert got_res == pytest.approx(delta / scale, rel=1e-6)

    def test_one_residual_evaluation_per_state(self, straight, monkeypatch):
        # the two defects and the chord step from a state share one product
        # with the constant block; each state gets one history entry, and
        # the history covers every continuation level
        products, states = [], []
        assemble = ns._Workspace._assemble_constant
        residual_norm = ns.residual_norm

        class Counted(sparse.csr_matrix):
            def __matmul__(self, other):
                products.append(1)
                return super().__matmul__(other)

        def norm(state, workspace):
            states.append(state)
            return residual_norm(state, workspace)

        monkeypatch.setattr(ns._Workspace, "_assemble_constant",
                            lambda self: Counted(assemble(self)))
        monkeypatch.setattr(ns, "residual_norm", norm)
        st = ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
        assert st.converged
        assert len(products) == len(states) == len({id(s) for s in states})
        assert len(states) == len(st.residual_history)
        # flux 8 steps through 4 levels, each numbered from iteration 0
        iterations = [i for i, _ in st.residual_history]
        assert iterations[0] == 0 and iterations.count(0) == 4
        assert all(i in (0, prev + 1) for prev, i in zip(iterations, iterations[1:]))


class TestSolveSteady:
    def test_poiseuille_accuracy(self, poiseuille_state):
        grid = poiseuille_state.grid
        mask = np.abs(grid.xi) <= 4.0
        err = np.abs(
            poiseuille_state.u1[mask, :] - poiseuille_u1(grid.x2[mask, :])
        ).max()
        assert err < 2.5e-3  # ny=33 wall-stencil bias dominates

    def test_interior_slice_flux(self, power_state):
        fl = ns.slice_flux_profile(power_state)
        grid = power_state.grid
        margin_lo = grid.a + float(power_state.profile.width(grid.a))
        margin_hi = grid.b - float(power_state.profile.width(grid.b))
        mask = (grid.xi >= margin_lo) & (grid.xi <= margin_hi)
        # quadrature floor ~ (1/32)^4 |psi^(5)| at ny=33; the
        # acceptance suite pins 1e-6 at ny=65
        assert np.abs(fl[mask] - 1.0).max() < 1e-5

    def test_zero_flux_zero_energy(self, straight):
        st = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -4, 4, 65, 17
        )
        assert ns.dirichlet_energy(st, -4, 4) == 0.0

    def test_nonconvergence_is_reported(self, straight, carrier_unit):
        cfg = ns.SolverConfig(tol=1e-9, max_iter=1)
        with pytest.raises(NonConvergence) as info:
            ns.solve_steady(straight, carrier_unit, -6, 6, 97, 25, cfg)
        assert info.value.best_residual is not None

    def test_stagnation_below_floor_raises_early(self, straight, carrier_unit):
        # tol 1e-17 lies below the round-off floor: the chord loop must
        # give up once the residual stops halving, not spin to max_iter
        cfg = ns.SolverConfig(tol=1e-17)
        with pytest.raises(NonConvergence) as info:
            ns.solve_steady(straight, carrier_unit, -4, 4, 65, 17, cfg)
        err = info.value
        assert "Picard stalled" in str(err)
        assert err.iterations <= cfg.max_iter // 3
        assert err.best_residual > cfg.tol
        assert 1 <= err.factorizations <= err.iterations

    def test_chord_matches_plain_picard(self, power_half, carrier_unit):
        # the chord loop converges to the fixed point of plain Picard steps
        # that factor afresh every time
        st = ns.solve_steady(power_half, carrier_unit, -8, 8, 129, 33,
                             ns.SolverConfig(tol=1e-12))
        ref = ns.solve_stokes(st.grid, carrier_unit, power_half)
        for _ in range(20):
            ref, res = ns.picard_step(ref)
            if res < 1e-11:
                break
        assert res < 1e-11
        scale = np.abs(ref.psi).max()
        assert np.abs(st.psi - ref.psi).max() <= 1e-10 * scale

    def test_converged_flag_and_history(self, poiseuille_state):
        assert poiseuille_state.converged
        assert poiseuille_state.residual_history[-1][1] < 1e-10
        assert poiseuille_state.diagnostics["energy_ratio_c0"] > 0

    def test_wall_streamfunction_values(self, power_state):
        # the flux constraint is Dirichlet data on psi
        assert np.abs(power_state.psi[:, 0]).max() < 1e-12
        assert np.abs(power_state.psi[:, -1] - 1.0).max() < 1e-12

    def test_carrier_bound_ratio_stable_across_truncations(
        self, straight, carrier_unit
    ):
        cfg = ns.SolverConfig(tol=1e-9)
        ratios = []
        for T in (6.0, 12.0):
            st = ns.solve_steady(
                straight, carrier_unit, -T, T, int(16 * T) + 1, 33, cfg
            )
            ratios.append(st.diagnostics["energy_ratio_c0"])
        assert abs(ratios[1] - ratios[0]) <= 0.5 * ratios[0]


class TestFactorReuse:
    def test_stokes_factor_seeds_chord_loop(self, splu_calls):
        # the factor of A(0) that gives the start vector is the first
        # chord factor; at flux 0.5 it carries the loop to tolerance
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        st = ns.solve_steady(bump, fc.CarrierParams(0.5), -6, 6, 97, 17)
        assert st.converged
        assert len(splu_calls) == 1

    def test_factor_carries_across_levels(self, straight, splu_calls):
        # flux 4 passes through 3 continuation levels on one grid; each
        # level starts from the last factor of the one before
        st = ns.solve_steady(straight, fc.CarrierParams(4.0), -6, 6, 97, 17)
        assert st.converged
        assert len(splu_calls) <= 3

    def test_nonconvergence_counts_seed_factor(self, straight, splu_calls):
        cfg = ns.SolverConfig(tol=1e-17)
        with pytest.raises(NonConvergence) as info:
            ns.solve_steady(straight, fc.CarrierParams(4.0), -6, 6, 97, 17,
                            cfg)
        assert info.value.factorizations == len(splu_calls)

    @pytest.mark.parametrize("bumped", [False, True])
    def test_constant_block_has_no_stored_zeros(self, straight, bumped):
        if bumped:
            profile = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
            grid = geo.make_grid(profile, -12, 12, 385, 49)
        else:
            profile = straight
            grid = geo.make_grid(profile, -4, 4, 65, 17)
        a = ns._Workspace(grid, fc.CarrierParams(0.5), profile).a_const
        assert np.count_nonzero(a.data) == a.nnz

    def test_constant_block_assembled_once(self, straight, monkeypatch):
        # flux 8 passes through 4 continuation levels; the flux enters only
        # the right-hand side, so the grid's constant block is assembled once
        assemble = ns._Workspace._assemble_constant
        calls = []

        def counting(self):
            calls.append(self.grid.nx)
            return assemble(self)

        monkeypatch.setattr(ns._Workspace, "_assemble_constant", counting)
        st = ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
        assert st.converged
        assert calls == [97]


def _colamd_factor(self, u1, u2):
    """Reference factor: COLAMD column order with partial pivoting."""
    a = self.a_const
    if u1 is not None:
        a = a + self.advection_matrix(u1, u2)
    return splu(a.tocsc())


def _natural_apply(self, lu, rhs):
    x = lu.solve(rhs)
    n = self.n
    return (x[:n].reshape(self.grid.nx, self.grid.ny),
            x[n:].reshape(self.grid.nx, self.grid.ny))


class TestNestedDissection:
    @pytest.mark.parametrize("nx, ny", [(8, 9), (65, 17), (96, 16), (385, 49)])
    def test_order_pairs_psi_and_omega_of_every_node(self, straight, nx, ny):
        grid = geo.make_grid(straight, -4, 4, nx, ny)
        perm = ns._Workspace(grid, fc.CarrierParams(0.5), straight).perm
        n = nx * ny
        assert np.array_equal(np.sort(perm), np.arange(2 * n))
        assert np.array_equal(perm[1::2], perm[0::2] + n)

    def test_stokes_fill_of_bump_grid(self):
        # COLAMD with partial pivoting fills L+U to 4,661,240 entries here
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        grid = geo.make_grid(bump, -12, 12, 385, 49)
        lu = ns._Workspace(grid, fc.CarrierParams(0.5), bump).factor(None, None)
        assert lu.L.nnz + lu.U.nnz <= 3_400_000

    @pytest.mark.parametrize("case", ["bump", "straight"])
    def test_solution_matches_colamd_partial_pivoting(self, straight, case,
                                                      monkeypatch):
        if case == "bump":
            profile = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
            args = (profile, fc.CarrierParams(0.5), -12, 12, 385, 49)
        else:
            args = (straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
        st = ns.solve_steady(*args)
        monkeypatch.setattr(ns._Workspace, "factor", _colamd_factor)
        monkeypatch.setattr(ns._Workspace, "apply", _natural_apply)
        ref = ns.solve_steady(*args)
        for got, want in ((st.psi, ref.psi), (st.omega, ref.omega)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("flux, factors, history", [
        (1.0, 1, 11), (4.0, 3, 13), (8.0, 10, 25), (12.0, 72, 61)])
    def test_counts_up_to_advection_dominated_flux(self, straight, splu_calls,
                                                   flux, factors, history):
        # the COLAMD, partial-pivot factor needed these counts; flux 12 has
        # cell Peclet numbers far above 2, where diagonal pivots could fail
        st = ns.solve_steady(straight, fc.CarrierParams(flux), -6, 6, 97, 17)
        assert st.converged
        assert len(splu_calls) <= factors
        # the bound is on the last continuation level, numbered from 0
        assert st.residual_history[-1][0] + 1 <= history


class TestEnergies:
    def test_poiseuille_energy_per_unit_length(self, poiseuille_state):
        # 3/2 phi^2 per unit length on the width-2 strip
        e = ns.dirichlet_energy(poiseuille_state, 0.0, 4.0)
        assert e == pytest.approx(6.0, rel=0.01)

    def test_additivity(self, power_state):
        a = ns.dirichlet_energy(power_state, 0.0, 2.0)
        b = ns.dirichlet_energy(power_state, 2.0, 4.0)
        tot = ns.dirichlet_energy(power_state, 0.0, 4.0)
        assert abs(a + b - tot) <= 1e-10 * tot

    def test_constant_weight_matches_plain_energy(self, power_state):
        grid = power_state.grid
        beta_star = 0.5
        w = ns.weighted_energy(power_state, lambda x: np.full_like(x, beta_star))
        e = ns.dirichlet_energy(
            power_state, grid.a, grid.b, of_perturbation=True
        )
        assert w == pytest.approx(beta_star * e, rel=1e-10)

    def test_zero_weight(self, power_state):
        assert ns.weighted_energy(power_state, lambda x: np.zeros_like(x)) == 0.0

    def test_incompressibility_second_order(self, power_half, carrier_unit):
        cfg = ns.SolverConfig(tol=1e-9)
        divs = []
        for nx, ny in [(129, 17), (257, 33)]:
            st = ns.solve_steady(power_half, carrier_unit, -6, 6, nx, ny, cfg)
            grid = st.grid
            du1 = ns._d1(st.u1, grid.hx, 0) + grid.j1 * ns._d1(st.u1, grid.hy, 1)
            du2 = ns._d1(st.u2, grid.hy, 1) / grid.f[:, None]
            mask = np.abs(grid.xi) <= 3.0
            divs.append(float(np.abs((du1 + du2)[mask, 1:-1]).max()))
        assert divs[0] / divs[1] > 3.0  # observed order ~ 2


class TestGridConvergence:
    def test_poiseuille_order_two(self, straight, carrier_unit):
        cfg = ns.SolverConfig(tol=1e-10)
        errs = []
        for nx, ny in [(65, 17), (129, 33)]:
            st = ns.solve_steady(straight, carrier_unit, -6, 6, nx, ny, cfg)
            mask = np.abs(st.grid.xi) <= 2.0
            errs.append(
                np.abs(st.u1[mask, :] - poiseuille_u1(st.grid.x2[mask, :])).max()
            )
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_truncation_independence(self, straight, carrier_unit):
        cfg = ns.SolverConfig(tol=1e-9)
        st_small = ns.solve_steady(straight, carrier_unit, -8, 8, 129, 33, cfg)
        st_big = ns.solve_steady(straight, carrier_unit, -16, 16, 257, 33, cfg)
        e_small = ns.dirichlet_energy(st_small, -4, 4)
        e_big = ns.dirichlet_energy(st_big, -4, 4)
        assert abs(e_small - e_big) <= 0.01 * e_big

    def test_curved_channel_self_convergence(self, power_half):
        # Richardson study in place of a manufactured solution (the solver
        # has no body-force hook); the carrier band is kept wide so the
        # end data stays resolved on the coarsest grid.  Observed order
        # sits near 1.75 at desk scale; Poiseuille meets 2.0 above.
        params = fc.CarrierParams(1.0, 0.9)
        cfg = ns.SolverConfig(tol=1e-9)
        sols = [
            ns.solve_steady(power_half, params, -4, 4, nx, ny, cfg)
            for nx, ny in [(129, 17), (257, 33), (513, 65)]
        ]
        c, m, f = sols
        mask_c = np.abs(c.grid.xi) <= 2.0
        mask_m = np.abs(m.grid.xi) <= 2.0
        d1 = np.abs((m.psi[::2, ::2] - c.psi)[mask_c]).max()
        d2 = np.abs((f.psi[::2, ::2] - m.psi)[mask_m]).max()
        assert np.log2(d1 / d2) >= 1.5


class TestContinuation:
    def test_continuation_for_large_flux(self, straight):
        params = fc.CarrierParams(5.0, 0.2)
        cfg = ns.SolverConfig(tol=1e-8, max_iter=120)
        st = ns.solve_steady(straight, params, -4, 4, 97, 33, cfg)
        assert st.converged
        fl = ns.slice_flux_profile(st)
        mask = np.abs(st.grid.xi) <= 1.0
        assert np.abs(fl[mask] - 5.0).max() < 5e-3
