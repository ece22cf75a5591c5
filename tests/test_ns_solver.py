import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from channellab import cli_io
from channellab import estimate_harness as eh
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import LinearSolveFailure, NonConvergence, OutOfRange

from conftest import poiseuille_psi, poiseuille_u1


class TestConfig:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            ns.SolverConfig(tol=0.0)

    @pytest.mark.parametrize("kwargs", [{"tol": float("nan")}])
    def test_no_step_or_no_stop_is_rejected(self, kwargs):
        # a nan tol can never be met; the step cap is no field, so no
        # config can ask for no step
        with pytest.raises(OutOfRange):
            ns.SolverConfig(**kwargs)


class TestOperators:
    """The 1-D difference matrices against a field they differentiate
    exactly: psi biquadratic in (xi, eta) on a curved mapped grid."""

    @pytest.fixture
    def field(self, power_half):
        grid = geo.make_grid(power_half, -3, 3, 33, 17)
        x, e = np.meshgrid(grid.xi, grid.eta, indexing="ij")
        c = [0.3, -1.1, 0.7, 0.45, -0.8, 1.3, 0.25, -0.6, 0.9]
        psi = (c[0] + c[1] * x + c[2] * e + c[3] * x**2 + c[4] * x * e
               + c[5] * e**2 + c[6] * x**2 * e + c[7] * x * e**2
               + c[8] * x**2 * e**2)
        derivatives = {
            "x": c[1] + 2 * c[3] * x + c[4] * e + 2 * c[6] * x * e
                 + c[7] * e**2 + 2 * c[8] * x * e**2,
            "e": c[2] + c[4] * x + 2 * c[5] * e + c[6] * x**2
                 + 2 * c[7] * x * e + 2 * c[8] * x**2 * e,
            "xx": 2 * c[3] + 2 * c[6] * e + 2 * c[8] * e**2,
            "xe": c[4] + 2 * c[6] * x + 2 * c[7] * e + 4 * c[8] * x * e,
            "ee": 2 * c[5] + 2 * c[7] * x + 2 * c[8] * x**2,
        }
        return grid, psi, derivatives

    def test_constant_block_interior_rows_are_the_mapped_laplacian(self, field,
                                                                   power_half):
        grid, psi, d = field
        ws = ns._Workspace(grid, fc.CarrierParams(1.0))
        n = ws.n
        rows = (ws.a_const @ np.concatenate([psi.ravel(), np.zeros(n)]))[:n]
        lap = (d["xx"] + 2 * grid.j1 * d["xe"]
               + (grid.j1**2 + 1 / grid.f[:, None]**2) * d["ee"]
               + grid.lap_s * d["e"])
        got = rows.reshape(grid.nx, grid.ny)[1:-1, 1:-1]
        want = lap[1:-1, 1:-1]
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_velocity_and_gradients_at_every_node(self, field, power_half):
        grid, psi, d = field
        f, fp, j1 = grid.f[:, None], grid.fp[:, None], grid.j1
        u1, u2 = ns.velocity_from_psi(grid, psi)
        state = ns.FlowState(grid=grid, params=fc.CarrierParams(1.0), psi=psi,
                             omega=np.zeros_like(psi), u1=u1, u2=u2)
        got = (u1, u2) + ns.velocity_gradients(state)
        want = (
            d["e"] / f,
            -(d["x"] + j1 * d["e"]),
            d["xe"] / f - d["e"] * fp / f**2 + j1 * d["ee"] / f,
            d["ee"] / f**2,
            -(d["xx"] + 2 * j1 * d["xe"] + j1**2 * d["ee"]
              + grid.lap_s * d["e"]),
            -(d["xe"] - fp / f * d["e"] + j1 * d["ee"]) / f,
        )
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


class TestStokes:
    def test_poiseuille_recovered_in_interior(self, straight, carrier_unit):
        grid = geo.make_grid(straight, -8, 8, 257, 33)
        st = ns.solve_stokes(grid, carrier_unit)
        mask = np.abs(grid.xi) <= 4.0
        err = np.abs(st.u1[mask, :] - poiseuille_u1(grid.x2[mask, :])).max()
        # ny=33: one-sided wall stencil bias (h^2/3)|psi'''| ~ 2e-3
        assert err < 2.5e-3
        errp = np.abs(st.psi[mask, :] - poiseuille_psi(grid.x2[mask, :])).max()
        assert errp < 2e-4

    def test_zero_flux_gives_zero_field(self, straight):
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        st = ns.solve_stokes(grid, fc.CarrierParams(0.0, 0.5))
        assert np.abs(st.psi).max() == 0.0
        assert np.abs(st.omega).max() == 0.0


class TestPicard:
    def test_poiseuille_is_discrete_fixed_point(self, straight, carrier_unit):
        # the nodal shear flow solves every interior equation exactly
        grid = geo.make_grid(straight, -6, 6, 97, 25)
        psi = poiseuille_psi(grid.x2)
        omega = 1.5 * grid.x2
        state = ns.state_from_fields(grid, carrier_unit, psi, omega)
        ws = ns._Workspace(grid, carrier_unit)
        assert ns.residual_norm(state, ws) < 1e-12

    def test_fixed_point_state_unchanged(self, poiseuille_state):
        st = poiseuille_state
        ws = ns._Workspace(st.grid, st.params)
        new, res = ns.picard_step(st, ws)
        assert res < 1e-9
        assert np.abs(new.psi - st.psi).max() < 1e-9

    def test_zero_flux_stays_zero(self, straight):
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        params = fc.CarrierParams(0.0, 0.5)
        st = ns.solve_stokes(grid, params)
        new, res = ns.picard_step(st, ns._Workspace(grid, params))
        assert np.abs(new.psi).max() == 0.0
        assert res == 0.0

    def test_zero_data_step_keeps_the_held_factor(self, straight, splu_calls):
        # A x = 0 is solved exactly by x = 0, so neither the Stokes
        # start nor a plain step on zero data factors anything: the
        # workspace holds no factor before the step or after it
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        params = fc.CarrierParams(0.0, 0.5)
        ws = ns._Workspace(grid, params)
        assert np.abs(ws.stokes().psi).max() == 0.0
        rng = np.random.default_rng(3)
        st = ns.state_from_fields(grid, params, rng.normal(size=(65, 17)),
                                  rng.normal(size=(65, 17)))
        lu = ws.lu
        new, res = ns.picard_step(st, ws)
        assert len(splu_calls) == 0 and ws.lu is lu is None
        assert np.abs(new.psi).max() == 0.0
        assert np.abs(new.omega).max() == 0.0
        assert res == 0.0

    @pytest.mark.parametrize("chord", [False, True])
    def test_step_leaves_the_history_to_the_loop(self, poiseuille_state,
                                                 chord):
        # _picard alone records (step, residual); a step copies nothing
        st = poiseuille_state
        assert st.residual_history
        ws = ns._Workspace(st.grid, st.params)
        ws.factor(None, None)
        new, _ = ns.picard_step(st, ws, chord)
        assert new.residual_history == []


class TestResidual:
    def test_blocks_exact_on_quadratic_fields(self):
        # central differences are exact on fields quadratic in (xi, eta), so
        # every block of r = b - A(u) x has a closed form on the curved grid
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        grid = geo.make_grid(bump, -6, 6, 49, 13)
        ws = ns._Workspace(grid, fc.CarrierParams(2.0))
        hy = grid.eta_axis.h
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
        state = ns.FlowState(grid=grid, params=fc.CarrierParams(2.0),
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
        want_psi[0] = fc.stream_G(left, state.params, bump) - psi[0]
        want_psi[-1] = fc.stream_G(right, state.params, bump) - psi[-1]
        want_psi[:, 0] = -psi[:, 0]
        want_psi[:, -1] = 2.0 - psi[:, -1]
        want_om[0] = fc.carrier_vorticity(left, state.params, bump) - omega[0]
        want_om[-1] = fc.carrier_vorticity(right, state.params, bump) - omega[-1]

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
        ws = ns._Workspace(grid, params)
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
            offset = ns._Workspace(grid, params)
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
        # with the constant block, and each state gets one history entry.
        # Only the block itself counts: the slices of the factor's block
        # split inherit its class but are no residual products.
        products, states, blocks = [], [], []
        assemble = ns._Workspace._assemble_constant
        residual_norm = ns.residual_norm

        class Counted(sparse.csr_matrix):
            def __matmul__(self, other):
                if any(self is block for block in blocks):
                    products.append(1)
                return super().__matmul__(other)

        def counted(self):
            blocks.append(Counted(assemble(self)))
            return blocks[-1]

        def norm(state, workspace):
            states.append(state)
            return residual_norm(state, workspace)

        monkeypatch.setattr(ns._Workspace, "_assemble_constant", counted)
        monkeypatch.setattr(ns, "residual_norm", norm)
        st = ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
        assert len(products) == len(states) == len({id(s) for s in states})
        assert len(states) == len(st.residual_history)
        # flux 8 runs one loop: its entries are numbered 0..n-1 once
        iterations = [i for i, _ in st.residual_history]
        assert iterations == list(range(len(iterations)))


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
        margin_lo = grid.a + float(power_state.grid.profile.width(grid.a))
        margin_hi = grid.b - float(power_state.grid.profile.width(grid.b))
        mask = (grid.xi >= margin_lo) & (grid.xi <= margin_hi)
        # quadrature floor ~ (1/32)^4 |psi^(5)| at ny=33; the
        # acceptance suite pins 1e-6 at ny=65
        assert np.abs(fl[mask] - 1.0).max() < 1e-5

    def test_zero_flux_zero_energy(self, straight):
        st = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -4, 4, 65, 17
        )
        assert ns.dirichlet_energy(st, -4, 4) == 0.0

    def test_nonconvergence_is_reported(self, straight, carrier_unit,
                                        monkeypatch):
        monkeypatch.setattr(ns, "_MAX_STEPS", 1)
        cfg = ns.SolverConfig(tol=1e-9)
        with pytest.raises(NonConvergence) as info:
            ns.solve_steady(straight, carrier_unit, -6, 6, 97, 25, cfg)
        assert info.value.best_residual is not None

    def test_stagnation_below_floor_raises_early(self, straight, carrier_unit):
        # tol 1e-17 lies below the round-off floor: the chord loop must
        # give up once the residual stops halving, not spin to _MAX_STEPS
        # (120; it stops after 18 steps)
        cfg = ns.SolverConfig(tol=1e-17)
        with pytest.raises(NonConvergence) as info:
            ns.solve_steady(straight, carrier_unit, -4, 4, 65, 17, cfg)
        err = info.value
        assert "Picard stalled" in str(err)
        assert err.iterations <= 20
        assert err.best_residual > cfg.tol
        assert 1 <= err.factorizations <= err.iterations

    def test_chord_matches_plain_picard(self, power_half, carrier_unit,
                                        monkeypatch):
        # the chord loop converges to the fixed point of plain Picard steps
        # that factor afresh every time.  Those steps have no refinement,
        # so they run on the coupled reference factor, whose one solve
        # lands nearer round-off than the Schur complement's back-solve.
        st = ns.solve_steady(power_half, carrier_unit, -8, 8, 129, 33,
                             ns.SolverConfig(tol=1e-12))
        monkeypatch.setattr(ns._Workspace, "factor", _colamd_factor)
        monkeypatch.setattr(ns._Workspace, "apply", _natural_apply)
        ref = ns.solve_stokes(st.grid, carrier_unit)
        ws = ns._Workspace(st.grid, carrier_unit)
        for _ in range(20):
            ref, res = ns.picard_step(ref, ws)
            if res < 1e-11:
                break
        assert res < 1e-11
        scale = np.abs(ref.psi).max()
        assert np.abs(st.psi - ref.psi).max() <= 1e-10 * scale

    @pytest.mark.parametrize("wall, params, b, nx, ny, entries", [
        ("straight", fc.CarrierParams(8.0), 6, 97, 17, 34),
        ("power_half", fc.CarrierParams(1.0, 0.5), 8, 129, 33, 14)])
    def test_tight_tol_stays_above_the_round_off_floor(
            self, request, wall, params, b, nx, ny, entries):
        # the uniqueness probe's tol 1e-12 converges in as many steps as on
        # the coupled factor: the Schur back-solve's round-off floor (at tol
        # 1e-14 it stalls at 4.6e-13 and 3.3e-14 here, against 6.9e-14 and
        # 3.0e-14 coupled) stays below it
        st = ns.solve_steady(request.getfixturevalue(wall), params, -b, b, nx,
                             ny, ns.SolverConfig(tol=1e-12))
        assert len(st.residual_history) == entries

    def test_converged_flag_and_history(self, poiseuille_state):
        # a returned state has converged (or solve_steady raises): its
        # history ends below the tolerance
        assert poiseuille_state.residual_history[-1][1] < 1e-10
        assert ns.energy_diagnostics(poiseuille_state, -8.0,
                                     8.0)["energy_ratio_c0"] > 0

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
            ratios.append(ns.energy_diagnostics(st, -T, T)["energy_ratio_c0"])
        assert abs(ratios[1] - ratios[0]) <= 0.5 * ratios[0]


class TestFactorReuse:
    def test_stokes_factor_seeds_chord_loop(self, splu_calls):
        # the factor of A(0) that gives the start vector is the first
        # chord factor; at flux 0.5 it carries the loop to tolerance
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        ns.solve_steady(bump, fc.CarrierParams(0.5), -6, 6, 97, 17)
        assert len(splu_calls) == 1

    def test_factor_carries_through_the_loop(self, straight, splu_calls):
        # flux 4 starts its chord loop on the Stokes factor A(0) and
        # refactors only where a chord step does not halve the defect
        ns.solve_steady(straight, fc.CarrierParams(4.0), -6, 6, 97, 17)
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
        a = ns._Workspace(grid, fc.CarrierParams(0.5)).a_const
        assert np.count_nonzero(a.data) == a.nnz

    @pytest.mark.parametrize("run", ["solve_steady", "probe"])
    def test_constant_block_assembled_once(self, straight, monkeypatch, run):
        # the flux enters only the right-hand side, so the grid's constant
        # block is assembled once for the whole flux-8 loop.  The probe's
        # two starts at flux 3 share one block as well.
        assemble = ns._Workspace._assemble_constant
        calls = []

        def counting(self):
            calls.append(self.grid.nx)
            return assemble(self)

        monkeypatch.setattr(ns._Workspace, "_assemble_constant", counting)
        if run == "probe":
            assert eh.uniqueness_probe(straight, 3.0, -4, 4, nx=65,
                                       ny=17).unique
            assert calls == [65]
        else:
            ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
            assert calls == [97]

    @pytest.mark.parametrize("run", ["solve_steady", "probe-0", "probe-5"])
    def test_one_live_factor(self, straight, monkeypatch, run):
        # the factor being replaced is released before the new one is
        # built: no factor is live when SuperLU starts another, and none
        # once the solve returns
        live, at_factor = weakref.WeakSet(), []
        splu_ = ns.splu

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        def tracked(*args, **kwargs):
            at_factor.append(len(live))
            factor = Factor(splu_(*args, **kwargs))
            live.add(factor)
            return factor

        monkeypatch.setattr(ns, "splu", tracked)
        if run == "solve_steady":
            ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
        elif run == "probe-0":
            assert eh.uniqueness_probe(straight, 0.0, -4, 4, nx=65,
                                       ny=17).unique
        else:
            assert eh.uniqueness_probe(straight, 5.0, -4, 4, nx=65,
                                       ny=17).unique
        # flux 0 has no data, so x = 0 solves every step without a factor
        assert len(at_factor) == 0 if run == "probe-0" else len(at_factor) >= 2
        assert at_factor == [0] * len(at_factor)
        assert not live

    def test_first_solve_with_data_factors_once(self, straight, splu_calls):
        # the factor is lazy only for zero data: the Stokes start and a
        # plain step on a workspace without a factor each factor once
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        params = fc.CarrierParams(0.5)
        st = ns._Workspace(grid, params).stokes()
        assert len(splu_calls) == 1
        assert np.abs(st.psi).max() > 0.0
        ws = ns._Workspace(grid, params)
        ns.picard_step(st, ws)
        assert len(splu_calls) == 2 and ws.lu is not None

    def test_nan_data_reach_the_non_finite_check(self, straight, splu_calls):
        # a NaN is not zero data: the step factors and the solve rejects it
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        params = fc.CarrierParams(0.0)
        ws = ns._Workspace(grid, params)
        ws.rhs = np.where(np.arange(len(ws.rhs)) == 0, np.nan, ws.rhs)
        st = ns.state_from_fields(grid, params, np.zeros((65, 17)),
                                  np.zeros((65, 17)))
        with pytest.raises(LinearSolveFailure):
            ns.picard_step(st, ws)
        assert len(splu_calls) == 1

    @pytest.mark.parametrize("run, built", [("probe-0.1", False),
                                            ("solve-8", True)])
    def test_advection_matrix_only_for_a_refresh(self, straight, monkeypatch,
                                                 splu_calls, run, built):
        # the residual applies advection from the stencils, so only a
        # refresh, which factors A(u) at a moving velocity, builds the
        # advection matrix's column indices and row pointers
        workspaces = []
        init = ns._Workspace.__init__

        def recording(self, *args):
            workspaces.append(self)
            init(self, *args)

        monkeypatch.setattr(ns._Workspace, "__init__", recording)
        if run == "probe-0.1":
            assert eh.uniqueness_probe(straight, 0.1, -6, 6, nx=129,
                                       ny=33).unique
            assert len(splu_calls) == 1
        else:
            ns.solve_steady(straight, fc.CarrierParams(8.0), -6, 6, 97, 17)
            assert len(splu_calls) > 1
        assert len(workspaces) == 1
        assert ("_advection_index" in vars(workspaces[0])) == built


def _kron_rows(weights, matrix):
    """diag(weights) @ matrix in CSR, weights per node."""
    return (sparse.diags(np.ravel(weights).astype(float)) @ matrix).tocsr()


def _kron_constant(ws):
    """Reference A(0) from Kronecker products of the 1-D difference
    matrices, rows scaled by the metric, and a LIL wall block."""
    grid = ws.grid
    nx, ny = grid.nx, grid.ny
    d1x, s1x, d2x, s2x = grid.xi_axis.differences
    d1y, s1y, d2y, s2y = grid.eta_axis.differences
    eye_x, eye_y = sparse.identity(nx), sparse.identity(ny)
    cyy = grid.j1**2 + 1.0 / grid.f[:, None] ** 2
    interior = ws._interior
    lap = _kron_rows(
        interior, sparse.kron(d2x, eye_y) / s2x
        + _kron_rows(2.0 * grid.j1 / (s1x * s1y), sparse.kron(d1x, d1y))
        + _kron_rows(cyy / s2y, sparse.kron(eye_x, d2y))
        + _kron_rows(grid.lap_s / s1y, sparse.kron(eye_x, d1y)))
    diagonal = lap + sparse.diags((~interior).astype(float))
    wall = sparse.lil_matrix((ny, ny))
    wall[0, [0, 1, 2]] = wall[ny - 1, [ny - 1, ny - 2, ny - 3]] = [-7, 8, -1]
    closure = np.zeros((nx, ny))
    closure[1:-1, [0, -1]] = cyy[1:-1, [0, -1]] / (2.0 * s2y)
    return sparse.bmat(
        [[diagonal, sparse.diags(interior.astype(float))],
         [_kron_rows(closure, sparse.kron(eye_x, wall)), diagonal]],
        format="csr")


def _kron_advection(ws, u1, u2):
    """Reference advection matrix: the complex Kronecker sum
    D1x x I + i I x D1y on the interior rows, its xi slots scaled by
    u1 / 2hx and its eta slots by (u1 J1 + u2 / f) / 2hy."""
    grid, n = ws.grid, ws.n
    d1x, s1x, _, _ = grid.xi_axis.differences
    d1y, s1y, _, _ = grid.eta_axis.differences
    eye_x, eye_y = sparse.identity(grid.nx), sparse.identity(grid.ny)
    slots = _kron_rows(ws._interior, sparse.kron(d1x, eye_y)
                       + 1j * sparse.kron(eye_x, d1y))
    slots.sort_indices()
    per_row = np.diff(slots.indptr)
    a_xi, a_eta = (np.repeat(a.ravel(), per_row) for a in (
        u1 / s1x, (u1 * grid.j1 + u2 / grid.f[:, None]) / s1y))
    weights = np.where(slots.data.imag != 0.0, a_eta, a_xi)
    return sparse.csr_matrix(
        (weights * -(slots.data.real + slots.data.imag), slots.indices + n,
         np.concatenate([np.zeros(n, int), slots.indptr])),
        shape=(2 * n, 2 * n))


def _lil_differences(axis):
    n = len(axis.nodes)
    d1 = sparse.diags([-1.0, 1.0], [-1, 1], shape=(n, n), format="lil")
    d2 = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="lil")
    for d, end, mirror in ((d1, [-3.0, 4.0, -1.0], -1.0),
                           (d2, [2.0, -5.0, 4.0, -1.0], 1.0)):
        d[0, :len(end)] = end
        d[n - 1, n - 1 - np.arange(len(end))] = mirror * np.array(end)
    return d1.tocsr(), 2 * axis.h, d2.tocsr(), axis.h**2


def _assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestAssembly:
    """The constant block and the advection matrix, built from the axes'
    stencils, bit for bit against the Kronecker assembly."""

    WINDOWS = {
        "straight-257x65": (geo.straight(d0=1.0), -8, 8, 257, 65),
        "straight-97x33": (geo.straight(d0=1.0), -6, 6, 97, 33),
        # a wall corner at x1 = 0
        "power_law-97x33": (geo.power_law(d0=1.0, alpha=0.5), -6, 6, 97, 33),
    }

    @pytest.fixture(params=["bump_outlet", "custom_walls", "straight",
                            "widening", *WINDOWS])
    def grid(self, request):
        if request.param in self.WINDOWS:
            return geo.make_grid(*self.WINDOWS[request.param])
        sc = cli_io.parse_scenario(SCENARIOS / f"{request.param}.scn",
                                   environ={})
        return geo.make_grid(sc.profile, *sc.grid_window)

    def test_constant_block_matches_kronecker(self, grid):
        ws = ns._Workspace(grid, fc.CarrierParams(1.0))
        _assert_same_csr(ws.a_const, _kron_constant(ws))

    def test_advection_pattern_matches_kronecker(self, grid):
        # pattern and values, at seeded random velocities
        ws = ns._Workspace(grid, fc.CarrierParams(1.0))
        u1, u2 = np.random.default_rng(5).standard_normal(
            (2, grid.nx, grid.ny))
        _assert_same_csr(ws.advection_matrix(u1, u2),
                         _kron_advection(ws, u1, u2))

    def test_residual_matches_advection_matrix(self, grid):
        # the residual's stencil advection against the advection matrix,
        # bit for bit, at seeded random fields
        ws = ns._Workspace(grid, fc.CarrierParams(1.0))
        rng = np.random.default_rng(11)
        st = ns.state_from_fields(grid, ws.params,
                                  *rng.standard_normal((2, grid.nx, grid.ny)))
        x = np.concatenate([st.psi.ravel(), st.omega.ravel()])
        want = (ws.rhs - ws.a_const @ x
                - ws.advection_matrix(st.u1, st.u2) @ x)
        assert np.array_equal(ws.residual(st), want)

    @pytest.mark.parametrize("n", [8, 9, 33, 65, 385])
    def test_axis_differences_match_lil(self, n):
        axis = geo.Axis(np.linspace(-2.0, 3.0, n))
        got, want = axis.differences, _lil_differences(axis)
        for g, w in zip(got[::2], want[::2]):
            _assert_same_csr(g, w)
        assert got[1::2] == want[1::2]


def _colamd_factor(self, u1, u2):
    """Reference factor: COLAMD column order with partial pivoting."""
    self.lu = None
    a = self.a_const
    if u1 is not None:
        a = a + self.advection_matrix(u1, u2)
    self.lu = splu(a.tocsc())


def _natural_apply(self, rhs):
    x = self.lu.solve(rhs)
    n = self.n
    return (x[:n].reshape(self.grid.nx, self.grid.ny),
            x[n:].reshape(self.grid.nx, self.grid.ny))


class TestNestedDissection:
    """The psi-only Schur factor that replaced the nested-dissection order
    of the coupled matrix: its block split, its fill, and its solutions and
    counts against the coupled factors."""

    @pytest.mark.parametrize("moving", [False, True])
    @pytest.mark.parametrize("wall", ["straight", "power_half", "bump"])
    def test_split_is_unit_plus_nilpotent(self, request, wall, moving):
        # A(u)[rows][:, cols] = I + N with N @ N = 0, so I - N inverts it;
        # advection enters none of those rows, so W holds at every u
        if wall == "bump":
            profile = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        else:
            profile = request.getfixturevalue(wall)
        grid = geo.make_grid(profile, -6, 6, 97, 17)
        ws = ns._Workspace(grid, fc.CarrierParams(2.0))
        n, a = ws.n, ws.a_const
        if moving:
            st = ws.stokes()
            adv = ws.advection_matrix(st.u1, st.u2)
            assert np.count_nonzero(adv.data) > 0
            assert np.count_nonzero(adv[ws.rows].data) == 0
            a = a + adv
        block = a[ws.rows][:, ws.cols]
        assert np.array_equal(block.diagonal(), np.ones(len(ws.rows)))
        nil = block - sparse.identity(len(ws.rows))
        assert np.count_nonzero(nil.data) > 0
        assert np.count_nonzero((nil @ nil).data) == 0
        # every unknown is kept or paired once, every row is split once
        assert np.array_equal(np.sort(np.concatenate([ws.cols, ws.keep])),
                              np.arange(2 * n))
        assert np.array_equal(np.sort(np.concatenate([ws.rows, n + ws.keep])),
                              np.arange(2 * n))
        # the block elimination solves A(u) x = b at the factored u, up to
        # the round-off of the biharmonic-like complement (1.0e-11 relative
        # on the power_law grid; the chord steps refine it away)
        ws.factor(*((st.u1, st.u2) if moving else (None, None)))
        x = ws.apply(ws.rhs).ravel()
        assert np.abs(a @ x - ws.rhs).max() <= 1e-10 * np.abs(ws.rhs).max()

    @staticmethod
    def _stokes_counts(profile, a, b, nx, ny):
        """Entries of A(0) and of the L+U of its Schur complement, which
        SuperLU factors with no row swapped: a stored zero or a changed
        pattern in A(0) moves them."""
        grid = geo.make_grid(profile, a, b, nx, ny)
        ws = ns._Workspace(grid, fc.CarrierParams(0.5))
        ws.factor(None, None)
        assert np.array_equal(ws.lu.perm_r, ws.lu.perm_c)
        return ws.a_const.nnz, ws.lu.L.nnz + ws.lu.U.nnz

    def test_stokes_fill_of_bump_grid(self):
        # the coupled A(0) filled L+U to 3,258,329 entries in nested
        # dissection and to 4,661,240 under COLAMD with partial pivoting
        bump = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4)
        assert self._stokes_counts(bump, -12, 12, 385, 49) == (248_405,
                                                              2_340_723)

    def test_stokes_fill_of_straight_grid(self, straight):
        # the coupled A(0) filled L+U to 96,973 entries under minimum degree
        assert self._stokes_counts(straight, -6, 6, 97, 17) == (16_693,
                                                               74_922)

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
        (1.0, 1, 11), (4.0, 3, 40), (8.0, 10, 75), (12.0, 72, 161)])
    def test_counts_up_to_advection_dominated_flux(self, straight, splu_calls,
                                                   flux, factors, history):
        # the COLAMD, partial-pivot factor needed these factor counts, and a
        # ladder of flux levels these history entries; flux 12 has cell
        # Peclet numbers far above 2, where diagonal pivots could fail
        st = ns.solve_steady(straight, fc.CarrierParams(flux), -6, 6, 97, 17)
        assert len(splu_calls) <= factors
        assert len(st.residual_history) <= history

    def test_counts_on_a_curved_wall(self, splu_calls):
        # nine-point stencil at flux 8: a ladder of flux levels needed these
        # counts
        profile = geo.linear_widen(1.0, 0.3)
        st = ns.solve_steady(profile, fc.CarrierParams(8.0), -6, 6, 97, 33)
        assert len(splu_calls) <= 14
        assert len(st.residual_history) <= 78


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
            d1x, s1x, _, _ = grid.xi_axis.differences
            d1y, s1y, _, _ = grid.eta_axis.differences
            du1 = d1x @ st.u1 / s1x + grid.j1 * (st.u1 @ d1y.T / s1y)
            du2 = st.u2 @ d1y.T / s1y / grid.f[:, None]
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


class TestLargeFlux:
    def test_one_loop_reaches_large_flux(self, straight):
        # the chord loop starts from the Stokes state at flux 5 itself
        params = fc.CarrierParams(5.0, 0.2)
        cfg = ns.SolverConfig(tol=1e-8)
        st = ns.solve_steady(straight, params, -4, 4, 97, 33, cfg)
        fl = ns.slice_flux_profile(st)
        mask = np.abs(st.grid.xi) <= 1.0
        assert np.abs(fl[mask] - 5.0).max() < 5e-3
