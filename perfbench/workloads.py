"""Workloads of the casimirdiff benchmark.

Every workload is a closed loop with one client: the next request is sent
when the previous one returns.  All inputs (separations, oscillator
parameters, table rows) are drawn from the ``--seed`` argument; the library
receives only the generated inputs.  Request ``i`` draws its inputs from its
own generator seeded with ``(seed, workload, i)``, so the inputs of a request
do not depend on how many requests ran before it.

Why each workload exists, and which layer metric it is meant to move
(per-layer metrics come from the separate traced run).  Where an end-to-end
effect is named, ``request_s.min`` is the bounded latency; the printed
``request_s.p50`` and ``points_per_s`` move with it.

si-sweep
    The paper's main configuration: a gold-drude sphere (R = 100 um) over
    patterned Si (si-doped-n1 / si-doped-low) at 300 K.  A request is one
    41-point log-spaced curve; requests cycle through the four curves that
    ``casimirdiff compare`` computes for force and pressure (model a, model
    b).  Permittivity evaluation is only ~4% of a request here; per-term
    ``lifshitz`` overhead dominates.  Meant to move ``lifshitz.self_s``,
    ``lifshitz.us_per_term``, ``lifshitz.sum_ms`` and ``lifshitz.node_evals``
    (a batched thermal-sum kernel shows here), and with them
    ``request_s.min``.  A permittivity cache is predicted to leave this
    workload unchanged: ``materials.share`` is small.

vo2-tabulated
    Users replace the Drude probe with measured optical data.  The probe is
    a ``tabulated`` material: the seed draws 3 Lorentz oscillators, their
    Im eps is sampled on 4000 rows, written to a file and read back with
    ``load_optical_table``.  A request is one 11-point force curve over
    vo2-metal / vo2-insulator at 340 K, 100-300 nm.  The Kramers-Kronig
    transform re-runs at every Matsubara frequency of every separation, about
    three quarters of a request.  Meant to move ``materials.eval_s`` and ``materials.share``
    (a permittivity cache or a vectorised transform shows here), and with
    them ``request_s.min``; a ``lifshitz``-only change can save at most about
    a quarter of a request.

cryo-shift
    What ``casimirdiff shift`` does, at 77 K with the criterion-1
    cantilever: the five-point gradient of ``difference_force`` (4 sums) at a
    separation drawn per request in 100-300 nm, then ``resonance_shift`` and
    ``pressure_from_force_gradient``.  At 77 K a sum needs 128-329 Matsubara
    terms against at most 93 at 300 K, and the 4 separations of a stencil
    share one xi grid.  Meant to move ``lifshitz.terms_per_point`` (the
    stopping rule), ``experiment.sums_per_request`` and ``experiment.self_ms``
    (cross-separation batching), and with them ``request_s.min``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import casimirdiff as cd
from casimirdiff import experiment, lifshitz, materials

R_SPHERE = 100e-6

# Tolerances of the output checks; they hold for any seed.
GAP_IDENTITY_TOL = 1e-4  # same identity as the ``compare`` report
TABLE_AGREEMENT_TOL = 1e-3  # tabulated probe against its analytic oscillators
PRESSURE_MAPPING_TOL = 1e-3  # gradient-mapped against direct pressure
# every CHECK_EVERY-th cryo-shift request also gets a direct pressure sum
CHECK_EVERY = 40


@dataclass
class Outcome:
    """What one request computed, recorded with the run as provenance."""

    values: list[float]
    terms: list[int]
    extra: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return len(self.terms)


def _log_grid(z_min: float, z_max: float, n: int) -> tuple[float, ...]:
    return tuple(float(z) for z in np.logspace(math.log10(z_min), math.log10(z_max), n))


def _finite(outcome: Outcome) -> bool:
    numbers = list(outcome.values) + [v for v in outcome.extra.values() if isinstance(v, float)]
    return all(math.isfinite(v) for v in numbers)


class Workload:
    """One closed-loop workload.

    ``prepare`` writes benchmark-side inputs (files) and is not timed.
    ``setup`` is what a user pays before the first request: library imports
    are done by then, material builds and table loads happen here.
    ``inputs(i)`` draws request ``i``; ``execute`` runs it; ``check`` returns
    ``{request index: reason}`` for every request whose outputs are wrong.
    ``kind`` groups requests of like cost for ``request_s.min``.
    """

    name = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{i}")

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def execute(self, inp: dict) -> Outcome:
        raise NotImplementedError

    def check(self, records) -> dict[int, str]:
        raise NotImplementedError

    def kind(self, inp: dict) -> str:
        return self.name


class SiSweep(Workload):
    name = "si-sweep"
    T = 300.0
    POINTS = 41
    CYCLE = (("force", "a"), ("force", "b"), ("pressure", "a"), ("pressure", "b"))

    def setup(self) -> None:
        self.probe = materials.build_material("gold-drude")
        self.high = materials.build_material("si-doped-n1")
        self.low = materials.build_material("si-doped-low")
        self.grid = lifshitz.MatsubaraGrid(T=self.T)

    def inputs(self, i: int) -> dict:
        # the four curves of one cycle share their end points, so that the
        # model-a minus model-b gap can be checked
        cycle = i // len(self.CYCLE)
        rng = self.rng(f"cycle{cycle}")
        quantity, model = self.CYCLE[i % len(self.CYCLE)]
        return {
            "quantity": quantity,
            "model": model,
            "cycle": cycle,
            "z_min": 100e-9 * rng.uniform(0.97, 1.03),
            "z_max": 300e-9 * rng.uniform(0.97, 1.03),
        }

    def execute(self, inp: dict) -> Outcome:
        zs = _log_grid(inp["z_min"], inp["z_max"], self.POINTS)
        if inp["quantity"] == "force":
            curve = lifshitz.difference_force_curve(
                self.probe, self.high, self.low, R_SPHERE, zs, self.grid,
                low_freq_model=inp["model"],
            )
        else:
            curve = lifshitz.difference_pressure_curve(
                self.probe, self.high, self.low, zs, self.grid,
                low_freq_model=inp["model"],
            )
        return Outcome(list(curve.values), list(curve.metadata["l_terms_per_z"]))

    def kind(self, inp: dict) -> str:
        return f"{inp['quantity']}-{inp['model']}"

    def gap(self, quantity: str, z: float) -> float:
        eps0 = materials.with_dc_conductivity(self.low, False).static_permittivity()
        if quantity == "force":
            return lifshitz.zero_freq_gap_force(R_SPHERE, z, self.T, eps0)
        return lifshitz.zero_freq_gap_pressure(z, self.T, eps0)

    def check(self, records) -> dict[int, str]:
        bad = {}
        pairs: dict[tuple, dict] = {}
        for idx, rec in enumerate(records):
            if rec.outcome is None:  # raised: already counted as failed
                continue
            if not _finite(rec.outcome):
                bad[idx] = "non-finite value"
                continue
            inp = rec.inputs
            pairs.setdefault((inp["cycle"], inp["quantity"]), {})[inp["model"]] = idx
        for (_, quantity), by_model in pairs.items():
            if len(by_model) < 2:
                continue
            ia, ib = by_model["a"], by_model["b"]
            zs = _log_grid(records[ia].inputs["z_min"], records[ia].inputs["z_max"], self.POINTS)
            worst = max(
                abs((a - b) / self.gap(quantity, z) - 1.0)
                for z, a, b in zip(zs, records[ia].outcome.values, records[ib].outcome.values)
            )
            if not worst <= GAP_IDENTITY_TOL:
                reason = f"{quantity} model gap off the closed form by {worst:.2e}"
                bad[ia] = bad[ib] = reason
        return bad


def _lorentz_im_eps(omega, osc) -> np.ndarray:
    r = omega / osc["omega_ev"]
    g = osc["Gamma"]
    return osc["strength"] * g * r / ((1.0 - r * r) ** 2 + (g * r) ** 2)


class Vo2Tabulated(Workload):
    name = "vo2-tabulated"
    T = 340.0
    POINTS = 11
    ROWS = 4000

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        rng = self.rng("run")
        # 3 ultraviolet Lorentz oscillators.  The ranges are narrow because
        # the probe's reflectivity sets how many Matsubara terms a sum needs:
        # 1-10 eV ranges made a seed's work differ by +-5%, these by +-1.5%.
        self.oscillators = [
            {
                "omega_ev": 10.0 ** rng.uniform(math.log10(3.0), math.log10(6.0)),
                "Gamma": rng.uniform(0.2, 0.4),
                "strength": rng.uniform(1.0, 2.0),
            }
            for _ in range(3)
        ]
        self.table_path = workdir / f"table-{self.seed}.txt"

    def prepare(self) -> None:
        # sampled on a log grid from w_min/300 to w_max*300, as the
        # Kramers-Kronig round trip of acceptance criterion 9 does
        w = [o["omega_ev"] for o in self.oscillators]
        grid = np.logspace(math.log10(min(w) / 300.0), math.log10(max(w) * 300.0), self.ROWS)
        im = sum(_lorentz_im_eps(grid, o) for o in self.oscillators)
        lines = ["# photon energy (eV), Im eps: 3 seeded Lorentz oscillators"]
        lines += [f"{e!r} {v!r}" for e, v in zip(grid.tolist(), im.tolist())]
        self.table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup(self) -> None:
        table = materials.load_optical_table(self.table_path)
        self.probe = materials.build_material("tabulated", table=table, label="tabulated-probe")
        self.high = materials.build_material("vo2-metal")
        self.low = materials.build_material("vo2-insulator")
        self.grid = lifshitz.MatsubaraGrid(T=self.T)

    def inputs(self, i: int) -> dict:
        # one fixed grid: every request can be checked against one reference
        return {"z_min": 100e-9, "z_max": 300e-9}

    def _curve(self, probe, inp):
        zs = _log_grid(inp["z_min"], inp["z_max"], self.POINTS)
        return lifshitz.difference_force_curve(probe, self.high, self.low, R_SPHERE, zs, self.grid)

    def execute(self, inp: dict) -> Outcome:
        curve = self._curve(self.probe, inp)
        return Outcome(list(curve.values), list(curve.metadata["l_terms_per_z"]))

    def analytic_probe(self):
        return cd.PermittivityModel(
            label="oscillator-probe",
            oscillators=tuple(
                cd.OscillatorParams(
                    omega=cd.ev_to_rad_s(o["omega_ev"]), Gamma=o["Gamma"], strength=o["strength"]
                )
                for o in self.oscillators
            ),
        )

    def check(self, records) -> dict[int, str]:
        bad = {}
        reference = None
        for idx, rec in enumerate(records):
            if rec.outcome is None:  # raised: already counted as failed
                continue
            if not _finite(rec.outcome):
                bad[idx] = "non-finite value"
                continue
            if reference is None:
                reference = self._curve(self.analytic_probe(), rec.inputs).values
            worst = max(abs(v / r - 1.0) for v, r in zip(rec.outcome.values, reference))
            if not worst <= TABLE_AGREEMENT_TOL:
                bad[idx] = f"tabulated curve off the oscillator curve by {worst:.2e}"
        return bad


class CryoShift(Workload):
    name = "cryo-shift"
    T = 77.0

    def setup(self) -> None:
        self.probe = materials.build_material("gold-drude")
        self.high = materials.build_material("si-doped-n1")
        self.low = materials.build_material("si-doped-low")
        self.grid = lifshitz.MatsubaraGrid(T=self.T)
        # acceptance criterion 1
        self.cantilever = experiment.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=self.T)

    def inputs(self, i: int) -> dict:
        return {"z": self.rng(i).uniform(100e-9, 300e-9), "i": i}

    def kind(self, inp: dict) -> str:
        # 25 nm bands: the term count, and so the cost, falls with z
        return f"band{min(7, int((inp['z'] - 100e-9) / 25e-9))}"

    def execute(self, inp: dict) -> Outcome:
        values, terms = [], []

        def force(z: float) -> float:
            value, diag = lifshitz.difference_force(
                self.probe, self.high, self.low, R_SPHERE, z, self.grid,
                low_freq_model="a", with_diagnostics=True,
            )
            values.append(value)
            terms.append(diag.n_terms)
            return value

        gradient = experiment.five_point_gradient(force, inp["z"])
        shift = experiment.resonance_shift(self.cantilever, gradient)
        pressure = experiment.pressure_from_force_gradient(R_SPHERE, gradient)
        extra = {"gradient": gradient, "shift": shift, "pressure": pressure}
        return Outcome(values, terms, extra)

    def check(self, records) -> dict[int, str]:
        bad = {}
        for idx, rec in enumerate(records):
            out, inp = rec.outcome, rec.inputs
            if out is None:  # raised: already counted as failed
                continue
            if not _finite(out):
                bad[idx] = "non-finite value"
                continue
            # stencil order is z-2h, z-h, z+h, z+2h: attractive and decaying
            f = out.values
            if not (f[0] < f[1] < f[2] < f[3] < 0.0):
                bad[idx] = "stencil forces not attractive and monotonically decaying"
                continue
            if not (out.extra["gradient"] > 0.0 and out.extra["pressure"] < 0.0
                    and out.extra["shift"] < 0.0):
                bad[idx] = "gradient, shift or pressure has the wrong sign"
                continue
            if inp["i"] % CHECK_EVERY == 0:
                direct = lifshitz.difference_pressure(
                    self.probe, self.high, self.low, inp["z"], self.grid, low_freq_model="a"
                )
                dev = abs(out.extra["pressure"] / direct - 1.0)
                if not dev <= PRESSURE_MAPPING_TOL:
                    bad[idx] = f"gradient-mapped pressure off the direct sum by {dev:.2e}"
        return bad


WORKLOADS = {cls.name: cls for cls in (SiSweep, Vo2Tabulated, CryoShift)}
