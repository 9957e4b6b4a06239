"""Monte-Carlo transient driver.

:class:`MonteCarloEngine` is the reproduction's stand-in for "HSPICE with
10k MC samples": it draws process parameters, integrates one transition
of a device-level netlist for every sample at once, extends the time
window until the slowest samples settle, and measures per-sample delay
and output slew.

It serves three callers:

* **cell characterization** (:mod:`repro.cells.characterize`) — a cell
  arc driven by an ideal ramp into a capacitive load;
* **wire analysis** — a driver cell + RC tree + load cell, measuring the
  wire (root→leaf) delay with ``reference_node``;
* **golden path Monte-Carlo** (:mod:`repro.baselines.golden`) — stages
  chained with :class:`~repro.spice.netlist.SampledWaveformSource`
  waveforms and shared :class:`~repro.variation.sampling.GlobalDraws`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.perf import PerfCounters
from repro.spice.measure import (
    crossing_time,
    fraction_settled,
    measure_slew,
)
from repro.spice.netlist import (
    PiecewiseLinearSource,
    SampledWaveformSource,
    TransistorNetlist,
)
from repro.spice.transient import TransientResult, TransientSolver
from repro.units import PS
from repro.variation.parameters import Technology, VariationModel
from repro.variation.sampling import GlobalDraws, MonteCarloSampler, ParameterSample


@dataclass
class SimulationSetup:
    """Everything needed to simulate and measure one switching arc.

    Attributes
    ----------
    netlist:
        Device-level netlist. The input node must already be fixed to
        its stimulus (ramp / per-sample waveform), and any side inputs
        fixed to their static values.
    input_node / output_node:
        Nodes between which the 50 %→50 % delay is measured (unless
        ``reference_node`` overrides the "from" side).
    input_rising / output_rising:
        Transition directions at the measurement nodes.
    reference_node / reference_rising:
        When set, delay is measured from this node's 50 % crossing
        instead of the input's — used for wire (root→leaf) delay where
        the launch point is the driver cell's output.
    initial_voltages:
        Pre-settle initial guesses for unknown nodes (defaults to 0 V
        for unlisted nodes; the DC settle fixes the rest).
    wire_variation:
        Apply per-sample R/C scaling to wire resistors and explicit
        capacitors (ignored if the netlist has none).
    record_extra:
        Additional node names to record (for debugging or chaining).
    input_end_hint:
        Latest time at which the stimulus is still moving. Required only
        for generic callables; PWL and sampled-waveform sources report
        it themselves.
    """

    netlist: TransistorNetlist
    input_node: str
    output_node: str
    input_rising: bool
    output_rising: bool
    reference_node: Optional[str] = None
    reference_rising: Optional[bool] = None
    initial_voltages: Dict[str, float] = field(default_factory=dict)
    wire_variation: bool = True
    record_extra: Tuple[str, ...] = ()
    input_end_hint: Optional[float] = None


@dataclass
class DelaySamples:
    """Per-sample measurement results of one arc.

    Attributes
    ----------
    delay:
        ``(n_samples,)`` 50–50 delays in seconds (NaN = not measurable).
    output_slew:
        ``(n_samples,)`` 20–80 output transition times in seconds.
    t_launch / t_capture:
        Absolute 50 % crossing times at the "from" and output nodes.
    result:
        The recorded waveforms (None when dropped to save memory).
    """

    delay: np.ndarray
    output_slew: np.ndarray
    t_launch: np.ndarray
    t_capture: np.ndarray
    result: Optional[TransientResult] = None

    @property
    def valid(self) -> np.ndarray:
        """Boolean mask of samples with finite delay *and* finite slew.

        Invariant: a sample is valid iff both measurements are finite —
        NaN (unsettled / never crossed) and ±inf are rejected alike,
        via :func:`numpy.isfinite`. :meth:`finite` and
        :attr:`yield_fraction` are defined on this same mask, so
        ``finite().delay.size == round(yield_fraction * delay.size)``
        holds for every batch regardless of which kernel backend
        produced the measurements.
        """
        return np.isfinite(self.delay) & np.isfinite(self.output_slew)

    @property
    def yield_fraction(self) -> float:
        """Fraction of samples successfully measured (see :attr:`valid`).

        An empty batch yields 1.0 (vacuously: no sample failed) rather
        than propagating the NaN of an empty mean.
        """
        if self.delay.size == 0:
            return 1.0
        return float(np.mean(self.valid))

    def finite(self) -> "DelaySamples":
        """Return a copy restricted to valid samples (see :attr:`valid`)."""
        m = self.valid
        return DelaySamples(
            delay=self.delay[m],
            output_slew=self.output_slew[m],
            t_launch=self.t_launch[m],
            t_capture=self.t_capture[m],
            result=None,
        )


class MonteCarloEngine:
    """Batched Monte-Carlo transient simulation of switching arcs.

    Parameters
    ----------
    tech / variation:
        Process description.
    seed:
        Seed for the parameter sampler (deterministic experiments).
    steps_per_window:
        Time steps per simulation window; the window auto-extends (at
        constant step size) until the slowest samples settle.
    max_windows:
        Upper bound on window extensions before giving up (unsettled
        samples then report NaN).
    settle_fraction:
        Required fraction of samples settled to 95 % of the swing before
        measurement.
    masked:
        Use the convergence-masked Newton kernel (default; see
        :class:`~repro.spice.transient.TransientSolver`).
    kernel:
        Kernel backend *name* (``"numpy"`` or ``"cnative"``) for the
        solver hot path; ``None`` defers to the ``REPRO_KERNEL``
        environment variable. Stored as
        a name (not an instance) so it travels in
        :meth:`fidelity_opts` to worker processes and cache keys.

    Attributes
    ----------
    perf:
        :class:`~repro.perf.PerfCounters` accumulated over every
        simulation this engine runs (solver work + wall time).
    """

    def __init__(
        self,
        tech: Technology,
        variation: VariationModel,
        seed: int = 0,
        steps_per_window: int = 160,
        max_windows: int = 10,
        settle_fraction: float = 0.995,
        masked: bool = True,
        kernel: Optional[str] = None,
    ):
        self.tech = tech
        self.variation = variation
        self.seed = seed
        self.sampler = MonteCarloSampler(variation, seed=seed)
        self.steps_per_window = steps_per_window
        self.max_windows = max_windows
        self.settle_fraction = settle_fraction
        self.masked = masked
        self.kernel = kernel
        self._kernel_backend = None  # resolved lazily (may compile)
        self.perf = PerfCounters()

    def kernel_backend(self):
        """The resolved :class:`~repro.kernels.base.KernelBackend`."""
        if self._kernel_backend is None:
            from repro.kernels import select_backend

            self._kernel_backend = select_backend(self.kernel)
        return self._kernel_backend

    def fidelity_opts(self) -> Dict[str, object]:
        """Engine knobs (minus seed) for building an equivalent engine elsewhere.

        Worker processes use this to reconstruct the engine configuration
        when fanning characterization points out over a pool.
        """
        return {
            "steps_per_window": self.steps_per_window,
            "max_windows": self.max_windows,
            "settle_fraction": self.settle_fraction,
            "masked": self.masked,
            "kernel": self.kernel,
        }

    # ------------------------------------------------------------------
    def _input_end(self, setup: SimulationSetup, t_begin: float) -> float:
        source = setup.netlist._fixed.get(setup.input_node)
        if source is None:
            raise SimulationError(
                f"input node {setup.input_node!r} is not fixed to a stimulus"
            )
        if isinstance(source, SampledWaveformSource):
            # Use the true activity span, not the recorded span — chained
            # waveforms carry long settled heads/tails.
            return source.activity_interval()[1]
        if isinstance(source, PiecewiseLinearSource):
            return float(source.times[-1])
        if setup.input_end_hint is None:
            raise SimulationError(
                "input_end_hint required for generic callable stimuli"
            )
        return setup.input_end_hint

    def simulate(
        self,
        setup: SimulationSetup,
        n_samples: int,
        sample: Optional[ParameterSample] = None,
        globals_: Optional[GlobalDraws] = None,
        t_begin: float = 0.0,
        keep_waveforms: bool = False,
    ) -> DelaySamples:
        """Simulate one arc for ``n_samples`` Monte-Carlo samples.

        Parameters
        ----------
        sample:
            Pre-drawn device parameters (otherwise drawn internally from
            this engine's sampler, using ``globals_`` if given).
        globals_:
            Shared die-to-die draws — pass the same object for every
            stage of a path to correlate global variation.
        t_begin:
            Start time of the window (stimuli are absolute-time).
        keep_waveforms:
            Retain the recorded waveforms on the returned object (needed
            for stage chaining; memory-heavy for large batches).
        """
        t_sim0 = time.perf_counter()
        netlist = setup.netlist
        compiled = netlist.compile(self.tech)
        if globals_ is None:
            globals_ = self.sampler.draw_globals(n_samples)
        if sample is None:
            if netlist.mosfets:
                sigmas, is_pmos = netlist.mismatch_sigmas(self.variation, self.tech)
                sample = self.sampler.sample(sigmas, is_pmos, n_samples, globals_)
            else:
                sample = ParameterSample.nominal(n_samples, 0)

        r_scale = c_scale = None
        if setup.wire_variation:
            if compiled.res_stamps:
                r_scale, _ = self.sampler.sample_wire_scales(
                    len(compiled.res_stamps), n_samples, globals_
                )
            if compiled.explicit_caps:
                _, c_scale = self.sampler.sample_wire_scales(
                    len(compiled.explicit_caps), n_samples, globals_
                )

        dev_cap_scale = None
        if netlist.mosfets and self.tech.cap_vth_sensitivity != 0.0:
            vt_ref = 0.5 * (self.tech.vt0_n + self.tech.vt0_p)
            dev_cap_scale = sample.cap_scale(self.tech.cap_vth_sensitivity, vt_ref)

        solver = TransientSolver(
            compiled,
            sample,
            r_scale=r_scale,
            c_scale=c_scale,
            dev_cap_scale=dev_cap_scale,
            masked=self.masked,
            perf=self.perf,
            kernel=self.kernel_backend(),
        )

        v0 = np.zeros((n_samples, compiled.n_unknown))
        for node, value in setup.initial_voltages.items():
            if node in compiled.node_index:
                v0[:, compiled.node_index[node]] = value
        v0 = solver.dc_settle(v0, t=t_begin)

        record = {setup.input_node, setup.output_node, *setup.record_extra}
        if setup.reference_node:
            record.add(setup.reference_node)
        record = sorted(record)

        t_input_end = self._input_end(setup, t_begin)
        stimulus_span = max(t_input_end - t_begin, 1.0 * PS)
        window = stimulus_span + max(60.0 * PS, 0.75 * stimulus_span)
        result = solver.run(v0, t_begin, t_begin + window, self.steps_per_window, record)
        for _ in range(self.max_windows - 1):
            out_wave = result.voltage_tm(setup.output_node)
            if (
                fraction_settled(
                    out_wave, self.tech.vdd, setup.output_rising, time_major=True
                )
                >= self.settle_fraction
            ):
                break
            t0 = result.times[-1]
            more = solver.run(
                result.final_state, t0, t0 + window, self.steps_per_window, record
            )
            # Drop the duplicated first point of the continuation (a view
            # in the time-major layout — no copy).
            more.times = more.times[1:]
            more.waveforms_t = {k: v[1:] for k, v in more.waveforms_t.items()}
            result = result.extended_with(more)

        self.perf.incr(simulations=1)
        self.perf.add_wall("simulate", time.perf_counter() - t_sim0)
        return self._measure(setup, result, keep_waveforms)

    # ------------------------------------------------------------------
    def _measure(
        self, setup: SimulationSetup, result: TransientResult, keep_waveforms: bool
    ) -> DelaySamples:
        vdd = self.tech.vdd
        from_node = setup.reference_node or setup.input_node
        from_rising = (
            setup.reference_rising
            if setup.reference_rising is not None
            else setup.input_rising
        )
        t_launch = crossing_time(
            result.times,
            result.voltage_tm(from_node),
            0.5 * vdd,
            from_rising,
            time_major=True,
        )
        t_capture = crossing_time(
            result.times,
            result.voltage_tm(setup.output_node),
            0.5 * vdd,
            setup.output_rising,
            time_major=True,
        )
        slew = measure_slew(
            result.times,
            result.voltage_tm(setup.output_node),
            vdd,
            setup.output_rising,
            time_major=True,
        )
        n = result.voltage_tm(setup.output_node).shape[1]
        t_launch = np.broadcast_to(t_launch, (n,)).copy()
        return DelaySamples(
            delay=t_capture - t_launch,
            output_slew=slew,
            t_launch=t_launch,
            t_capture=t_capture,
            result=result if keep_waveforms else None,
        )
