"""Deterministic fault plans for the simulator.

The paper models a *fault-free* server; real interactive services blow
their 99th percentile exactly when the environment misbehaves — a core
is reclaimed by a co-located job, a worker thread stalls on a page
fault or GC pause, a request hits a slow replica (a *straggler*).  A
:class:`FaultPlan` is a fully materialized, seeded description of such
events, so fault injection never breaks the engine's bit-for-bit
reproducibility: the same plan plus the same arrivals yields the same
trace, metrics included.

Three fault classes (PAPERS.md: Vulimiri et al. study stragglers;
Poloczek & Ciucu study overload — both need an injectable failure
model to be measurable):

* :class:`CoreFault` — ``cores`` hardware threads go offline at
  ``time_ms`` and come back ``duration_ms`` later (co-location,
  thermal throttling, reclamation).
* :class:`StallFault` — at ``time_ms`` the running request with the
  most remaining work freezes for ``duration_ms`` (GC pause, page
  fault storm); its threads keep their cores but retire no work.
* stragglers — a seeded per-request coin: with probability
  ``straggler_rate`` a request's sequential work is inflated by a
  deterministic lognormal factor (slow replica / cold cache).

:meth:`FaultPlan.generate` draws a concrete plan from rates; building
the event lists by hand is equally supported (and what most unit tests
do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError

__all__ = ["CoreFault", "StallFault", "FaultPlan", "FaultStats"]


@dataclass(frozen=True)
class CoreFault:
    """``cores`` cores go offline during ``[time_ms, time_ms + duration_ms)``."""

    time_ms: float
    duration_ms: float
    cores: int = 1

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise FaultInjectionError(f"core fault time must be >= 0: {self.time_ms}")
        if self.duration_ms <= 0:
            raise FaultInjectionError(
                f"core fault duration must be positive: {self.duration_ms}"
            )
        if self.cores < 1:
            raise FaultInjectionError(f"core fault must remove >= 1 core: {self.cores}")


@dataclass(frozen=True)
class StallFault:
    """One running request freezes during ``[time_ms, time_ms + duration_ms)``.

    The victim is chosen deterministically by the engine: the running
    request with the most remaining work (ties broken by lowest rid).
    A stall with no running request at ``time_ms`` is a no-op.
    """

    time_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise FaultInjectionError(f"stall time must be >= 0: {self.time_ms}")
        if self.duration_ms <= 0:
            raise FaultInjectionError(
                f"stall duration must be positive: {self.duration_ms}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one simulation run.

    Parameters
    ----------
    core_faults / stalls:
        Explicit timed events, applied by the engine's event loop.
    straggler_rate:
        Per-request probability of service-time inflation.
    straggler_sigma:
        Lognormal sigma of the inflation factor; the factor is
        ``1 + lognormal(straggler_mu, straggler_sigma)`` so it is
        always > 1.
    seed:
        Root seed for the per-request straggler draws, a non-negative
        int.  The draw for request ``rid`` depends only on ``(seed,
        rid)`` — independent of arrival order and of every other fault
        — so plans compose deterministically.
    """

    core_faults: tuple[CoreFault, ...] = ()
    stalls: tuple[StallFault, ...] = ()
    straggler_rate: float = 0.0
    straggler_mu: float = 0.0
    straggler_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise FaultInjectionError(
                f"straggler_rate must be in [0, 1]: {self.straggler_rate}"
            )
        if self.straggler_sigma < 0:
            raise FaultInjectionError(
                f"straggler_sigma must be >= 0: {self.straggler_sigma}"
            )
        _check_straggler_inputs(self.seed, self.straggler_mu, self.straggler_sigma)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "core_faults", tuple(self.core_faults))
        object.__setattr__(self, "stalls", tuple(self.stalls))

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return (
            not self.core_faults and not self.stalls and self.straggler_rate == 0.0
        )

    def straggler_inflation(self, rid: int) -> float:
        """Deterministic inflation factor for request ``rid`` (1.0 = none)."""
        if self.straggler_rate <= 0.0:
            return 1.0
        rng = np.random.default_rng([self.seed, rid])
        if rng.random() >= self.straggler_rate:
            return 1.0
        return 1.0 + float(rng.lognormal(self.straggler_mu, self.straggler_sigma))

    def straggler_inflations(self, start: int, stop: int) -> list[float]:
        """Inflation factors of rids ``start .. stop - 1``, element for
        element equal to :meth:`straggler_inflation` (the definition).

        The scalar method spends nearly all its time setting up a numpy
        generator per rid.  Here the straggler coin, the first
        ``random()`` of ``default_rng([seed, rid])``, is recomputed for
        the whole block at once (:func:`_first_uniforms`); only the rids
        whose coin lands below ``straggler_rate`` call the scalar method
        for their lognormal factor.
        """
        if not 0 <= start <= stop:
            raise FaultInjectionError(f"bad rid range [{start}, {stop})")
        rate = self.straggler_rate
        if rate <= 0.0:
            return [1.0] * (stop - start)
        if stop > _ONE_WORD:
            # A rid past 32 bits seeds with two entropy words; no run
            # gets there, so the definition serves.
            return [self.straggler_inflation(rid) for rid in range(start, stop)]
        inflation = self.straggler_inflation
        return [
            1.0 if coin >= rate else inflation(rid)
            for rid, coin in zip(range(start, stop), _first_uniforms(self.seed, start, stop))
        ]

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_ms: float,
        core_fault_rate_hz: float = 0.0,
        core_fault_duration_ms: float = 200.0,
        cores_per_fault: int = 1,
        stall_rate_hz: float = 0.0,
        stall_duration_ms: float = 50.0,
        straggler_rate: float = 0.0,
        straggler_mu: float = 0.0,
        straggler_sigma: float = 0.5,
    ) -> "FaultPlan":
        """Draw a concrete plan over ``[0, horizon_ms)``.

        Timed events are Poisson with the given rates (in events per
        *second* of simulated time); all randomness flows from ``seed``.
        """
        _check_straggler_inputs(seed, straggler_mu, straggler_sigma)
        if horizon_ms <= 0:
            raise FaultInjectionError(f"horizon_ms must be positive: {horizon_ms}")
        if core_fault_rate_hz < 0 or stall_rate_hz < 0:
            raise FaultInjectionError("fault rates must be >= 0")
        rng = np.random.default_rng([seed, 0xFA17])
        core_faults = tuple(
            CoreFault(t, core_fault_duration_ms, cores_per_fault)
            for t in _poisson_times(rng, core_fault_rate_hz, horizon_ms)
        )
        stalls = tuple(
            StallFault(t, stall_duration_ms)
            for t in _poisson_times(rng, stall_rate_hz, horizon_ms)
        )
        return cls(
            core_faults=core_faults,
            stalls=stalls,
            straggler_rate=straggler_rate,
            straggler_mu=straggler_mu,
            straggler_sigma=straggler_sigma,
            seed=seed,
        )


def _check_straggler_inputs(seed: object, mu: float, sigma: float) -> None:
    """Reject at construction what would otherwise fail late or
    silently: numpy takes only a non-negative int seed (and would raise
    at the first arrival), a NaN factor compares false against 1.0 (no
    request would straggle), and an infinite one leaves a request that
    never finishes."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise FaultInjectionError(f"seed must be a non-negative int: {seed!r}")
    if not math.isfinite(mu):
        raise FaultInjectionError(f"straggler_mu must be finite: {mu}")
    if not math.isfinite(sigma):
        raise FaultInjectionError(f"straggler_sigma must be finite: {sigma}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# (numpy/random/src/pcg64) constants, for :func:`_first_uniforms`.
_ONE_WORD = 1 << 32
_MASK32 = _ONE_WORD - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Seeding steps the state twice and drawing once more:
# state = seed * M^2 + inc * (M^2 + M + 1) with inc = 2 * initseq + 1.
_PCG_M2 = _PCG_MULT * _PCG_MULT & _MASK128
_PCG_C = (_PCG_M2 + _PCG_MULT + 1) & _MASK128
_PCG_C2 = 2 * _PCG_C & _MASK128
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53, numpy's next_double scale


def _first_uniforms(seed: int, start: int, stop: int) -> list[float]:
    """``default_rng([seed, rid]).random()`` for every rid in
    ``[start, stop)`` (``stop <= 2**32``), bit for bit.

    The SeedSequence entropy of ``[seed, rid]`` is seed's little-endian
    32-bit words followed by the one word of ``rid``.  Its hash/mix
    runs on uint32 arrays over all rids at once (the hash multiplier
    evolves identically for every rid, so it stays a Python int); the
    128-bit PCG64 seeding and one XSL-RR output then take a few Python
    int operations per rid.
    """
    n = stop - start
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = [np.full(n, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
    )
    uniforms = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        x = (
            ((s_hi << 64) | s_lo) * _PCG_M2 + ((i_hi << 64) | i_lo) * _PCG_C2 + _PCG_C
        ) & _MASK128
        rot = x >> 122
        x = ((x >> 64) ^ x) & _MASK64
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        uniforms.append((x >> 11) * _TO_UNIT)
    return uniforms


def _poisson_times(
    rng: np.random.Generator, rate_hz: float, horizon_ms: float
) -> list[float]:
    """Event times of a Poisson process on ``[0, horizon_ms)``."""
    if rate_hz <= 0:
        return []
    times: list[float] = []
    t = 0.0
    mean_gap_ms = 1000.0 / rate_hz
    while True:
        t += float(rng.exponential(mean_gap_ms))
        if t >= horizon_ms:
            return times
        times.append(t)


@dataclass
class FaultStats:
    """Counters the metrics layer accumulates during a faulty run."""

    #: Timed fault events that actually fired (loss + restore pairs
    #: count once; stalls with no victim do not count).
    faults_fired: int = 0
    #: Requests whose service time was inflated by a straggler draw.
    stragglers_injected: int = 0
    #: Stall events that froze a running request.
    stalls_injected: int = 0
    #: Core-loss events applied.
    core_faults_applied: int = 0
    #: Completions of requests that ran impaired (inflated or stalled).
    degraded_completions: int = 0
    #: Requests rejected by load shedding (backlog bound or deadline).
    shed_requests: int = 0
    #: Sheds specifically caused by a deadline-budget breach.
    deadline_sheds: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports and bit-identical comparisons)."""
        return {
            "faults_fired": self.faults_fired,
            "stragglers_injected": self.stragglers_injected,
            "stalls_injected": self.stalls_injected,
            "core_faults_applied": self.core_faults_applied,
            "degraded_completions": self.degraded_completions,
            "shed_requests": self.shed_requests,
            "deadline_sheds": self.deadline_sheds,
        }
