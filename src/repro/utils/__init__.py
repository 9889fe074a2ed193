"""Shared low-level utilities: unit conversions, RNG helpers, signal ops.

These helpers are deliberately small and dependency-free (numpy only) so
every other subpackage can rely on them without import cycles.
:func:`atomic_replace` is the one way the package replaces a file on
disk (result cache entries, service status files, probe baselines).
"""

from repro.utils.units import (
    SPEED_OF_LIGHT,
    BOLTZMANN,
    ROOM_TEMPERATURE_K,
    db_to_linear,
    linear_to_db,
    db_to_power,
    power_to_db,
    dbm_to_watts,
    watts_to_dbm,
    thermal_noise_dbm,
    wavelength,
)
from repro.utils.atomic import atomic_replace
from repro.utils.rng import make_rng, child_rngs
from repro.utils.signal_ops import (
    next_pow2,
    signal_power,
    signal_power_dbm,
    papr_db,
    normalize_power,
    add_signals,
    xcorr,
    normalized_xcorr,
    circular_shift,
    fractional_shift,
    awgn_like,
    rms,
    evm_db,
)
from repro.utils.validation import (
    ensure_complex_1d,
    ensure_finite,
    ensure_positive,
    ensure_in_range,
    ensure_shape,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "ROOM_TEMPERATURE_K",
    "db_to_linear",
    "linear_to_db",
    "db_to_power",
    "power_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "thermal_noise_dbm",
    "wavelength",
    "atomic_replace",
    "make_rng",
    "child_rngs",
    "next_pow2",
    "signal_power",
    "signal_power_dbm",
    "papr_db",
    "normalize_power",
    "add_signals",
    "xcorr",
    "normalized_xcorr",
    "circular_shift",
    "fractional_shift",
    "awgn_like",
    "rms",
    "evm_db",
    "ensure_complex_1d",
    "ensure_finite",
    "ensure_positive",
    "ensure_in_range",
    "ensure_shape",
]
