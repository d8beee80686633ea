"""Resistor-hopping KLJN noise-communication simulator.

The library is organized around the protocol pipeline:

* :mod:`rhkljn.params`    -- parameters and every closed-form statistic
* :mod:`rhkljn.detectors` -- gate, ML and threshold detectors
* :mod:`rhkljn.protocol`  -- exchange protocol, session engine, eavesdropper
* :mod:`rhkljn.pls`       -- physical-layer-security metrics
* :mod:`rhkljn.sweep`     -- experiment grids and CSV emission
* :mod:`rhkljn.cli`       -- the ``rhkljn`` command

The package exports only the names the README documents; import anything
else from its submodule.  :mod:`rhkljn.channel`, the raw-sample oracle for
one chip, and :mod:`rhkljn.exact`, the closed-form oracle of the session
rows, run in no command, so the package imports neither.
"""

from .params import SystemParams, chip_moments, state_moments
from .protocol import fan_out, merge_tallies, run_session
from .sweep import SweepSpec, run_compare, run_sweep

__version__ = "0.1.0"
