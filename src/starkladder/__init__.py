"""Wannier-Stark spectra and Bloch-oscillation dynamics of 1D double-periodic
lattices: exact solvers (truncated chain, Floquet monodromy), strong- and
weak-field analytics, time-domain population dynamics, and the continuum
optical-lattice model."""

from .continuum import (ContinuumBands, ContinuumPotential, TightBindingFit,
                        band_structure, continuum_bloch_bands, fit_tight_binding)
from .dynamics import (BandProjector, ChainState, LorentzianPeak,
                       PopulationTrace, RampProtocol, TransferResult,
                       band_projectors, bloch_transfer_experiment,
                       lorentzian_fit, lower_band_state, lower_band_states,
                       mean_quasimomentum, mean_upper_population, propagate)
from .errors import (ConfigError, DegeneracyError, EdgeContaminationError,
                     NonConvergedError, OutOfValidityError, StarkLadderError)
from .model import (ChainHamiltonian, LadderSpectrum, LatticeParams,
                    band_mean_energy, bloch_dispersion, build_chain,
                    fold_interval, reduce_zone)
from .spectra_exact import (AvoidedCrossing, Monodromy,
                            eigenvalues_symmetric_tridiagonal,
                            find_avoided_crossings, floquet_branch_offsets,
                            monodromy, ws_spectrum_floquet,
                            ws_spectrum_truncated)
from .strong_field import (WuYangPhaseSet, averaged_coupling, osc_integral,
                           pi_coefficients, spectrum_bm, spectrum_expansion,
                           spectrum_wu_yang, wu_yang_propagator)
from .weak_field import (AdiabaticLadder, GapEstimate, adiabatic_constants,
                         adiabatic_spectrum, d_coefficient, gap_estimate,
                         instantaneous_eigen)

__version__ = "0.1.0"
