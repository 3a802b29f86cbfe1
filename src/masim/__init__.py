"""masim: simulation and optimization toolkit for movable-antenna wireless systems."""

from .channel import (ChannelSpec, Region, channel_gain, direction_from_angles,
                      field_on_grid, field_response, sample_stochastic_channel)
from .gainmap import GainMap, evaluate_map
from .positioning import (SearchConfig, level_trials, max_sinr_position,
                          max_snr_position, snr_gradient)
from .beams import (array_gain, null_steer_weights, optimize_uniform_spacing,
                    steering_vector, two_beam_weights, uniform_layout)
from .mimo import capacity_identity_cov, capacity_waterfilling, greedy_rx_placement, tx_ula
from .estimation import (FriEstimate, MeasurementSet, cosine_grid_dictionary, omp_estimate,
                         plan_measurement_positions, reconstruct_and_score, refit_coefficients,
                         simulate_measurements)

__version__ = "0.1.0"
