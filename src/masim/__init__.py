"""masim: simulation and optimization toolkit for movable-antenna wireless systems."""

from .channel import (ChannelSpec, Region, channel_gain,
                      channel_spec_from_json, channel_spec_to_json,
                      direction_from_angles, field_on_grid,
                      sample_stochastic_channel)
from .gainmap import GainMap, evaluate_map
from .positioning import (InterferenceScenario, SearchConfig, gradient_ascent_refine,
                          max_sinr_position, max_snr_position, snr_gradient)
from .beams import (array_gain, beam_pattern, null_steer_weights,
                    optimize_uniform_spacing, steering_vector,
                    two_beam_weights_fpa, uniform_layout)
from .mimo import (RxPlacement, build_channel_matrix, capacity_identity_cov,
                   capacity_waterfilling, sequential_position_search, tx_ula)
from .estimation import (AngleDictionary, FriEstimate, MeasurementSet,
                         cosine_grid_dictionary, omp_estimate,
                         plan_measurement_positions, reconstruct_and_score,
                         refit_coefficients, simulate_measurements)

__version__ = "0.1.0"
