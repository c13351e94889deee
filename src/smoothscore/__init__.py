"""Smoothed-score Gaussian sampling with certified accuracy and bit accounting.

Subpackages cover: the sinc-quadrature rational approximant (``quadrature``),
Gaussian targets and the two oracle models (``gaussian``), uniform scalar
quantization (``quantizer``), the four rational samplers, their parameter
spec and the mean reduction (``samplers``), numpy's spawned streams built
in array operations (``streams``), deterministic KL/TV certificates
(``diagnostics``), and channel-synthesis lower-bound machinery (``channel``).
"""

from .errors import ParameterError
from .quadrature import (C0, SincGrid, build_grid, eval_r, eval_sq_sum,
                         sup_error_E1, sup_error_E2)
from .gaussian import (GaussianTarget, OracleTape, ScoreOracle, lambda_norm,
                       target_from_dict, target_from_json, target_to_json)
from .quantizer import (QuantizerConfig, decode_vector, quantize_vector,
                        smallest_bit_depth)
from .samplers import (SampleBlock, SampleReport, SamplerParams, estimate_mean,
                       exact_accuracy, independent_accuracy, run_streams,
                       sample_exact, sample_independent, sample_many,
                       sample_quantized, sample_uncentered, sampler_params)
from .diagnostics import (CoDiagonalLawPair, empirical_covariance, kl_codiagonal,
                          law_of_alg1, law_of_alg2, law_of_alg3_ideal, tv_bound)
from .channel import (ExperimentResult, betainc_reg, binary_subchannel_experiment,
                      bit_lower_bound_table, converse_bound, fixed_error_bound,
                      good_event_rate, run_coding_experiment,
                      subspace_distance_samples, tube_probability)

__version__ = "0.1.0"
