"""Differentially private training for two-layer graph convolutional networks.

Pieces: sparse graph handling and random splitting (graph), the GCN with
hand-written backprop (model), per-example clipping plus lot-level Gaussian
noise and optimizers (dp), a moments accountant (accounting), a dataset
directory format and synthetic generator (data), and the experiment driver
(harness). The dpgcn CLI fronts the harness.
"""

__version__ = "0.2.0"  # before the submodules: harness records it

from .accounting import (AccountantLedger, calibrate_noise, compose,
                         delta_from_eps, eps_from_delta, log_moment,
                         privacy_spent, subsampled_log_moment)
from .data import (Dataset, DatasetError, SynthSpec, generate_synthetic,
                   load_dataset, save_dataset)
from .dp import (AdamState, DpNoiseSpec, adam_step, clip_gradient,
                 noisy_lot_gradient, sample_lot, sgd_step)
from .graph import (build_graph, mask_subgraph, normalize_adjacency,
                    random_partition, spmm)
from .harness import (ConfigError, ExperimentConfig, ResultsRecord,
                      SeedOutcome, TrainingDiverged, early_stop_check,
                      emit_results, hard_case_overlap, load_config,
                      parse_config_text, plan_privacy, run_experiment)
from .model import (ForwardTrace, GcnParams, Metrics, Target, backward,
                    evaluate, forward, init_params, macro_f1,
                    masked_cross_entropy, masked_log_probs)
from .rng import Prng

__all__ = [name for name in dir() if not name.startswith("_")]
