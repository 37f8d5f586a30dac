"""Exact experimentation engine for sum-product estimates over F_p.

The package computes, with no floating-point in any asserted quantity:
sumsets and their relatives, images {g(a)(h(a) + b)}, representation
histograms and their moment energies, multiplicities of maps on F_p^*,
point-plane incidences in F_p^3, and the exact inequality chains that
drive fourth-moment energy arguments.  Theorems whose statements hide
implied constants are handled as ratio reports, never as assertions.

Everything is deterministic: random sets come from a counter-mode
generator keyed by (seed, instance id), and sweep reports are
byte-identical across reruns and worker counts.
"""

from .convolve import cyclic_convolve
from .energy import (RepFn, dyadic_buckets, energy_popular, level_counts,
                     level_set, moment, normalize_eps, popular_diff,
                     popular_sum_core, rep_fn, select_dyadic_k)
from .errors import (BadEpsilon, BadExponent, BadP, BadParams, ConfigError,
                     EmptySet, FieldMismatch, FpspError, HypothesisViolated,
                     NotPrime, ParseError, SizeCap, TooSmall, ZeroDilation,
                     ZeroDivisor, ZeroInA, ZeroInCodomain, ZeroInverse)
from .field import DEFAULT_MAX_P, PrimeField, is_prime, make_field
from .functions import (FnTable, f_image, mu, mu_product, parse_fn_spec,
                        read_fn_file, write_fn_file)
from .incidence import (COLLINEAR_CAP, MATERIALIZE_CAP, TRIPLES_CAP,
                        VARIANTS, IncidenceConfig, ProofKernel,
                        bilinear_hist, build_proof_config, incidences,
                        make_config, max_collinear, proof_kernel,
                        rudnev_ratio)
from .rng import CounterRng
from .sets import (FAMILIES, FSet, affine, combine, generate,
                   parse_set_text, read_set_file, subgroup_orders,
                   write_set_file)
from .sweep import SweepConfig, load_config_file, report_json, rows_csv, \
    run_sweep
from .verify import (CSV_HEADER, THEOREMS, ChainReport, Check, RatioRow,
                     ReportRow, ThmInstance, composite_N_check,
                     count_N_shifted, count_X, eplus_chain,
                     holder_weighted_sum, lemma_chain_check, n_chain_check,
                     phi_chain, phi_count, quad_energy, solution_count_M,
                     theorem_ratio)

__version__ = "0.1.0"
