"""Phase-optimized sparse coding (PO-OMP) and dictionary learning (PO-KSVD)
for multichannel complex spectrograms."""

from .dictio import load_dictionary, save_dictionary
from .learning import LearningConfig, TrainedModel, init_dictionary, po_ksvd, update_atom
from .linalg import dominant_singular_triple, least_squares_solve
from .model import (
    CodingBatch,
    CodingResult,
    Dictionary,
    PhaseMatrix,
    SparseCode,
    apply_phased_dictionary,
    normalize_atom,
)
from .pipeline import (
    EvalReport,
    SyntheticSpec,
    apply_mask,
    atom_match_score,
    denoise,
    evaluate,
    generate_synthetic,
)
from .pursuit import PursuitConfig, po_omp, refine_support, select_best_atom
from .stft import Spectrogram, StftConfig, istft, stft
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "CodingBatch",
    "CodingResult",
    "Dictionary",
    "EvalReport",
    "LearningConfig",
    "PhaseMatrix",
    "PursuitConfig",
    "SparseCode",
    "Spectrogram",
    "StftConfig",
    "SyntheticSpec",
    "TrainedModel",
    "apply_mask",
    "apply_phased_dictionary",
    "atom_match_score",
    "denoise",
    "dominant_singular_triple",
    "evaluate",
    "generate_synthetic",
    "init_dictionary",
    "istft",
    "least_squares_solve",
    "load_dictionary",
    "normalize_atom",
    "po_ksvd",
    "po_omp",
    "read_wav",
    "refine_support",
    "save_dictionary",
    "select_best_atom",
    "stft",
    "update_atom",
    "write_wav",
]
