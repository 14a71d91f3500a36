"""Desk-scale acoustics-to-word CTC toolkit.

From-scratch BLSTM acoustic models trained with an exact CTC loss and a
curriculum/momentum/dropout recipe, decoded by greedy peak-picking, with a
joint word+character target mode that spells each word before recognizing
it (useful for out-of-vocabulary output).
"""

from .alphabet import (
    BLANK_ID,
    CharSet,
    JointAlphabet,
    SarTargetSequence,
    Vocabulary,
    build_charset,
    build_sar_targets,
    build_vocabulary,
    encode_words,
    decode_words,
    invert_sar_targets,
    spell_word,
    tokenize,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config, save_config
from .ctc import (
    LOGITS,
    PROBABILITIES,
    CtcResult,
    PosteriorLattice,
    ctc_brute_force,
    ctc_grad_check,
    ctc_loss,
    expand_target,
)
from .decoder import (
    SarHypothesis,
    greedy_collapse,
    one_hot_lattice,
    render_hypothesis,
    parse_hypothesis,
    sar_decode_chars,
    sar_decode_switched,
    sar_decode_word,
)
from .network import Model, ModelConfig, init_model, init_uniform_fan_in, model_backward, model_forward, warm_start
from .pipeline import (
    Batch,
    CurriculumOrder,
    SynthSpec,
    Utterance,
    compute_deltas,
    load_corpus,
    save_corpus,
    sort_and_batch,
    stack_decimate,
    synth_corpus,
)
from .scoring import WerReport, oov_rate, wer
from .trainer import LrSchedule, OptimizerState, TrainRun, lr_at, nesterov_step, run_training, train

__version__ = "0.1.0"
