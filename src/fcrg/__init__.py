"""Fact-checking response generation: corpus tools, a GRU encoder-decoder
with attention, beam-search decoding, generation metrics, and corpus
analyses, all on plain numpy."""

from .corpus import (
    BOS,
    EOS,
    PAD,
    UNK,
    Batch,
    EncodedPair,
    RawPair,
    SplitSpec,
    Vocabulary,
    batches,
    build_vocabulary,
    corpus_statistics,
    encode_pair,
    make_batch,
    normalize,
    read_dataset,
    read_gazetteer,
    split_dataset,
    tokenize,
    write_dataset,
)
from .decoding import DecodeConfig, DecodedResponse, beam_search, greedy_decode
from .metrics import (
    EmbeddingTable,
    MetricReport,
    bleu_n,
    embedding_table_from_model,
    evaluate,
    greedy_matching,
    load_embedding_table,
    meteor_lite,
    rouge_l,
    vector_extrema,
    wilcoxon_one_sided,
)
from .model import (
    FCRGModel,
    ModelConfig,
    TrainResult,
    encode_single,
    train_model,
    validation_nll,
)
from .params import (
    ParamStore,
    TrainConfig,
    finite_diff_check,
    finite_diff_report,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "BOS", "EOS", "PAD", "UNK",
    "Batch", "EncodedPair", "RawPair", "SplitSpec", "Vocabulary",
    "batches", "build_vocabulary", "corpus_statistics", "encode_pair",
    "make_batch", "normalize", "read_dataset", "read_gazetteer",
    "split_dataset", "tokenize", "write_dataset",
    "DecodeConfig", "DecodedResponse", "beam_search", "greedy_decode",
    "EmbeddingTable", "MetricReport", "bleu_n", "embedding_table_from_model",
    "evaluate", "greedy_matching", "load_embedding_table", "meteor_lite",
    "rouge_l", "vector_extrema", "wilcoxon_one_sided",
    "FCRGModel", "ModelConfig", "TrainResult", "encode_single",
    "train_model", "validation_nll",
    "ParamStore", "TrainConfig", "finite_diff_check", "finite_diff_report",
    "load_checkpoint", "save_checkpoint",
    "Tensor", "backward",
]
