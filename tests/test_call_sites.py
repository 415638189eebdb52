"""The benchmark's call-site tracing still sees every traced function.

``benchmarks/tracing.py`` records a layer by replacing the name its caller
looks up (``parser.compose``, ``training.backward``, ...).  A refactor that
calls the function some other way leaves that span silent, which only a
traced benchmark run would show; this test runs each span's caller once
under the tracer, on tiny inputs, instead.
"""

import importlib.util
from pathlib import Path

from treeattn import cli, data, toy, training

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_call_site_records_calls(tmp_path):
    toy.write_embedding_file(tmp_path / "embeddings.txt", vocab_size=12, dim=4)
    records = toy.subset_pair_records(6, vocab_size=12, seed=1)
    toy.write_pair_corpus(tmp_path / "train.jsonl", records[:4])
    toy.write_pair_corpus(tmp_path / "val.jsonl", records[4:])
    (tmp_path / "pred.txt").write_text("( a ( b c ) )\n( ( a b ) ( c d ) )\n")
    config = training.TrainConfig(task="pair", labels=toy.SUBSET_LABELS, hidden=3,
                                  d_attn=3, d_clf=4, max_epochs=1, patience=1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        vocab, embedding = data.load_embeddings(tmp_path / "embeddings.txt")
        train, val = (data.load_pair_corpus(tmp_path / name, vocab, toy.SUBSET_LABELS)
                      for name in ("train.jsonl", "val.jsonl"))
        result = training.train(train, val, config, vocab, embedding)
        result.checkpoint.save(tmp_path / "model.ckpt")
        training.Checkpoint.load(tmp_path / "model.ckpt")
        assert cli.main(["treescore", "--pred", str(tmp_path / "pred.txt"),
                         "--baselines-only", "--out", str(tmp_path / "report.txt")]) == 0
    silent = [name for name, *_ in tracing.CALL_SITES if not tracer.calls[name]]
    assert not silent, f"spans that recorded no call: {silent}"
