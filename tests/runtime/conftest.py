"""Shared fixtures for the runtime parity suites."""

import numpy as np
import pytest

from repro.runtime import DecoderModel, RuntimeConfig
from repro.runtime.engine import _Sequence
from tests.runtime.oracle import oracle_decode_batch


@pytest.fixture
def all_rows_streams():
    """Token streams decoded one request at a time through the model's
    *all-rows* prefill (default ``logits_from``, sharing off), then the
    from-scratch :func:`~tests.runtime.oracle.oracle_decode_batch` —
    sampled exactly as the engine samples. No consumed-rows narrowing,
    batching, chunking, preemption, speculation or arena read is on that
    path, so an engine run that equals it emits the streams a dense
    recompute of every step's attention emits."""

    def streams(config, runtime_kwargs, requests):
        model = DecoderModel(config, RuntimeConfig(**runtime_kwargs))
        out = {}
        for request in requests:
            seq = _Sequence(request, model, 0.0)
            prompt = np.array(request.prompt)
            logits = model.prefill(prompt, seq.caches, share=False)
            assert logits.shape == (len(prompt), config.vocab)
            seq.accept(seq.sample(logits[-1]))
            while seq.finish_reason is None:
                seq.accept(seq.sample(oracle_decode_batch(
                    model, [seq.last_token], [seq.caches]
                )[0]))
            model.free_caches(seq.caches)
            out[request.request_id] = tuple(seq.generated)
        return out

    return streams
