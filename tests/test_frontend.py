"""MFCC frontend tests: correctness properties and the cycle model."""

import numpy as np
import pytest

from repro.core.ladders import kws_initial_state, kws_ladder
from repro.models import load
from repro.tflm import Interpreter
from repro.tflm.frontend import (
    MfccConfig,
    dct_matrix,
    frontend_cycles,
    mel_filterbank,
    mfcc,
    preprocess_audio,
    quantize_features,
)


def tone(freq_hz, seconds=1.0, rate=16_000, amplitude=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def test_frame_count_matches_dscnn_input():
    config = MfccConfig()
    assert config.num_frames(16_000) == 49
    assert config.window_samples == 480
    assert config.stride_samples == 320


def test_feature_shape():
    features = mfcc(tone(440))
    assert features.shape == (49, 10)


def test_preprocess_feeds_the_model():
    x = preprocess_audio(tone(1000))
    assert x.shape == (1, 49, 10, 1)
    assert x.dtype == np.int8
    out = Interpreter(load("dscnn_kws")).invoke(x)
    assert out.shape == (1, 12)


def test_mel_filterbank_properties():
    config = MfccConfig()
    bank = mel_filterbank(config)
    assert bank.shape == (40, 257)
    assert np.all(bank >= 0)
    assert np.all(bank.sum(axis=1) > 0)      # every filter covers something
    # Filter centers are ordered in frequency.
    centers = [np.argmax(row) for row in bank]
    assert centers == sorted(centers)


def test_dct_matrix_is_orthonormal():
    basis = dct_matrix(10, 40)
    gram = basis @ basis.T
    assert np.allclose(gram, np.eye(10), atol=1e-9)


def test_energy_concentrates_at_tone_frequency():
    """A louder tone must raise the first (energy) MFCC coefficient."""
    quiet = mfcc(tone(440, amplitude=0.05)).mean(axis=0)
    loud = mfcc(tone(440, amplitude=0.8)).mean(axis=0)
    assert loud[0] > quiet[0]


def test_different_tones_give_different_features():
    low = mfcc(tone(200))
    high = mfcc(tone(3000))
    assert not np.allclose(low, high, atol=0.5)


def test_int16_pcm_accepted():
    pcm = (tone(440) * 32767).astype(np.int16)
    a, _ = quantize_features(mfcc(pcm))
    b, _ = quantize_features(mfcc(tone(440)))
    # int16 quantization perturbs near-silent mel bins through the log;
    # after feature quantization the maps must agree within one step.
    assert np.abs(a.astype(np.int16) - b.astype(np.int16)).max() <= 1


def test_quantize_features_range():
    features = mfcc(tone(440))
    q, params = quantize_features(features)
    back = params.dequantize(q.reshape(features.shape))
    assert np.abs(back - np.clip(features, -128 * params.scale,
                                 127 * params.scale)).max() <= params.scale


def test_frontend_cycles_respond_to_fast_mult():
    """Pre-processing is mul-heavy: the Fast Mult step helps it too —
    the end-to-end effect Section I argues for."""
    state = kws_initial_state()
    slow_system = state.system()
    for step in kws_ladder()[:5]:  # through fast-mult
        step.apply(state)
    fast_system = state.system()
    slow = frontend_cycles(slow_system)
    fast = frontend_cycles(fast_system)
    assert slow > 2 * fast


def test_frontend_is_significant_after_optimization():
    """Once inference is 80x faster, pre-processing is no longer noise —
    the reason full-stack accounting matters."""
    from repro.core.ladders import run_ladder

    results = run_ladder(kws_ladder(), kws_initial_state())
    final = results[-1]
    frontend = frontend_cycles(final.estimate.system)
    share_after = frontend / (frontend + final.cycles)
    share_before = frontend_cycles(results[0].estimate.system) / (
        frontend_cycles(results[0].estimate.system) + results[0].cycles)
    assert share_after > share_before
    assert share_after > 0.05
