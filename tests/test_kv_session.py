"""Streaming KV-cache sessions: eviction invariants + bit-exactness.

The contract under test, in order of importance:

1. **Bit-exactness by construction** — for every catalog format under
   every dispatch mode, ``read(layer)`` equals the concatenation of
   one-shot quantizations of the retained blocks byte for byte, and for
   every group-wise (batchable) format it also equals the one-shot
   quantization of the concatenated raw blocks: the streamed cache and
   the batch cache are the same bytes. An append that encodes K and V
   stacked retains exactly the containers two solo encodes give.
2. **Eviction invariants** — the per-layer token budget is never
   exceeded, not even transiently; sink blocks are never evicted; an
   append that cannot fit is refused with ``ConfigError`` and leaves
   the session unchanged.
3. **Arenas** — each layer's K and V rows live in a few row-stacked
   runs, decoded by one codec call per run on every read; a read
   equals a fresh per-block decode (unaligned streams, evicted row
   prefixes, per-row tensor scales, zero tensors and mixed fp16
   storage included), hands the caller arrays it owns, and stays exact
   while a concurrent append evicts rows under it; what the arenas
   hold is the payload bytes of the held blocks and no more.
4. **Lifecycle** — append/read after close and unknown session ids are
   typed errors (``ConfigError`` locally, ``SessionLost`` over the
   wire), never silence.
5. **Wire stability** — the v3 session frames are pinned byte-exactly
   by ``tests/golden/wire_vectors.json``; a version-2 frame is rejected
   with a typed ``ProtocolError``.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codec import codec_for, decode, drop_rows, encode, join_rows, \
    slice_rows
from repro.errors import CodecError, ConfigError, ProtocolError, SessionLost
from repro.kernels import fast_kernels, reference_kernels
from repro.kv import KVCacheSession, KVPolicy
from repro.models.quantized import Fp16Format
from repro.obs import registry as obs_registry
from repro.runner.formats import list_formats, make_format
from repro.plan import MAX_PLANS, plan_cache_stats, tensor_scoped
from repro.server import QuantClient, ServerThread, protocol

GOLDEN_PATH = Path(__file__).parent / "golden" / "wire_vectors.json"

#: The non-inherit dispatch modes; "inherit" is the ambient default the
#: rest of this file runs under anyway.
DISPATCHES = ("fast", "reference")
DISPATCH = {"fast": fast_kernels, "reference": reference_kernels}


def _block(rng, tokens: int, width: int = 64) -> np.ndarray:
    """A (tokens, width) block with outliers and exact zeros mixed in."""
    x = rng.standard_normal((tokens, width)) \
        * np.exp(rng.standard_normal((tokens, width)))
    x[rng.random((tokens, width)) < 0.05] = 0.0
    return x


# ----------------------------------------------------------------------
# Bit-exactness: streamed == batch, every format x dispatch mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("name", list_formats())
def test_stream_equals_batch(name, dispatch, rng):
    fmt = make_format(name)
    kblocks = [_block(rng, t) for t in (3, 1, 4)]
    vblocks = [_block(rng, t) for t in (3, 1, 4)]
    sess = KVCacheSession(1, KVPolicy(name), dispatch=dispatch)
    for k, v in zip(kblocks, vblocks):
        ack = sess.append(0, k, v)
        assert ack["format"] == name
    K, V = sess.read(0)
    # Contract 1 (every format): concat of per-block one-shot
    # quantizations. Expectations run under ambient dispatch — the
    # kernel parity contract makes the bits mode-independent, so this
    # also cross-checks the session's pinned mode against the default.
    for got, blocks in ((K, kblocks), (V, vblocks)):
        expected = np.concatenate(
            [decode(encode(fmt, b, op="weight", axis=-1).to_bytes(),
                    fmt=fmt) for b in blocks], axis=0)
        assert got.tobytes() == expected.tobytes(), \
            f"{name}/{dispatch}: streamed read != per-block batch bytes"
    # Contract 2 (group-wise formats only): one-shot of the
    # concatenation. Tensor-scoped formats are block-scoped by design —
    # their tensor-level scale depends on the whole input.
    if not tensor_scoped(fmt):
        whole = decode(encode(fmt, np.concatenate(kblocks, axis=0),
                              op="weight", axis=-1).to_bytes(), fmt=fmt)
        assert K.tobytes() == whole.tobytes(), \
            f"{name}/{dispatch}: streamed cache != batch-quantized cache"


def test_eviction_preserves_survivor_bytes(rng):
    """Evicting old blocks must not disturb the survivors' bytes."""
    fmt = make_format("m2xfp")
    blocks = [_block(rng, 2) for _ in range(6)]
    sess = KVCacheSession(1, "m2xfp", max_tokens=6, sink_tokens=2)
    for b in blocks:
        sess.append(0, b, b)
    assert sess.positions(0) == [(0, 2), (8, 2), (10, 2)]
    K, _ = sess.read(0)
    survivors = [blocks[0], blocks[4], blocks[5]]
    expected = np.concatenate(
        [decode(encode(fmt, b, op="weight", axis=-1).to_bytes(), fmt=fmt)
         for b in survivors], axis=0)
    assert K.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Arenas: reads decode row-stacked runs
# ----------------------------------------------------------------------
def _per_block_decode(fmt, raw: dict, spans) -> np.ndarray:
    """What a read must return: a fresh one-shot decode of each retained
    block (``raw`` maps stream start -> the appended float block)."""
    return np.concatenate(
        [decode(encode(fmt, raw[start], op="weight", axis=-1).to_bytes(),
                fmt=fmt) for start, _ in spans], axis=0)


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("name", list_formats())
def test_read_cache_matches_fresh_decode(name, dispatch, rng):
    """read -> append -> read -> evict -> read: every read equals a fresh
    per-block decode, and in-place edits of a returned array never
    reach the next read."""
    fmt = make_format(name)
    sess = KVCacheSession(1, KVPolicy(name), max_tokens=6, sink_tokens=2,
                          dispatch=dispatch)
    kraw, vraw = {}, {}

    def append(tokens: int) -> dict:
        k, v = _block(rng, tokens), _block(rng, tokens)
        ack = sess.append(0, k, v)
        kraw[ack["start"]], vraw[ack["start"]] = k, v
        return ack

    def read_and_check() -> None:
        K, V = sess.read(0)
        spans = sess.positions(0)
        for got, raw in ((K, kraw), (V, vraw)):
            assert got.tobytes() == _per_block_decode(fmt, raw, spans) \
                .tobytes(), f"{name}/{dispatch}: read != fresh decode"
        K[...] = np.nan   # the caller owns what read() returns
        V[...] = np.nan

    append(2)
    append(1)
    read_and_check()
    append(2)
    read_and_check()
    assert append(3)["evicted_blocks"] == 2
    read_and_check()
    read_and_check()


def test_read_races_append_with_eviction(rng):
    """The server runs READ in a worker thread outside its per-session
    lock, so reads race appends that evict the rows being decoded."""
    fmt = make_format("m2xfp")
    sess = KVCacheSession(1, "m2xfp", max_tokens=16, sink_tokens=2)
    kraw = {t: _block(rng, 1) for t in range(80)}
    vraw = {t: _block(rng, 1) for t in range(80)}
    done = threading.Event()
    errors: list[BaseException] = []

    def writer() -> None:
        try:
            for t in range(80):
                sess.append(0, kraw[t], vraw[t])
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                K, V = sess.read(0)
                if K.shape != V.shape or K.shape[0] > 16:
                    raise AssertionError(f"K{K.shape}, V{V.shape}")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    K, V = sess.read(0)
    spans = sess.positions(0)
    assert K.tobytes() == _per_block_decode(fmt, kraw, spans).tobytes()
    assert V.tobytes() == _per_block_decode(fmt, vraw, spans).tobytes()


def _spy_decodes(monkeypatch, fmt) -> list:
    """Record the row count of every codec decode call for ``fmt``."""
    cls = type(codec_for(fmt))
    real, calls = cls.decode, []

    def spy(self, fmt_, pt):
        calls.append(pt.shape[0])
        return real(self, fmt_, pt)

    monkeypatch.setattr(cls, "decode", spy)
    return calls


@pytest.mark.parametrize("name", ["m2xfp", "nvfp4", "m2-nvfp4"])
def test_read_stacks_fresh_blocks(name, rng, monkeypatch):
    """A read decodes each K/V run in one codec call: a 16-token
    prefill plus 1-token steps are one run, and every read decodes all
    of it again (there is no float64 cache to serve it from)."""
    calls = _spy_decodes(monkeypatch, make_format(name))
    sess = KVCacheSession(1, name)
    for tokens in (16, 1, 1, 1, 1):
        sess.append(0, _block(rng, tokens), _block(rng, tokens))
    del calls[:]   # appends of non-fused formats verify by decoding
    sess.read(0)
    assert calls == [20, 20]
    sess.append(0, _block(rng, 1), _block(rng, 1))
    sess.append(0, _block(rng, 1), _block(rng, 1))
    del calls[:]
    sess.read(0)
    sess.read(0)
    assert calls == [22, 22, 22, 22]


@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("name", list_formats())
def test_arena_read_matches_per_block_decode(name, op, rng, monkeypatch):
    """Two layers, 64 and 20 wide, under a 24-token window behind a
    16-token sink prefill: width 20 pads each row's group and leaves
    unaligned streams (Elem-EE's 3-bit refined codes, MaxPreserving's
    31-code element runs and 5-bit indices), so appends repack and
    evictions drop non-byte-aligned row prefixes. Every read equals the
    per-block ``decode(encode(block))`` bytes and decodes two runs per
    K/V arena: the sinks and the evictable rows."""
    fmt = make_format(name)
    sess = KVCacheSession(2, KVPolicy(name, op=op), max_tokens=24,
                          sink_tokens=2)
    want: dict = {}
    calls = _spy_decodes(monkeypatch, fmt)
    for step, tokens in enumerate((16, 1, 1, 1, 3, 1, 4, 1, 2, 1)):
        for layer, width in enumerate((64, 20)):
            k, v = _block(rng, tokens, width), _block(rng, tokens, width)
            start = sess.append(layer, k, v)["start"]
            want[layer, start] = [
                decode(encode(fmt, x, op=op, axis=-1).to_bytes(), fmt=fmt)
                for x in (k, v)]
            if step < 3:
                continue
            del calls[:]
            K, V = sess.read(layer)
            spans = sess.positions(layer)
            assert calls == [16, sum(n for _, n in spans) - 16] * 2
            for i, got in enumerate((K, V)):
                expect = np.concatenate([want[layer, s][i] for s, _ in spans])
                assert got.tobytes() == expect.tobytes(), \
                    f"{name}/{op} layer {layer} step {step}: read != decode"
    assert sess.stats()["evicted_blocks"] == 2 * 5


#: The catalog formats an append encodes as one stacked K/V block:
#: all but fp16, which sets its storage flag from the whole block. The
#: NVFP4 family takes one tensor scale per row block.
STACKED = set(list_formats()) - {"fp16"}


def _spy_encodes(monkeypatch) -> list:
    """Record ``(format class, input shape)`` for every call of the plan
    encode entries a session binds from here on (a session binds its
    entries on a layer's first append of each block shape)."""
    import repro.kv.session as session_mod

    calls = []
    real = session_mod.encoder_for

    def spy(fmt, op, shape, axis):
        encode_entry = real(fmt, op, shape, axis)

        def counted(x, *args):
            calls.append((type(fmt).__name__, x.shape))
            return encode_entry(x, *args)
        return counted

    monkeypatch.setattr(session_mod, "encoder_for", spy)
    return calls


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("name", list_formats())
def test_stacked_append_matches_solo_encodes(name, op, dispatch, rng,
                                             monkeypatch):
    """A stacked append's K and V containers equal two solo encodes
    byte for byte (header and payload, and so the session's
    ``header_bytes`` / ``payload_bytes`` stats), at widths 64 and 20
    (unaligned Elem-EE refined codes cut by a repack). The NVFP4 family
    stacks too, with K's and V's own tensor scales; fp16, whose header
    depends on the whole block, is encoded one by one."""
    fmt = make_format(name)
    calls = _spy_encodes(monkeypatch)
    for width in (64, 20):
        sess = KVCacheSession(1, KVPolicy(name, op=op), dispatch=dispatch)
        k, v = _block(rng, 3, width), _block(rng, 3, width)
        del calls[:]
        sess.append(0, k, v)
        stacked = [shape for _, shape in calls] == [(6, width)]
        assert stacked == (name in STACKED), f"{name}: encodes {calls}"
        (pk,), (pv,) = sess._arenas[0]
        stats = sess.stats()
        sess.close()
        with DISPATCH[dispatch]():
            solo = [encode(fmt, x, op=op, axis=-1) for x in (k, v)]
        for got, want in zip((pk, pv), solo):
            assert got.to_bytes() == want.to_bytes(), f"{name} w{width}"
        assert stats["header_bytes"] == sum(p.header_bytes for p in solo)
        assert stats["payload_bytes"] == sum(p.payload_bytes for p in solo)


def _tensor_scale_cases(rng) -> dict:
    """K/V pairs at the NVFP4 family's edges: an all-zero (-0.0) K or V
    next to an ordinary block, a tensor scale that underflows (|x|
    about 1e-321) on either side, and a 16-row prefill block."""
    zero = np.zeros((1, 64))
    zero[0, ::3] = -0.0
    tiny = np.zeros((1, 64))
    tiny[0, 0], tiny[0, 9] = 1.5e-321, -5e-322
    return {"zero K": (zero, _block(rng, 1)),
            "zero V": (_block(rng, 1), zero),
            "underflow K": (tiny, _block(rng, 1)),
            "underflow V": (_block(rng, 1) * 1e-3, tiny),
            "zero K, underflow V": (zero, tiny),
            "prefill": (_block(rng, 16), _block(rng, 16) * 1e2)}


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
def test_stacked_tensor_scale_edges_match_solo_encodes(name, op, dispatch,
                                                       rng, monkeypatch):
    """One stacked encode per append, and K and V each keep their own
    tensor scale: the retained containers, the header/payload stats and
    the read are exactly two solo encodes', for zero, underflowed and
    multi-row blocks."""
    fmt = make_format(name)
    calls = _spy_encodes(monkeypatch)
    for case, (k, v) in _tensor_scale_cases(rng).items():
        sess = KVCacheSession(1, KVPolicy(name, op=op), dispatch=dispatch)
        sess.append(0, k, v)
        assert [shape for _, shape in calls] == [(2 * len(k), 64)], case
        del calls[:]
        (pk,), (pv,) = sess._arenas[0]
        stats = sess.stats()
        K, V = sess.read(0)
        sess.close()
        with DISPATCH[dispatch]():
            solo = [encode(fmt, x, op=op, axis=-1) for x in (k, v)]
        for got, want in zip((pk, pv), solo):
            assert got.to_bytes() == want.to_bytes(), case
        assert stats["header_bytes"] == sum(p.header_bytes for p in solo)
        assert stats["payload_bytes"] == sum(p.payload_bytes for p in solo)
        assert K.tobytes() == decode(solo[0], fmt=fmt).tobytes(), case
        assert V.tobytes() == decode(solo[1], fmt=fmt).tobytes(), case


def test_kv_decode_policy_appends_encode_once_per_layer(rng, monkeypatch):
    """Under the ``kv_decode`` benchmark's mixed policy (m2xfp, with
    nvfp4 on layer 1 and m2-nvfp4 on layer 3, weight path), a decode
    step's appends make exactly one encode call per layer."""
    calls = _spy_encodes(monkeypatch)
    policy = {"default": "m2xfp", "overrides": {"1": "nvfp4", "3": "m2-nvfp4"}}
    sess = KVCacheSession(4, policy, max_tokens=96, sink_tokens=8)
    for tokens in (16, 1, 1):
        del calls[:]
        for layer in range(4):
            sess.append(layer, _block(rng, tokens), _block(rng, tokens))
        assert [cls for cls, _ in calls] == \
            ["M2XFP", "NVFP4", "M2XFP", "M2NVFP4"]
    sess.close()


# ----------------------------------------------------------------------
# The bound append path against a stacked encode cut by slice_rows
# ----------------------------------------------------------------------
def _slice_path_bind(fmt, op, tokens, width, verify):
    """An append entry built the other way: one ``encode(row_blocks=2)``
    of the stacked K and V, cut by two ``slice_rows`` (fp16: two solo
    encodes)."""
    def entry(k, v):
        if isinstance(fmt, Fp16Format):
            return (encode(fmt, k, op=op, verify=verify),
                    encode(fmt, v, op=op, verify=verify))
        kv = encode(fmt, np.concatenate([k, v]), op=op, verify=verify,
                    row_blocks=2)
        return slice_rows(kv, 0, tokens), slice_rows(kv, tokens, 2 * tokens)
    return entry


def _drop_then_join(arena, pinned, evict, pt, join):
    """An arena advance built the other way: evicted rows cut by
    ``drop_rows``, then ``pt`` joined on with ``join_rows``."""
    runs, seen = [], 0
    for run in arena:
        n = run.shape[0]
        if evict and seen >= pinned:
            if evict >= n:
                evict -= n
                continue
            run, evict = drop_rows(run, evict), 0
        seen += n
        runs.append(run)
    joined = join_rows(runs[-1], pt) if join and runs else None
    return (*runs, pt) if joined is None else (*runs[:-1], joined)


def _arena_state(sess: KVCacheSession, layer: int = 0) -> list:
    """Every run of ``layer``'s K and V arenas: shape, stream records
    and bytes, and ``extra`` (per-row tensor scales as bytes)."""
    return [(run.shape, [(s.name, s.width, s.count, s.data)
                         for s in run.streams.values()],
             {k: v.tobytes() if isinstance(v, np.ndarray) else v
              for k, v in run.extra.items()})
            for arena in sess._arenas[layer] for run in arena]


def _edge_steps(rng, fmt, width: int) -> list:
    """A 16-row prefill that crosses the sink boundary, then 1-row
    decode steps (and a few 2- and 3-row ones) that evict; for the
    NVFP4 family also zero (-0.0) and underflowed K or V blocks."""
    steps = [(_block(rng, 16, width), _block(rng, 16, width))]
    for i in range(30):
        t = 1 if i % 7 else 1 + i % 3
        steps.append((_block(rng, t, width), _block(rng, t, width)))
    if tensor_scoped(fmt):
        zero = np.zeros((1, width))
        zero[0, ::3] = -0.0
        tiny = np.zeros((1, width))
        tiny[0, 0], tiny[0, width // 2] = 1.5e-321, -5e-322
        steps[5:5] = [(zero, _block(rng, 1, width)), (zero, zero),
                      (_block(rng, 1, width), tiny), (tiny, zero),
                      (tiny, tiny), (zero, zero)]
    return steps


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("name", list_formats())
def test_bound_append_matches_slice_path(name, dispatch, rng, monkeypatch):
    """A session on the bound append path (one plan encode returning K
    and V, eviction cut in the join) and one on a stacked
    ``encode(row_blocks=2)`` cut by ``slice_rows`` with ``drop_rows``
    then ``join_rows`` hold the same arena bytes after every append, and
    agree on acks, ``read()``, ``positions()`` and ``stats()``: a
    16-row prefill over the sink boundary, 1-row decode steps,
    eviction, and NVFP4-family zero and underflowed blocks."""
    import repro.kv.session as session_mod

    fmt = make_format(name)
    for width in (64, 20):
        steps = _edge_steps(rng, fmt, width)
        sessions = []
        for bound in (True, False):
            if not bound:
                monkeypatch.setattr(session_mod, "_bind_append",
                                    _slice_path_bind)
                monkeypatch.setattr(session_mod, "_advance",
                                    _drop_then_join)
            sess = KVCacheSession(1, KVPolicy(name), max_tokens=24,
                                  sink_tokens=4, dispatch=dispatch)
            acks, arenas = [], []
            for k, v in steps:
                ack = sess.append(0, k, v)
                assert ack.pop("session_id") == sess.session_id
                acks.append(ack)
                arenas.append(_arena_state(sess))
            sessions.append((sess, acks, arenas))
            monkeypatch.undo()
        (new, new_acks, new_arenas), (old, old_acks, old_arenas) = sessions
        assert new_acks == old_acks, f"{name} w{width}"
        assert new_arenas == old_arenas, f"{name} w{width}"
        assert new.stats()["evicted_tokens"] > 0
        for got, want in zip(new.read(0), old.read(0)):
            assert got.tobytes() == want.tobytes(), f"{name} w{width}"
        assert new.positions(0) == old.positions(0)
        assert new.stats() == old.stats()
        new.close(), old.close()


@pytest.mark.parametrize("name, width", [
    ("m2xfp", 64), ("nvfp4", 64), ("m2-nvfp4", 64), ("elem-ee", 20),
    ("fp16", 64)])
def test_verify_unpacks_every_stored_stream(name, width, rng, monkeypatch):
    """With ``verify=True`` an append unpacks every stored stream and
    compares it against the plan's codes: a packer that flips one bit in
    any one of an append's packed streams (those packed once and cut,
    and those packed per block, as Elem-EE's 3-bit refined codes are at
    width 20) makes the append raise ``CodecError``; without verify the
    same append goes through."""
    import repro.codec.codecs as codecs_mod

    real = codecs_mod.pack_bits
    encoder_call = codecs_mod.Encoder.__call__.__code__

    def flipping(flip):
        """``pack_bits`` flipping the low bit of the ``flip``-th stream
        the encode entry packs (the arena's own repacks pass through)."""
        seen = []

        def pack(values, width):
            out = real(values, width)
            if sys._getframe(1).f_code is encoder_call:
                if len(seen) == flip:
                    out = out.copy()
                    out[0] ^= 1
                seen.append(width)
            return out
        return pack, seen

    sess = KVCacheSession(1, name, max_tokens=8, sink_tokens=2)
    k, v = _block(rng, 1, width), _block(rng, 1, width)
    for _ in range(10):     # warm and evicting
        sess.append(0, k, v)
    pack, packed = flipping(-1)
    monkeypatch.setattr(codecs_mod, "pack_bits", pack)
    sess.append(0, k, v)
    assert packed
    for flip in range(len(packed)):
        monkeypatch.setattr(codecs_mod, "pack_bits", flipping(flip)[0])
        with pytest.raises(CodecError, match="round-trip mismatch"):
            sess.append(0, k, v)
        monkeypatch.setattr(codecs_mod, "pack_bits", flipping(flip)[0])
        unverified = KVCacheSession(1, name, verify=False)
        unverified.append(0, k, v)
        unverified.close()
    monkeypatch.undo()
    sess.close()


def test_bound_entries_stay_bounded_under_churn(rng):
    """A 240-session soak: each opens, appends blocks of mixed row
    counts to both layers, then closes or is dropped without ``close()``.
    A session binds at most one entry per layer and row count, no
    entry outlives its session, and the plan cache stays bounded."""
    import gc
    import weakref

    policy = {"default": "m2xfp", "overrides": {"1": "nvfp4"}}
    refs = []
    for i in range(240):
        sess = KVCacheSession(2, policy, max_tokens=12, sink_tokens=2)
        counts = [1, 1, 2, 1, 3, 1, 1 + i % 4]
        for t in counts:
            for layer in (0, 1):
                sess.append(layer, _block(rng, t, 32), _block(rng, t, 32))
        for layer, entries in enumerate(sess._entries):
            assert len(entries) <= len(set(counts)), layer
            refs += [weakref.ref(e) for e in entries.values()]
        if i % 2:
            sess.close()
            assert not any(sess._entries)
        del sess
        assert plan_cache_stats()["entries"] <= MAX_PLANS
    gc.collect()
    assert refs and not any(r() is not None for r in refs)


@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_arena_keeps_each_tensor_scale(name, op, rng, monkeypatch):
    """Tensor-scoped formats: blocks across 1e-3..1e2 magnitudes keep
    their own tensor scale per row, and a -0.0 zero-tensor block between
    non-zero blocks starts its own run and reads back its signed zeros."""
    fmt = make_format(name)
    zero = np.zeros((1, 64))
    zero[0, ::3] = -0.0
    blocks = [rng.standard_normal((1, 64)) * 10.0 ** e for e in (-3, 0, 2)]
    blocks += [zero, rng.standard_normal((4, 64)) * 1e-2,
               rng.standard_normal((1, 64))]
    sess = KVCacheSession(1, KVPolicy(name, op=op))
    for b in blocks:
        sess.append(0, b, b[::-1])
    calls = _spy_decodes(monkeypatch, fmt)
    K, V = sess.read(0)
    assert calls == [3, 1, 5] * 2
    for got, rows in ((K, blocks), (V, [b[::-1] for b in blocks])):
        expect = np.concatenate(
            [decode(encode(fmt, b, op=op, axis=-1).to_bytes(), fmt=fmt)
             for b in rows])
        assert got.tobytes() == expect.tobytes()
    assert np.signbit(K[3, ::3]).all()


@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
def test_append_of_underflowing_tensor_scale(name, rng):
    """A block whose NVFP4 tensor scale underflows to 0 is accepted with
    verify on, between ordinary blocks, and reads back each block's own
    decode."""
    fmt = make_format(name)
    tiny = np.zeros((1, 64))
    tiny[0, 0], tiny[0, 2] = 1.5e-323, -5e-324
    blocks = [_block(rng, 1), tiny, _block(rng, 2)]
    sess = KVCacheSession(1, name)
    for b in blocks:
        sess.append(0, b, b)
    K, V = sess.read(0)
    expect = np.concatenate(
        [decode(encode(fmt, b, op="weight").to_bytes(), fmt=fmt)
         for b in blocks])
    assert K.tobytes() == V.tobytes() == expect.tobytes()


def test_fp16_append_keeps_each_storage(rng):
    """An fp16 append of one fp16-exact tensor and one that is not:
    each is encoded alone, so K keeps 16-bit words and V raw float64,
    and each retained container is byte-identical to its solo encode."""
    fmt = make_format("fp16")
    k = rng.standard_normal((2, 8)).astype(np.float16).astype(np.float64)
    v = rng.standard_normal((2, 8))
    sess = KVCacheSession(1, "fp16")
    sess.append(0, k, v)
    (pk,), (pv,) = sess._arenas[0]
    K, V = sess.read(0)
    sess.close()
    for got, x, storage in ((pk, k, "f16"), (pv, v, "f64")):
        solo = encode(fmt, x, op="weight", axis=-1)
        assert solo.extra["storage"] == storage
        assert got.to_bytes() == solo.to_bytes()
    assert K.tobytes() == k.tobytes() and V.tobytes() == v.tobytes()


def test_arena_fp16_mixed_storage(rng, monkeypatch):
    """fp16 blocks stored as f16 and as f64 never share a run."""
    fmt = make_format("fp16")
    exact = [np.full((1, 8), 0.5), np.arange(16.0).reshape(2, 8)]
    raw = [rng.standard_normal((1, 8)), rng.standard_normal((3, 8))]
    blocks = [exact[0], raw[0], raw[1], exact[1], exact[0]]
    sess = KVCacheSession(1, "fp16")
    for b in blocks:
        sess.append(0, b, b)
    calls = _spy_decodes(monkeypatch, fmt)
    K, _ = sess.read(0)
    assert calls == [1, 4, 3] * 2
    expect = np.concatenate(
        [decode(encode(fmt, b, op="weight").to_bytes(), fmt=fmt)
         for b in blocks])
    assert K.tobytes() == expect.tobytes()


@pytest.mark.parametrize("name", list_formats())
def test_retained_bytes_is_payload(name, metrics_env):
    """A decode-step window (1 x 64 blocks, 96 tokens with 8 sinks, a
    16-token prefill then 128 steps): the arenas hold at most the held
    blocks' payload bytes, plus one float64 tensor scale per K and V row
    for tensor-scoped formats. Headers and float64 copies are gone."""
    metrics_env(True)
    rng = np.random.default_rng(21)
    fmt = make_format(name)
    sess = KVCacheSession(1, name, max_tokens=96, sink_tokens=8)
    payload = {}
    for tokens in [16] + [1] * 128:
        k, v = rng.standard_normal((tokens, 64)), \
            rng.standard_normal((tokens, 64))
        start = sess.append(0, k, v)["start"]
        payload[start] = sum(encode(fmt, x, op="weight").payload_bytes
                             for x in (k, v))
    sess.read(0)
    held = sess.positions(0)
    bound = sum(payload[start] for start, _ in held)
    if tensor_scoped(fmt):
        bound += 8 * 2 * sess.tokens_held(0)
    counters = obs_registry().snapshot()[f"kv.{sess.session_id}"]
    assert 0 < counters["retained_bytes"] <= bound
    assert "read_decoded_blocks" not in counters
    assert "retained_bytes" not in sess.stats()


# ----------------------------------------------------------------------
# Eviction invariants
# ----------------------------------------------------------------------
def test_budget_never_exceeded_and_sinks_survive(rng):
    max_tokens, sink = 16, 4
    sess = KVCacheSession(1, "m2xfp", max_tokens=max_tokens,
                          sink_tokens=sink)
    sess.append(0, _block(rng, sink), _block(rng, sink))  # the sink block
    for _ in range(40):
        t = int(rng.integers(1, 6))
        b = _block(rng, t)
        try:
            ack = sess.append(0, b, b)
        except ConfigError:
            # Only legal when the append could not fit even after
            # maximal eviction: budget minus pinned sink tokens.
            assert t > max_tokens - sink
            continue
        held = sess.tokens_held(0)
        assert ack["tokens_held"] == held <= max_tokens
        positions = sess.positions(0)
        assert positions[0] == (0, sink), "sink block was evicted"
        # Spans are disjoint, in stream order, and sum to tokens_held.
        starts = [s for s, _ in positions]
        assert starts == sorted(starts)
        assert sum(n for _, n in positions) == held
        K, V = sess.read(0)
        assert K.shape == V.shape == (held, 64)
    stats = sess.stats()
    assert stats["evicted_tokens"] > 0
    assert stats["tokens_appended"] - stats["evicted_tokens"] \
        == sess.tokens_held(0)


def test_impossible_append_refused_without_side_effects(rng):
    sess = KVCacheSession(1, "m2xfp", max_tokens=8, sink_tokens=4)
    sess.append(0, _block(rng, 4), _block(rng, 4))   # pinned sink
    sess.append(0, _block(rng, 4), _block(rng, 4))   # evictable
    before_pos = sess.positions(0)
    before_stats = sess.stats()
    big = _block(rng, 6)   # overshoot 6 > 4 evictable tokens
    with pytest.raises(ConfigError, match="pinned"):
        sess.append(0, big, big)
    assert sess.positions(0) == before_pos
    assert sess.stats() == before_stats
    # A fitting append still works and evicts only the non-sink block.
    sess.append(0, _block(rng, 4), _block(rng, 4))
    assert sess.positions(0) == [(0, 4), (8, 4)]


def test_counters_track_positions_under_churn():
    """Seeded appends of mixed sizes over two layers, with sinks,
    evictions and refused over-budget appends: after every step the
    held-token counters behind ``tokens_held()``, the ack and
    ``stats()`` equal the sum over ``positions()``, and a refused
    append leaves every counter as it was."""
    rng = np.random.default_rng(31)
    sess = KVCacheSession(2, "m2xfp", max_tokens=24, sink_tokens=6)
    refused = 0
    for _ in range(160):
        layer = int(rng.integers(2))
        t = int(rng.choice([1, 1, 1, 2, 3, 5, 8, 20]))
        before = (sess.stats(), sess.positions(layer))
        try:
            ack = sess.append(layer, _block(rng, t), _block(rng, t))
        except ConfigError:
            refused += 1
            assert (sess.stats(), sess.positions(layer)) == before
            continue
        held = sum(n for _, n in sess.positions(layer))
        assert ack["tokens_held"] == sess.tokens_held(layer) == held
        assert sess.stats()["tokens_held"] == \
            [sum(n for _, n in sess.positions(i)) for i in range(2)]
        assert sess.held_elements(layer) == 2 * held * 64
    stats = sess.stats()
    assert refused and stats["evicted_blocks"]
    assert sum(stats["tokens_held"]) == \
        stats["tokens_appended"] - stats["evicted_tokens"]


def test_no_budget_means_no_eviction(rng):
    sess = KVCacheSession(1, "m2xfp")
    for _ in range(10):
        sess.append(0, _block(rng, 3), _block(rng, 3))
    assert sess.tokens_held(0) == 30
    assert sess.stats()["evicted_blocks"] == 0


def test_constructor_validation():
    with pytest.raises(ConfigError, match="n_layers"):
        KVCacheSession(0)
    with pytest.raises(ConfigError, match="dispatch"):
        KVCacheSession(1, dispatch="warp")
    with pytest.raises(ConfigError, match="max_tokens"):
        KVCacheSession(1, max_tokens=0)
    with pytest.raises(ConfigError, match="sink_tokens"):
        KVCacheSession(1, sink_tokens=-1)
    with pytest.raises(ConfigError, match="sink"):
        KVCacheSession(1, max_tokens=8, sink_tokens=8)


# ----------------------------------------------------------------------
# Policy mixing
# ----------------------------------------------------------------------
def test_policy_mixes_formats_per_layer(rng):
    policy = KVPolicy("m2xfp", overrides={1: "elem-em", 2: "m2-nvfp4"})
    sess = KVCacheSession(3, policy)
    block = _block(rng, 4)
    for layer, expected_name in ((0, "m2xfp"), (1, "elem-em"),
                                 (2, "m2-nvfp4")):
        ack = sess.append(layer, block, block)
        assert ack["format"] == expected_name
        fmt = make_format(expected_name)
        K, _ = sess.read(layer)
        one_shot = decode(encode(fmt, block, op="weight",
                                 axis=-1).to_bytes(), fmt=fmt)
        assert K.tobytes() == one_shot.tobytes()


def test_policy_spec_roundtrip_and_validation():
    policy = KVPolicy("m2xfp", overrides={3: "elem-em"}, op="activation")
    spec = policy.spec()
    assert spec == {"default": "m2xfp", "op": "activation",
                    "overrides": {"3": "elem-em"}}
    back = KVPolicy.from_spec(spec)
    assert repr(back) == repr(policy)
    assert KVPolicy.from_spec("elem-em").default == "elem-em"
    assert KVPolicy.from_spec(policy) is policy
    with pytest.raises(ConfigError):
        KVPolicy("no-such-format")
    with pytest.raises(ConfigError):
        KVPolicy("m2xfp", overrides={0: "no-such-format"})
    with pytest.raises(ConfigError, match="op"):
        KVPolicy("m2xfp", op="gradient")
    with pytest.raises(ConfigError):
        KVPolicy.from_spec(42)
    with pytest.raises(ConfigError, match="override"):
        KVPolicy.from_spec({"default": "m2xfp",
                            "overrides": {"not-a-layer": "elem-em"}})


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_append_read_validation(rng):
    sess = KVCacheSession(2, "m2xfp")
    good = _block(rng, 2)
    with pytest.raises(ConfigError, match="layer"):
        sess.append(2, good, good)
    with pytest.raises(ConfigError, match="layer"):
        sess.read(-1)
    with pytest.raises(ConfigError, match="2-D"):
        sess.append(0, good.ravel(), good.ravel())
    with pytest.raises(ConfigError, match="share a shape"):
        sess.append(0, good, good[:1])
    with pytest.raises(ConfigError, match="non-empty"):
        sess.append(0, good[:0], good[:0])
    sess.append(0, good, good)
    with pytest.raises(ConfigError, match="width"):
        sess.append(0, good[:, :32], good[:, :32])
    # Other layers are independent streams (and may differ in width).
    sess.append(1, good[:, :32], good[:, :32])


def test_close_is_idempotent_and_final(rng):
    sess = KVCacheSession(1, "m2xfp")
    sess.append(0, _block(rng, 2), _block(rng, 2))
    final = sess.close()
    assert final["closed"] is True and final["appends"] == 1
    assert sess.close() == final   # idempotent
    for call in (lambda: sess.append(0, _block(rng, 2), _block(rng, 2)),
                 lambda: sess.read(0),
                 lambda: sess.tokens_held(0)):
        with pytest.raises(ConfigError, match="closed"):
            call()


def test_context_manager_closes(rng):
    with KVCacheSession(1, "m2xfp") as sess:
        sess.append(0, _block(rng, 2), _block(rng, 2))
    assert sess.closed


def test_dropped_session_leaves_the_registry(rng):
    """A session dropped without ``close()`` is not kept alive by its
    registry collector, and drops out of the snapshot once collected."""
    import gc

    sess = KVCacheSession(1, "m2xfp", session_id="dropped-unclosed")
    sess.append(0, _block(rng, 2), _block(rng, 2))
    assert "kv.dropped-unclosed" in obs_registry().snapshot()
    del sess
    gc.collect()
    assert "kv.dropped-unclosed" not in obs_registry().snapshot()


def test_empty_layer_reads_empty():
    sess = KVCacheSession(1, "m2xfp")
    K, V = sess.read(0)
    assert K.shape == V.shape == (0, 0)


def test_stats_track_packed_footprint(rng):
    sess = KVCacheSession(1, "mxfp4")
    sess.append(0, _block(rng, 4), _block(rng, 4))
    stats = sess.stats()
    assert stats["packed_elements"] == 2 * 4 * 64
    assert 0 < stats["measured_bits_per_element"] < 8
    assert stats["payload_bytes"] > 0 and stats["header_bytes"] > 0


def test_session_ids_unique():
    a, b = KVCacheSession(1), KVCacheSession(1)
    assert a.session_id != b.session_id
    assert KVCacheSession(1, session_id="mine").session_id == "mine"


# ----------------------------------------------------------------------
# Wire lifecycle: typed errors end to end
# ----------------------------------------------------------------------
def test_wire_lifecycle_errors(rng):
    k = _block(rng, 2)
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        with pytest.raises(SessionLost, match="unknown"):
            cli.session_read("ghost", 0)
        with pytest.raises(SessionLost, match="unknown"):
            cli.session_append("ghost", 0, k, k, seq=0)
        with pytest.raises(SessionLost, match="nothing to close"):
            cli.session_close("ghost")
        ack = cli.session_open(session_id="s", n_layers=1)
        assert ack["resumed"] is False and ack["next_seq"] == 0
        cli.session_append("s", 0, k, k, seq=0)
        # An out-of-step seq cannot be reconciled: typed SessionLost.
        with pytest.raises(SessionLost, match="seq"):
            cli.session_append("s", 0, k, k, seq=5)
        cli.session_close("s")
        # The slot is gone: every further op is a typed SessionLost.
        with pytest.raises(SessionLost):
            cli.session_append("s", 0, k, k, seq=1)
        assert st.server.stats["sessions_lost"] >= 4


def test_wire_duplicate_append_replays_ack(rng):
    k = _block(rng, 2)
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        cli.session_open(session_id="s", n_layers=1)
        first = cli.session_append("s", 0, k, k, seq=0)
        assert first["duplicate"] is False
        replay = cli.session_append("s", 0, k, k, seq=0)
        assert replay["duplicate"] is True
        assert {key: replay[key] for key in first} \
            == {**first, "duplicate": True}
        # The replay did not double-append.
        K, _ = cli.session_read("s", 0)
        assert K.shape == (2, 64)


def test_wire_open_is_idempotent_and_config_checked(rng):
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        cli.session_open(session_id="s", n_layers=2, max_tokens=8)
        again = cli.session_open(session_id="s", n_layers=2, max_tokens=8)
        assert again["resumed"] is True
        with pytest.raises(ConfigError, match="different"):
            cli.session_open(session_id="s", n_layers=2, max_tokens=16)


def test_wire_session_table_is_bounded():
    with ServerThread(port=0, max_sessions=2) as st, \
            QuantClient(port=st.port) as cli:
        cli.session_open(session_id="a", n_layers=1)
        cli.session_open(session_id="b", n_layers=1)
        from repro.errors import ServerBusy
        with pytest.raises(ServerBusy, match="max open sessions"):
            cli.session_open(session_id="c", n_layers=1, retries=0)
        cli.session_close("a")
        cli.session_open(session_id="c", n_layers=1)
        health = cli.ping()
        assert health["sessions"] == {"open": 2, "max_sessions": 2}


def _kv_collectors(prefix: str) -> dict:
    """The registry snapshot's entries for sessions whose id starts
    with ``prefix``, by name."""
    return {name: val for name, val in obs_registry().snapshot().items()
            if name.startswith(f"kv.{prefix}")}


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc")
def test_session_churn_soak_stays_bounded(metrics_env):
    """About 2,000 session ops on one server: appends of 1 to 300 rows
    (some above the inline bound), reads, open/close churn, resumes and
    a few connections dropped with an append in flight. Threads, file
    descriptors and the session table stay bounded, every ``kv.soak-*``
    registry collector reports its live session, and none outlives
    it."""
    metrics_env(True)
    rng = np.random.default_rng(43)
    threads0, fds0 = threading.active_count(), _fd_count()
    peaks = {"threads": 0, "fds": 0, "sessions": 0}
    with ServerThread(port=0, max_sessions=6) as st:
        clients = [QuantClient(port=st.port).connect()]
        try:
            opened = _soak(st, clients, rng, peaks)
        finally:
            clients[-1].close()
        assert not st.server._sessions
    assert opened > 20 and peaks["sessions"] <= 6
    assert peaks["threads"] <= threads0 + 12
    assert peaks["fds"] <= fds0 + 16
    assert not _kv_collectors("soak-")
    deadline = time.monotonic() + 10.0
    while threading.active_count() > threads0 and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() <= threads0
    assert _fd_count() <= fds0


def _soak(st, clients: list, rng, peaks: dict) -> int:
    """The soak's op loop; ``clients[-1]`` is the live connection (a
    dropped one is replaced). Closes every session it opened and
    returns how many that was."""
    opened, live, held = 0, {}, {}   # session id -> next seq, appends
    cfg = {"n_layers": 2, "max_tokens": 320, "sink_tokens": 4,
           "policy": {"default": "m2xfp", "overrides": {"1": "nvfp4"}}}
    for step in range(2000):
        cli, roll = clients[-1], rng.random()
        if step % 50 == 0:
            peaks["threads"] = max(peaks["threads"],
                                   threading.active_count())
            peaks["fds"] = max(peaks["fds"], _fd_count())
            peaks["sessions"] = max(peaks["sessions"],
                                    len(st.server._sessions))
            collectors = _kv_collectors("soak-")
            assert set(collectors) == {f"kv.{sid}" for sid in live}
            for sid in live:    # each reports its own live session
                assert collectors[f"kv.{sid}"]["appends"] == held[sid]
        if not live or (roll < 0.06 and len(live) < 6):
            sid = f"soak-{opened}"
            opened += 1
            cli.session_open(session_id=sid, **cfg)
            live[sid] = held[sid] = 0
            continue
        sid = sorted(live)[int(rng.integers(len(live)))]
        layer = int(rng.integers(2))
        if roll < 0.11:
            final = cli.session_close(sid)
            del live[sid]
            assert final["appends"] == held.pop(sid)
        elif roll < 0.12:
            # Drop the connection with an append in flight, then resume
            # on a new one and retry that seq.
            k = _block(rng, 1)
            with socket.create_connection(("127.0.0.1", st.port)) as raw:
                raw.sendall(protocol.encode_session_append(
                    999, session_id=sid, layer=layer, seq=live[sid],
                    k=k, v=k))
            cli.close()
            clients.append(QuantClient(port=st.port).connect())
            cli = clients[-1]
            ack = cli.session_open(session_id=sid, **cfg)
            assert ack["resumed"] and ack["next_seq"] - live[sid] in (0, 1)
            cli.session_append(sid, layer, k, k, seq=live[sid])
            live[sid] += 1
            held[sid] += 1
        elif roll < 0.3:
            K, V = cli.session_read(sid, layer)
            assert K.shape == V.shape
        else:
            t = int(rng.choice([1, 1, 1, 1, 2, 3, 300]))
            k = _block(rng, t)
            seq = live[sid]
            live[sid] += 1      # a refused append consumes its seq
            try:
                ack = cli.session_append(sid, layer, k, k[::-1], seq=seq)
            except ConfigError:     # 300 rows past a 300-row sink
                continue
            assert ack["tokens_held"] <= 320
            held[sid] += 1
    for sid in live:
        clients[-1].session_close(sid)
    return opened


# ----------------------------------------------------------------------
# Golden session frames + version rejection
# ----------------------------------------------------------------------
def _golden():
    assert GOLDEN_PATH.exists(), \
        "wire vectors missing; run scripts/regen_wire_vectors.py --regen"
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_session_frames_pinned():
    """Session frames rebuilt from committed inputs match the goldens."""
    golden = _golden()
    assert golden["protocol_version"] == protocol.PROTOCOL_VERSION == 3
    scripts = Path(__file__).parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from regen_wire_vectors import build_payload
        rebuilt = build_payload()
    finally:
        sys.path.pop(0)
    assert rebuilt["sessions"] == golden["sessions"], \
        "session frames drifted from the golden bytes"
    sessions = golden["sessions"]
    cfg = sessions["config"]
    # The pinned frames still parse with the right fields.
    open_req = protocol.decode_session_open(
        protocol.frame_from_bytes(bytes.fromhex(sessions["open_hex"])))
    assert open_req["session_id"] == cfg["session_id"]
    assert open_req["policy"] == cfg["policy"]
    assert open_req["max_tokens"] == cfg["max_tokens"]
    open_ack = protocol.decode_session_ack(
        protocol.frame_from_bytes(bytes.fromhex(sessions["open_ack_hex"])))
    assert open_ack["resumed"] is False and open_ack["next_seq"] == 0
    assert open_ack["policy"] == cfg["policy"]
    append_req = protocol.decode_session_append(
        protocol.frame_from_bytes(bytes.fromhex(sessions["append_hex"])))
    assert append_req["seq"] == 0 and append_req["layer"] == 0
    append_ack = protocol.decode_session_ack(
        protocol.frame_from_bytes(
            bytes.fromhex(sessions["append_ack_hex"])))
    assert append_ack["duplicate"] is False
    assert append_ack["tokens_held"] == append_ack["tokens"]
    k, v = protocol.decode_session_kv(
        protocol.frame_from_bytes(bytes.fromhex(sessions["read_kv_hex"])))
    # The pinned decoded K/V equals re-decoding the appended block
    # through the codec: the golden pins the whole bit-exactness path.
    x = np.array([float.fromhex(h) for h in golden["input_hex"]]) \
        .reshape(golden["shape"])
    fmt = make_format(cfg["policy"]["default"])
    expect_k = decode(encode(fmt, x[:, :16], op="weight",
                             axis=-1).to_bytes(), fmt=fmt)
    assert k.tobytes() == expect_k.tobytes()
    assert v.shape == k.shape
    close_ack = protocol.decode_session_ack(
        protocol.frame_from_bytes(bytes.fromhex(sessions["close_ack_hex"])))
    assert close_ack["closed"] is True
    assert close_ack["session_id"] == cfg["session_id"]


def test_v2_session_frame_rejected():
    """A pre-session (version 2) frame is a typed ProtocolError."""
    golden = _golden()
    for key in ("open_hex", "append_hex", "read_hex", "close_hex"):
        stale = bytearray(bytes.fromhex(golden["sessions"][key]))
        stale[8] = 2   # version byte (after 4B length + 4B magic)
        with pytest.raises(ProtocolError, match="version"):
            protocol.frame_from_bytes(bytes(stale))


def test_session_frame_validation(rng):
    k = rng.standard_normal((2, 8))
    blob = protocol.encode_session_append(1, session_id="s", layer=0,
                                          seq=0, k=k, v=k)
    frame = protocol.frame_from_bytes(blob)
    frame.meta["seq"] = -1
    with pytest.raises(ProtocolError, match="seq"):
        protocol.decode_session_append(frame)
    frame = protocol.frame_from_bytes(blob)
    frame.meta["k_shape"] = [2, 999]
    with pytest.raises(ProtocolError, match="payload"):
        protocol.decode_session_append(frame)
    bad_dispatch = protocol.frame_from_bytes(protocol.encode_session_open(
        1, session_id="s", n_layers=1))
    for retired in ("warp", "bittwiddle"):
        bad_dispatch.meta["dispatch"] = retired
        with pytest.raises(ProtocolError, match="dispatch"):
            protocol.decode_session_open(bad_dispatch)
