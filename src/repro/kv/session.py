"""Stateful streaming KV-cache quantization sessions.

A :class:`KVCacheSession` models the tensor that actually lives in DRAM
between decode steps: per decode step the caller appends the new K/V
rows for each layer, and the session packs them **from the compiled
plan's codes** (the plan's encode entry, :class:`repro.codec.Encoder`,
over the same plans the batch path's ``quantize_weight`` /
``quantize_activation`` run — by default every append unpacks each
stored stream and compares it against those codes, raising on any
mismatch, so streamed state is bit-exact *by construction*). A layer
binds its append entry once per block shape, on its first append of
that shape, so an append does no plan lookup. The entry encodes K and V
as one stacked block in one plan call, which returns K's and V's
containers, each exactly the container encoding it alone gives: the
tensor-scoped NVFP4 family takes K's and V's tensor scales separately.
Only fp16, whose storage flag depends on the whole block, encodes each
alone, through the same entry.
Each layer's K and V are kept as **arenas**: a short
list of runs, each one row-stacked :class:`~repro.codec.PackedTensor`
that appends extend (:func:`~repro.codec.join_rows`). A new run starts
only where the row layout changes (fp16's f16 vs f64 storage, an
NVFP4-family zero tensor) or at the first block past the sinks;
tensor-scoped formats keep one float64 tensor scale per row. MX groups
decode independently, so a read decodes each run in one codec call to
exactly the bytes its blocks decode to alone, and the session holds the
format's payload bits: no per-block header, no float64 cache. Eviction
drops leading rows of the evictable runs (in the join when they are
the last run's, else :func:`~repro.codec.drop_rows`), so memory stays
bounded by ``max_tokens``.

Eviction is by **token budget** per layer: once a layer holds more than
``max_tokens`` tokens, the oldest blocks are dropped — except blocks
that began inside the first ``sink_tokens`` positions ("attention
sinks"), which are never evicted. An append that cannot fit even after
evicting every evictable block is refused with
:class:`~repro.errors.ConfigError` and leaves the session unchanged —
the budget invariant is never violated, not even transiently.

Bit-exactness contract (asserted in ``tests/test_kv_session.py`` for
every catalog format under every dispatch mode):

* ``read(layer)`` equals the concatenation of one-shot quantizations of
  the retained blocks, bit for bit; and
* for every group-wise (batchable) format this also equals the one-shot
  quantization of the concatenated raw blocks — the streamed cache and
  the batch cache are the same bytes. Tensor-scoped formats (NVFP4 /
  M2-NVFP4 and MaxPreserving wrappers of them) are **block-scoped** by
  design: their tensor-level scale depends on the whole input, so each
  appended K or V block is its own scaling scope.

Example::

    from repro.kv import KVCacheSession, KVPolicy

    policy = KVPolicy("m2xfp", overrides={0: "elem-em"})
    sess = KVCacheSession(n_layers=4, policy=policy,
                          max_tokens=512, sink_tokens=16)
    for step_k, step_v in decode_steps:          # (t, d_head) blocks
        for layer in range(4):
            sess.append(layer, step_k[layer], step_v[layer])
    k, v = sess.read(0)                           # dequantized float64
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque

import numpy as np

from ..codec import PackedTensor, codec_for, collect_encode_stats, \
    drop_rows, encoder_for, join_rows
from ..codec.container import OPS
from ..errors import ConfigError
from ..models.quantized import Fp16Format
from ..obs import measured_bits_per_element
from ..obs import registry as obs_registry
from ..serve.service import DISPATCH_MODES, _dispatch_scope

__all__ = ["KVCacheSession", "KVPolicy"]

_session_counter = itertools.count(1)


class KVPolicy:
    """Per-layer format selection for a KV-cache session.

    Parameters
    ----------
    default:
        Catalog format name used for every layer without an override.
    overrides:
        ``{layer_index: format_name}`` exceptions — the mixed-precision
        knob (NxFP-style per-layer adaptation).
    op:
        Operand path the K/V blocks are quantized on. KV entries are
        right-hand GEMM operands cached across steps, so the lazy
        ``"weight"`` path is the default (paper Sec. 6.4).
    """

    def __init__(self, default: str = "m2xfp",
                 overrides: dict[int, str] | None = None,
                 op: str = "weight") -> None:
        if op not in OPS:
            raise ConfigError(f"op must be one of {OPS}, got {op!r}")
        from ..runner.formats import make_format
        self.default = str(default)
        self.op = op
        self.overrides: dict[int, str] = {}
        for layer, name in (overrides or {}).items():
            self.overrides[int(layer)] = str(name)
        # Validate every name once, up front, and share the format
        # objects across appends so the compiled-plan cache is keyed by
        # a stable fingerprint (and the session never rebuilds group
        # geometry per call).
        self._formats = {name: make_format(name)
                         for name in {self.default, *self.overrides.values()}}

    def name_for(self, layer: int) -> str:
        return self.overrides.get(int(layer), self.default)

    def format_for(self, layer: int):
        return self._formats[self.name_for(layer)]

    def spec(self) -> dict:
        """JSON-safe description (the wire/HTTP session-open encoding)."""
        return {"default": self.default, "op": self.op,
                "overrides": {str(k): v
                              for k, v in sorted(self.overrides.items())}}

    @classmethod
    def from_spec(cls, spec) -> "KVPolicy":
        """A policy from a spec dict, a format name, a policy, or None
        (the default policy)."""
        if spec is None:
            return cls()
        if isinstance(spec, KVPolicy):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if not isinstance(spec, dict):
            raise ConfigError(f"policy must be a format name or a spec "
                              f"object, got {spec!r}")
        overrides = spec.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ConfigError(f"policy overrides must be an object, "
                              f"got {overrides!r}")
        try:
            overrides = {int(k): str(v) for k, v in overrides.items()}
        except (TypeError, ValueError):
            raise ConfigError(f"policy override keys must be layer "
                              f"indices, got {overrides!r}") from None
        return cls(spec.get("default", "m2xfp"), overrides=overrides,
                   op=spec.get("op", "weight"))

    def __repr__(self) -> str:  # stable — used in config comparisons
        return (f"KVPolicy(default={self.default!r}, "
                f"overrides={dict(sorted(self.overrides.items()))!r}, "
                f"op={self.op!r})")


class KVCacheSession:
    """Append-only quantized KV cache with token-budget eviction.

    Parameters
    ----------
    n_layers:
        Number of transformer layers (independent K/V streams).
    policy:
        A :class:`KVPolicy`, a catalog format name, or a policy spec
        dict. Default: ``m2xfp`` on every layer, weight path.
    max_tokens:
        Per-layer token budget; ``None`` disables eviction.
    sink_tokens:
        Blocks beginning inside the first ``sink_tokens`` stream
        positions are never evicted (StreamingLM-style attention sinks).
    dispatch:
        Kernel dispatch mode pinned for every quantization this session
        runs (``inherit`` / ``fast`` / ``reference`` — bit-identical by
        the parity contract). The pin is scoped to the thread running
        the append, so concurrent sessions never see each other's mode.
    session_id:
        Stable identifier; auto-generated when omitted.
    verify:
        When True (default), every append cross-checks the fresh
        container: each packed stream is unpacked and compared against
        the executor's code arrays (O(bytes)) — streamed state can
        never silently diverge from the batch path.

    Retained state per layer is its K and V arenas (see the module
    docstring): the packed code streams of the held rows, plus one
    float64 tensor scale per row for tensor-scoped formats.

    Thread-safe: one lock guards the session state, so a server can
    drive the session from worker threads. Appends and evictions
    replace runs and arenas rather than mutate them, so a read takes a
    snapshot under the lock and decodes it outside.
    """

    def __init__(self, n_layers: int, policy=None, *,
                 max_tokens: int | None = None, sink_tokens: int = 0,
                 dispatch: str = "inherit", session_id: str | None = None,
                 verify: bool = True) -> None:
        n_layers = int(n_layers)
        if n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
        if dispatch not in DISPATCH_MODES:
            raise ConfigError(f"dispatch must be one of {DISPATCH_MODES}, "
                              f"got {dispatch!r}")
        if max_tokens is not None:
            max_tokens = int(max_tokens)
            if max_tokens < 1:
                raise ConfigError(f"max_tokens must be >= 1 or None, "
                                  f"got {max_tokens}")
        sink_tokens = int(sink_tokens)
        if sink_tokens < 0:
            raise ConfigError(f"sink_tokens must be >= 0, "
                              f"got {sink_tokens}")
        if max_tokens is not None and sink_tokens >= max_tokens:
            raise ConfigError(f"sink_tokens ({sink_tokens}) must be < "
                              f"max_tokens ({max_tokens}); the sink "
                              f"region alone would exhaust the budget")
        self.n_layers = n_layers
        self.policy = KVPolicy.from_spec(policy)
        self.max_tokens = max_tokens
        self.sink_tokens = sink_tokens
        self.dispatch = dispatch
        self.verify = bool(verify)
        self.session_id = session_id if session_id \
            else f"kv-{next(_session_counter)}"
        self._lock = threading.Lock()
        self._closed = False
        # Per layer, the ``(start, tokens)`` span of each appended block
        # in stream order: the pinned sink blocks, then the evictable
        # ones (oldest first, so eviction pops from the left), with
        # running held and pinned token counts.
        self._sinks: list[list[tuple[int, int]]] = \
            [[] for _ in range(n_layers)]
        self._blocks: list[deque] = [deque() for _ in range(n_layers)]
        self._held = [0] * n_layers
        self._pinned = [0] * n_layers
        # Per layer, the (K, V) arenas: tuples of immutable runs.
        self._arenas: list[tuple[tuple, tuple]] = [((), ())] * n_layers
        # Per layer, the append entry bound for each (tokens, width)
        # block shape (:func:`_bind_append`), on the layer's first
        # append of that shape; close() drops them.
        self._entries: list[dict] = [{} for _ in range(n_layers)]
        self._next_pos = [0] * n_layers
        self._stats = {"appends": 0, "tokens_appended": 0,
                       "evicted_blocks": 0, "evicted_tokens": 0,
                       "payload_bytes": 0, "header_bytes": 0,
                       "packed_elements": 0}
        # Per-stage encode timings, kept out of stats(): the wire CLOSE
        # ack pins that dict's JSON in the golden frames, and seconds
        # are not reproducible bytes.
        self._encode_stats = {"fused_encodes": 0, "fused_appends": 0,
                              "quantize_s": 0.0, "pack_s": 0.0,
                              "verify_s": 0.0}
        # Weakly held: a session dropped without close() must not live
        # on in the process-global registry.
        obs_registry().register_collector(
            f"kv.{self.session_id}", weakref.WeakMethod(self._collect_metrics))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> dict:
        """Quantize and retain one (t, d_head) K/V block for ``layer``.

        Returns an acknowledgement dict (stream position, tokens held,
        eviction counts — the payload of the wire-protocol APPEND ack).
        """
        layer = self._check_layer(layer)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if k.ndim != 2 or v.ndim != 2:
            raise ConfigError(f"K/V blocks must be 2-D (tokens, d_head); "
                              f"got k{k.shape} v{v.shape}")
        if k.shape != v.shape:
            raise ConfigError(f"K and V blocks must share a shape; "
                              f"got k{k.shape} v{v.shape}")
        if k.shape[0] < 1 or k.shape[1] < 1:
            raise ConfigError(f"K/V blocks must be non-empty; "
                              f"got shape {tuple(k.shape)}")
        tokens, width = k.shape
        entries = self._entries[layer]
        entry = entries.get(k.shape)
        if entry is None:
            # Bind no entry for an append the session refuses.
            self._check_open()
            self._check_width(layer, width)
            entry = entries[k.shape] = _bind_append(
                self.policy.format_for(layer), self.policy.op, tokens,
                width, self.verify)
        with _dispatch_scope(self.dispatch), collect_encode_stats() as es:
            pk, pv = entry(k, v)
        header_bytes = pk.header_bytes + pv.header_bytes
        payload_bytes = pk.payload_bytes + pv.payload_bytes
        with self._lock:
            self._check_open()
            self._check_width(layer, width)
            arenas = self._arenas[layer]
            start = self._next_pos[layer]
            evicted, evicted_tokens = self._evict_for(layer, tokens)
            pinned = self._pinned[layer]
            # Sink rows never share a run with evictable rows, so
            # eviction only ever drops leading rows of a run.
            if start < self.sink_tokens:
                spans = self._sinks[layer]
                self._pinned[layer] += tokens
            else:
                spans = self._blocks[layer]
            join = bool(spans)
            self._arenas[layer] = (
                _advance(arenas[0], pinned, evicted_tokens, pk, join),
                _advance(arenas[1], pinned, evicted_tokens, pv, join))
            spans.append((start, tokens))
            held = self._held[layer] = \
                self._held[layer] + tokens - evicted_tokens
            self._next_pos[layer] = start + tokens
            st = self._stats
            st["appends"] += 1
            st["tokens_appended"] += tokens
            st["evicted_blocks"] += evicted
            st["evicted_tokens"] += evicted_tokens
            st["payload_bytes"] += payload_bytes
            st["header_bytes"] += header_bytes
            st["packed_elements"] += 2 * tokens * width
            enc = self._encode_stats
            enc["fused_encodes"] += es["fused_encodes"]
            enc["fused_appends"] += es["fused_encodes"] == es["encodes"]
            enc["quantize_s"] += es["quantize_s"]
            enc["pack_s"] += es["pack_s"]
            enc["verify_s"] += es["verify_s"]
        return {"session_id": self.session_id, "layer": layer,
                "start": start, "tokens": tokens, "tokens_held": held,
                "evicted_blocks": evicted,
                "evicted_tokens": evicted_tokens,
                "format": self.policy.name_for(layer)}

    def read(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Dequantize the retained cache for ``layer`` as (K, V).

        The retained rows in stream order, byte-identical to decoding
        each retained block on its own; empty layers yield two
        ``(0, 0)`` arrays. Each run is decoded from its code streams by
        one codec call, outside the lock, into arrays the caller owns.
        """
        layer = self._check_layer(layer)
        with self._lock:
            self._check_open()
            arenas = self._arenas[layer]
        if not arenas[0]:
            empty = np.zeros((0, 0), dtype=np.float64)
            return empty, empty.copy()
        fmt = self.policy.format_for(layer)
        codec = codec_for(fmt)
        return tuple(np.concatenate([codec.decode(fmt, run) for run in arena])
                     for arena in arenas)

    def positions(self, layer: int) -> list[tuple[int, int]]:
        """Retained ``(start, tokens)`` spans for ``layer`` (stream
        order) — what :meth:`read` rows correspond to after eviction."""
        layer = self._check_layer(layer)
        with self._lock:
            self._check_open()
            return [*self._sinks[layer], *self._blocks[layer]]

    def tokens_held(self, layer: int) -> int:
        layer = self._check_layer(layer)
        with self._lock:
            self._check_open()
            return self._held[layer]

    def held_elements(self, layer: int) -> int:
        """K+V elements ``layer`` holds: what :meth:`read` decodes."""
        layer = self._check_layer(layer)
        with self._lock:
            arena = self._arenas[layer][0]
            return 2 * self._held[layer] * arena[0].shape[1] if arena else 0

    def stats(self) -> dict:
        """Counters plus the measured packed footprint."""
        with self._lock:
            out = dict(self._stats)
            out["tokens_held"] = list(self._held)
            out["closed"] = self._closed
        mbpe = measured_bits_per_element(out["payload_bytes"],
                                         out["packed_elements"])
        if mbpe is not None:
            out["measured_bits_per_element"] = mbpe
        return out

    def encode_stage_stats(self) -> dict:
        """Cumulative per-stage encode cost over every append.

        ``fused_encodes`` counts the plan encode calls, each packed from
        plan codes (one per stacked append, else one each for K and V),
        and ``fused_appends`` the appends whose every encode was;
        ``quantize_s`` / ``pack_s`` / ``verify_s`` are the stage seconds
        from the codec's stage sink. Separate from
        :meth:`stats` because the wire CLOSE ack serializes that dict
        verbatim into golden-pinned frames.
        """
        with self._lock:
            return dict(self._encode_stats)

    def _collect_metrics(self) -> dict:
        """Registry collector view: counters, per-stage encode cost
        (prefixed, so the snapshot stays one flat JSON-safe dict) and
        ``retained_bytes``, what the arenas hold: run stream bytes plus
        per-row tensor-scale arrays."""
        out = self.stats()
        for key, val in self.encode_stage_stats().items():
            out[f"encode_{key}"] = val
        with self._lock:
            out["retained_bytes"] = sum(
                run.payload_bytes
                + getattr(run.extra.get("tensor_scale"), "nbytes", 0)
                for arenas in self._arenas for arena in arenas
                for run in arena)
        return out

    def info(self) -> dict:
        """JSON-safe session description (wire/HTTP OPEN acks)."""
        return {"session_id": self.session_id, "n_layers": self.n_layers,
                "max_tokens": self.max_tokens,
                "sink_tokens": self.sink_tokens, "dispatch": self.dispatch,
                "verify": self.verify, "policy": self.policy.spec()}

    def close(self) -> dict:
        """Close the session; further appends/reads raise ``ConfigError``.

        Idempotent; returns the final :meth:`stats` snapshot either way.
        """
        with self._lock:
            self._closed = True
            for entries in self._entries:
                entries.clear()
        obs_registry().unregister_collector(f"kv.{self.session_id}")
        return {**self.stats(), "closed": True}

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "KVCacheSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_layer(self, layer) -> int:
        layer = int(layer)
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer must be in [0, {self.n_layers}), "
                              f"got {layer}")
        return layer

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError(f"session {self.session_id} is closed; "
                              f"open a new session to continue")

    def _check_width(self, layer: int, width: int) -> None:
        arena = self._arenas[layer][0]
        if arena and arena[0].shape[1] != width:
            raise ConfigError(f"layer {layer} blocks are "
                              f"{arena[0].shape[1]} wide; an append of "
                              f"width {width} cannot join the stream")

    def _evict_for(self, layer: int, tokens: int) -> tuple[int, int]:
        """Drop ``layer``'s oldest evictable blocks until an append of
        ``tokens`` fits the budget; returns the dropped block and token
        counts.

        Raises (leaving the layer untouched) when even maximal eviction
        cannot fit the append — the budget invariant must hold *after
        every append*, so an impossible append is refused, never
        partially applied. The held-token counter is the caller's to
        update.
        """
        if self.max_tokens is None:
            return 0, 0
        overshoot = self._held[layer] + tokens - self.max_tokens
        if overshoot <= 0:
            return 0, 0
        pinned = self._pinned[layer]
        budget = self._held[layer] - pinned
        if overshoot > budget:
            raise ConfigError(
                f"append of {tokens} tokens cannot fit the "
                f"{self.max_tokens}-token budget: {pinned} tokens are "
                f"pinned (sinks), only {budget} are evictable")
        blocks, evicted, dropped = self._blocks[layer], 0, 0
        while dropped < overshoot:
            dropped += blocks.popleft()[1]
            evicted += 1
        return evicted, dropped


def _bind_append(fmt, op: str, tokens: int, width: int, verify: bool):
    """The append entry a session binds for ``tokens``-row K/V blocks
    of ``width`` on a layer of ``fmt``: ``entry(k, v) -> (K container,
    V container)``.

    Every format but fp16 encodes K and V as one stacked block, in one
    call of the plan's encode entry, which returns K's and V's
    containers from that run: each exactly the container its solo
    encode gives, header included. Group-wise rows encode independently;
    the tensor-scoped NVFP4 family takes one tensor scale per block
    (``blocks=2``), so K and V keep their own, zero and underflowed
    blocks included. fp16 sets its ``storage`` flag from the whole
    block, so its K and V are two calls of the same entry.
    """
    if isinstance(fmt, Fp16Format):
        encode = encoder_for(fmt, op, (tokens, width), 1)

        def entry(k, v):
            return encode(k, verify), encode(v, verify)
        return entry
    encode = encoder_for(fmt, op, (2 * tokens, width), 1)

    def entry(k, v):
        return encode(np.concatenate((k, v)), verify, 2, True)
    return entry


def _advance(arena: tuple, pinned: int, evict: int, pt: PackedTensor,
             join: bool) -> tuple:
    """``arena`` without the ``evict`` rows after its first ``pinned``
    (sink) rows, which end on a run boundary, and with ``pt``'s rows:
    joined onto the last run when ``join`` allows and the row layouts
    match, else as a new run. Without eviction only the last run is
    touched, and rows evicted from the last run are cut in the join."""
    cut = 0
    if evict:
        runs, seen = [], 0
        for run in arena:
            n = run.shape[0]
            if evict and seen >= pinned:
                if evict >= n:
                    evict -= n
                    continue
                if run is arena[-1]:
                    cut = evict
                else:
                    run = drop_rows(run, evict)
                evict = 0
            seen += n
            runs.append(run)
        arena = tuple(runs)
    if join and arena:
        joined = join_rows(arena[-1], pt, cut)
        if joined is not None:
            return (*arena[:-1], joined)
    if cut:
        arena = (*arena[:-1], drop_rows(arena[-1], cut))
    return (*arena, pt)
