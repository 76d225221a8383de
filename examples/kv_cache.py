"""Streaming KV-cache quantization (paper Sec. 6.4).

K and V are right-hand GEMM operands (P = Q K^T, O = P V) cached across
decode steps, so they take the lazy weight-side path. The default mode
drives the **streaming session API** the serving stack exposes: a
:class:`repro.kv.KVCacheSession` appends one quantized K/V block per
decode step through the plan-compiled kernels, retains only the packed
code streams (row-stacked per layer), and evicts by token budget while
keeping the first ``sink_tokens`` positions (attention sinks). Every
append cross-checks its packed bytes against the one-shot batch
quantizer, so the streamed cache is bit-exact by construction; the
example then measures
attention-output error of the paper's per-layer policy against uniform
MXFP4 over the *retained* window, plus the measured packed footprint
against FP16.

``--static`` runs the original one-shot comparison (no session, whole
cache quantized in one batch) for the same accuracy/footprint story.

Both modes share one :class:`~repro.kv.KVPolicy`'s format objects, so
group geometry is derived once and every repeated (shape, op) pair
after the first is a compiled-plan cache hit — the decode loop runs on
cached plans, not per-step replanning.

Run:  python examples/kv_cache.py [--static]
"""

import argparse

import numpy as np

from repro.codec import decode
from repro.kv import KVCacheSession, KVPolicy
from repro.models.layers import softmax
from repro.obs import registry
from repro.plan.cache import plan_cache_stats
from repro.serve import QuantService


def attention(q, k, v):
    scores = softmax(q @ k.T / np.sqrt(q.shape[-1]))
    return scores @ v


def _channelled(rng, shape, channel):
    return rng.standard_normal(shape) * channel


# ----------------------------------------------------------------------
# Streaming mode: a simulated decode loop over KV sessions
# ----------------------------------------------------------------------
def _decode_loop(policy, rng, *, n_layers, dh, channel, prefill, steps,
                 max_tokens, sink_tokens):
    """Run one session through prefill + decode; returns it + raw blocks."""
    sess = KVCacheSession(n_layers, policy, max_tokens=max_tokens,
                          sink_tokens=sink_tokens)
    raw = {}   # (layer, start) -> raw (k, v) block, for the error check
    for layer in range(n_layers):
        k = _channelled(rng, (prefill, dh), channel)
        v = _channelled(rng, (prefill, dh), channel)
        ack = sess.append(layer, k, v)
        raw[(layer, ack["start"])] = (k, v)
    for _ in range(steps):
        for layer in range(n_layers):
            k = _channelled(rng, (1, dh), channel)
            v = _channelled(rng, (1, dh), channel)
            ack = sess.append(layer, k, v)
            raw[(layer, ack["start"])] = (k, v)
    return sess, raw


def _retained_raw(sess, raw, layer):
    ks, vs = zip(*(raw[(layer, start)]
                   for start, _ in sess.positions(layer)))
    return np.concatenate(ks, axis=0), np.concatenate(vs, axis=0)


def streaming_main() -> None:
    rng = np.random.default_rng(7)
    n_layers, dh = 4, 64
    prefill, steps = 16, 120
    max_tokens, sink_tokens = 96, 8
    channel = np.exp(0.3 * rng.standard_normal(dh))
    channel[rng.choice(dh, 2, replace=False)] *= 12.0  # outlier channels

    before = plan_cache_stats()
    policies = {
        "m2xfp": KVPolicy("m2xfp", overrides={0: "elem-em"}),
        "mxfp4": KVPolicy("mxfp4"),
    }
    results = {}
    for name, policy in policies.items():
        sess, raw = _decode_loop(
            policy, np.random.default_rng(11), n_layers=n_layers, dh=dh,
            channel=channel, prefill=prefill, steps=steps,
            max_tokens=max_tokens, sink_tokens=sink_tokens)
        q = _channelled(np.random.default_rng(13), (32, dh), channel)
        errs = []
        for layer in range(n_layers):
            kq, vq = sess.read(layer)
            kr, vr = _retained_raw(sess, raw, layer)
            assert kq.shape == kr.shape      # same retained window
            ref = attention(q, kr, vr)
            got = attention(q, kq, vq)
            errs.append(np.mean((got - ref) ** 2) / np.mean(ref ** 2))
        retained = registry().snapshot().get(
            f"kv.{sess.session_id}", {}).get("retained_bytes")
        results[name] = (float(np.mean(errs)), sess.stats(), retained)
        sess.close()

    total = prefill + steps
    held = results["m2xfp"][1]["tokens_held"][0]
    print(f"streaming KV sessions: {n_layers} layers, {total} positions "
          f"appended, budget {max_tokens} (+{sink_tokens} sink)")
    print(f"  retained window      : {held} tokens "
          f"(evicted {results['m2xfp'][1]['evicted_tokens'] // n_layers} "
          f"per layer, sinks kept)")
    print(f"attention output relative MSE over the retained window")
    err_m2, err_mx = results["m2xfp"][0], results["mxfp4"][0]
    print(f"  MXFP4 everywhere     : {err_mx:.5f}")
    print(f"  M2XFP session policy : {err_m2:.5f}")
    print(f"  improvement          : {err_mx / err_m2:.2f}x")

    stats = results["m2xfp"][1]
    n = stats["packed_elements"]
    fp16_bytes = n * 2
    print(f"\npacked session payload (K+V, all layers, every append)")
    print(f"  fp16                 : {fp16_bytes:8d} B")
    print(f"  packed payload       : {stats['payload_bytes']:8d} B "
          f"({stats['measured_bits_per_element']:.2f} bits/elem, "
          f"{fp16_bytes / stats['payload_bytes']:.2f}x smaller)")
    retained = results["m2xfp"][2]
    if retained is not None:   # None when REPRO_NO_METRICS=1
        print(f"  retained by session  : {retained:8d} B for the {held}-token "
              f"window ({8 * retained / (2 * n_layers * held * dh):.2f} "
              f"bits/elem, no per-step headers)")

    after = plan_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    print(f"\ncompiled-plan cache over the decode loop: {hits} hits / "
          f"{misses} misses (geometry derived once per shape, not "
          f"per step)")
    assert hits > misses, "the decode loop should run on cached plans"


# ----------------------------------------------------------------------
# Static mode: the original one-shot accuracy/footprint comparison
# ----------------------------------------------------------------------
def packed_kv_footprint(name, k, v):
    """Pack K and V under a catalog format; return (bytes, bits/elem)."""
    with QuantService(name, packed=True) as svc:
        pk = svc.quantize(k, op="weight")
        pv = svc.quantize(v, op="weight")
        stats = svc.stats()
    # The packed cache must reproduce the simulated quantizers exactly.
    fmt_k = decode(pk)
    assert fmt_k.shape == k.shape
    return (pk.total_bytes + pv.total_bytes,
            stats["measured_bits_per_element"], (pk, pv))


def static_main() -> None:
    rng = np.random.default_rng(7)
    seq, dh = 128, 64
    channel = np.exp(0.3 * rng.standard_normal(dh))
    channel[rng.choice(dh, 2, replace=False)] *= 12.0  # outlier channels
    q = _channelled(rng, (seq, dh), channel)
    k = _channelled(rng, (seq, dh), channel)
    v = _channelled(rng, (seq, dh), channel)
    ref = attention(q, k, v)

    # One policy owns the format objects: repeated quantize calls below
    # reuse its cached group geometry through the compiled-plan cache.
    policy = KVPolicy("sg-em", overrides={-1: "elem-em"})
    sg_em = policy.format_for(0)
    elem_em = policy.format_for(-1)
    mxfp4 = KVPolicy("mxfp4").format_for(0)

    def m2xfp_attention():
        # Sg-EM on the cached K/V (lazy, offline-style); Elem-EM on Q and
        # on the attention probabilities P (produced online).
        kq = sg_em.quantize_weight(k)
        vq = sg_em.quantize_weight(v)
        qq = elem_em.quantize_activation(q)
        p = softmax(qq @ kq.T / np.sqrt(dh))
        return elem_em.quantize_activation(p) @ vq

    def mxfp4_attention():
        p = softmax(mxfp4.quantize(q) @ mxfp4.quantize(k).T / np.sqrt(dh))
        return mxfp4.quantize(p) @ mxfp4.quantize(v)

    denom = np.mean(ref ** 2)
    err_m2 = np.mean((m2xfp_attention() - ref) ** 2) / denom
    err_mx = np.mean((mxfp4_attention() - ref) ** 2) / denom
    print(f"attention output relative MSE")
    print(f"  MXFP4 everywhere     : {err_mx:.5f}")
    print(f"  M2XFP KV-cache split : {err_m2:.5f}")
    print(f"  improvement          : {err_mx / err_m2:.2f}x")

    # ------------------------------------------------------------------
    # Packed KV-cache memory footprint (the part that lives in DRAM)
    # ------------------------------------------------------------------
    n = 2 * seq * dh
    fp16_bytes = n * 2
    print(f"\npacked KV-cache footprint ({seq} positions x {dh} dims, K+V)")
    print(f"  {'format':12s} {'bytes':>8s} {'bits/elem':>10s} "
          f"{'nominal':>8s} {'vs fp16':>8s}")
    print(f"  {'fp16':12s} {fp16_bytes:8d} {16.0:10.2f} {16.0:8.2f} "
          f"{1.0:7.2f}x")
    for name, nominal in (("sg-em", sg_em.ebw), ("mxfp4", mxfp4.ebw)):
        total, bits, (pk, pv) = packed_kv_footprint(name, k, v)
        # Bit-exactness of the packed cache against the simulated path.
        check = sg_em if name == "sg-em" else mxfp4
        assert decode(pk).tobytes() == check.quantize_weight(k).tobytes()
        print(f"  {name:12s} {total:8d} {bits:10.2f} {nominal:8.2f} "
              f"{fp16_bytes / total:7.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--static", action="store_true",
                        help="one-shot batch comparison instead of the "
                             "streaming session decode loop")
    ns = parser.parse_args()
    static_main() if ns.static else streaming_main()


if __name__ == "__main__":
    main()
