"""Layer spans for secpon, recorded from outside the package.

``Tracer.installed()`` replaces each layer's public functions where
``secpon.protocol`` and ``secpon.experiments`` look them up (plus the
few class methods they reach through objects) with wrappers that record
a span and per-layer counters, and puts the originals back on exit.
Nothing under ``secpon`` is edited, and code outside the ``with`` block
runs the original functions.

A span is ``[layer, parent span index, start ns, end ns]``; spans nest
through a stack, so a layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

# Self-time buckets, in report order.
LAYERS = (
    "dscm.mux", "dscm.demux", "channel", "rxdsp.cpr", "framing", "framing.llr",
    "fec_ldpc.encode", "fec_ldpc.decode", "fec_polar.encode", "fec_polar.decode",
    "crypto.aes", "crypto.keystore", "protocol",
)

CountFn = Callable[[dict, tuple, Any], None]


def _count_mux(c: dict, args: tuple, out: Any) -> None:
    c["dscm.samples"] += out.symbols.size


def _count_demux(c: dict, args: tuple, out: Any) -> None:
    c["dscm.samples"] += args[0].symbols.size


def _count_channel(c: dict, args: tuple, out: Any) -> None:
    c["channel.samples"] += args[0].symbols.size


def _count_cpr(c: dict, args: tuple, out: Any) -> None:
    c["rxdsp.cycle_slips"] += out.cycle_slips


def _count_ldpc_decode(c: dict, args: tuple, out: Any) -> None:
    code = args[0]
    _, iters, converged = out
    batch = iters.size
    loops = int(iters.max())             # lockstep: the batch runs until its slowest codeword
    c["fec_ldpc.codewords"] += batch
    c["fec_ldpc.iterations"] += int(iters.sum())
    c["fec_ldpc.converged"] += int(np.count_nonzero(converged))
    c["fec_ldpc.lockstep_iterations"] += loops * batch
    c["fec_ldpc.edge_updates"] += loops * batch * code.var_of_edge.size


def _count_polar_decode(c: dict, args: tuple, out: Any) -> None:
    c["fec_polar.blocks"] += np.atleast_2d(args[0]).shape[0]
    c["fec_polar.crc_pass"] += int(np.count_nonzero(out[1]))


def _count_aes(c: dict, args: tuple, out: Any) -> None:
    c["crypto.aes.bits"] += np.asarray(args[0]).size


_FRAMING = ("assemble_frame", "demap_payload_16qam", "hard_decision_16qam",
            "map_payload_16qam", "map_pilot", "pilot_phase_reference", "qpsk_training")
_FRAMING_LLR = ("demap_pilot_llrs", "payload_llrs_16qam")


def layer_targets() -> list[tuple[str, Any, str, CountFn | None]]:
    """Every ``(layer, owner, attribute, counter)`` the tracer may wrap.

    Owners are where the experiment and protocol runners look the
    functions up; an attribute an owner no longer has is skipped.
    """
    from secpon import experiments, protocol, rxdsp
    from secpon.crypto import KeyStore
    from secpon.fec_ldpc import LdpcCode
    from secpon.fec_polar import KeyCodeword

    runners = (protocol, experiments)
    groups: list[tuple[str, tuple, tuple[str, ...], CountFn | None]] = [
        ("dscm.mux", runners, ("mux",), _count_mux),
        ("dscm.demux", runners, ("demux_select",), _count_demux),
        ("channel", runners, ("apply_channel", "add_awgn"), _count_channel),
        ("rxdsp.cpr", (rxdsp, experiments), ("recover_carrier_phase",), _count_cpr),
        ("framing", runners, _FRAMING, None),
        ("framing.llr", runners, _FRAMING_LLR, None),
        ("fec_ldpc.encode", (LdpcCode,), ("encode",), None),
        ("fec_ldpc.decode", (LdpcCode,), ("decode_batch",), _count_ldpc_decode),
        ("fec_polar.encode", (KeyCodeword,), ("from_payload",), None),
        ("fec_polar.decode", runners, ("polar_decode_scl",), _count_polar_decode),
        ("crypto.aes", runners, ("aes256_encrypt", "aes256_decrypt"), _count_aes),
        ("crypto.keystore", (KeyStore,),
         ("add_pending", "activate", "consume", "pending_seqs"), None),
        ("protocol", (experiments,), ("run_secure_session",), None),
    ]
    return [(layer, owner, name, counter)
            for layer, owners, names, counter in groups
            for owner in owners for name in names if name in vars(owner)]


class Tracer:
    """Spans and counters of one traced experiment call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable, counter: CountFn | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            counts[layer + ".calls"] += 1
            if counter is not None:
                counter(counts, args, out)
            return out

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer target for the duration of the block."""
        saved = []
        try:
            for layer, owner, name, counter in layer_targets():
                original = vars(owner)[name]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(layer, original.__func__, counter))
                else:
                    wrapped = self.wrap(layer, original, counter)
                saved.append((owner, name, original))
                setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_ns(self) -> dict[str, int]:
        """Self time per layer: span durations minus their children's."""
        own = {layer: 0 for layer in LAYERS}
        for layer, parent, start, end in self.spans:
            own[layer] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own


def layer_metrics(tracers: list[Tracer], run_ns: list[int]) -> dict[str, float]:
    """Per-call averages over traced calls, named as in BENCHMARK.json."""
    n = len(tracers)
    own: defaultdict[str, float] = defaultdict(float)
    counts: defaultdict[str, float] = defaultdict(float)
    for tracer in tracers:
        for layer, ns in tracer.self_ns().items():
            own[layer] += ns / 1e9 / n
        for key, value in tracer.counts.items():
            counts[key] += value / n
    run_s = sum(run_ns) / 1e9 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    dscm_busy = own["dscm.mux"] + own["dscm.demux"]
    return {
        "dscm.mux.calls": counts["dscm.mux.calls"],
        "dscm.mux.busy_s": own["dscm.mux"],
        "dscm.demux.calls": counts["dscm.demux.calls"],
        "dscm.demux.busy_s": own["dscm.demux"],
        "dscm.samples": counts["dscm.samples"],
        "dscm.ns_per_sample": ratio(dscm_busy * 1e9, counts["dscm.samples"]),
        "channel.calls": counts["channel.calls"],
        "channel.busy_s": own["channel"],
        "channel.samples": counts["channel.samples"],
        "rxdsp.cpr.calls": counts["rxdsp.cpr.calls"],
        "rxdsp.cpr.busy_s": own["rxdsp.cpr"],
        "rxdsp.cycle_slips": counts["rxdsp.cycle_slips"],
        "framing.calls": counts["framing.calls"] + counts["framing.llr.calls"],
        "framing.busy_s": own["framing"] + own["framing.llr"],
        "framing.llr.busy_s": own["framing.llr"],
        "fec_ldpc.encode.calls": counts["fec_ldpc.encode.calls"],
        "fec_ldpc.encode.busy_s": own["fec_ldpc.encode"],
        "fec_ldpc.decode.calls": counts["fec_ldpc.decode.calls"],
        "fec_ldpc.decode.busy_s": own["fec_ldpc.decode"],
        "fec_ldpc.codewords": counts["fec_ldpc.codewords"],
        "fec_ldpc.iterations_mean": ratio(counts["fec_ldpc.iterations"],
                                          counts["fec_ldpc.codewords"]),
        "fec_ldpc.converged_ratio": ratio(counts["fec_ldpc.converged"],
                                          counts["fec_ldpc.codewords"]),
        "fec_ldpc.edge_updates": counts["fec_ldpc.edge_updates"],
        "fec_ldpc.lockstep_efficiency": ratio(counts["fec_ldpc.iterations"],
                                              counts["fec_ldpc.lockstep_iterations"]),
        "fec_polar.encode.busy_s": own["fec_polar.encode"],
        "fec_polar.decode.calls": counts["fec_polar.decode.calls"],
        "fec_polar.decode.busy_s": own["fec_polar.decode"],
        "fec_polar.blocks": counts["fec_polar.blocks"],
        "fec_polar.blocks_per_call": ratio(counts["fec_polar.blocks"],
                                           counts["fec_polar.decode.calls"]),
        "fec_polar.crc_pass_ratio": ratio(counts["fec_polar.crc_pass"],
                                          counts["fec_polar.blocks"]),
        "crypto.aes.calls": counts["crypto.aes.calls"],
        "crypto.aes.busy_s": own["crypto.aes"],
        "crypto.aes.bits": counts["crypto.aes.bits"],
        "crypto.keystore.calls": counts["crypto.keystore.calls"],
        "crypto.keystore.busy_s": own["crypto.keystore"],
        "protocol.self_s": own["protocol"],
        "experiments.self_s": run_s - sum(own.values()),
        "trace.run_s": run_s,
    }
