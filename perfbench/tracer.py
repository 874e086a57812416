"""Span tracing of mlcap from outside the package.

``Tracer`` replaces every public function (and public method of a class)
defined in the ``mlcap`` modules with a wrapper that records one span per
call: its name, start, end, the span that was open when it started (its
parent) and the benchmark round it belongs to. Module globals that were
imported by name into other ``mlcap`` modules are replaced too, so calls
between modules are seen. When an autodiff op records a tape entry, the
entry's backward rule is wrapped as well, giving a ``<op>.bwd`` span inside
``autodiff.backward``.

Spans are kept in flat arrays and turned into per-layer metrics by
``layer_metrics`` once the run ends. Nothing here changes what the wrapped
functions compute.
"""

from __future__ import annotations

import inspect
import os
from array import array
from time import perf_counter
from typing import NamedTuple

import numpy as np

from mlcap import autodiff, beam, data, metrics, model, rng, trainer, vocab

MODULES = (autodiff, model, trainer, beam, metrics, data, vocab, rng)

# Autodiff ops the decoder uses; each gets calls, forward and backward time.
TAPE_OPS = (
    "matmul", "add", "add_bias", "hadamard", "sigmoid", "tanh", "slice_last",
    "take_rows", "reshape", "sum_all", "scale", "cross_entropy_rows",
)
LAYERS = ("autodiff", "model", "trainer", "beam", "metrics", "data", "vocab", "rng")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The beam.* metrics describe decodes of this width, the one that
# decode_beam5_images_per_s measures; greedy (width 1) decodes also run
# beam_search and are reported apart as beam.greedy_*.
BEAM_WIDTH = 5


class BeamCall(NamedTuple):
    """One traced beam_search call."""

    width: int
    candidates: int  # live hypotheses x emittable ids, summed over steps
    steps: int
    eos: bool  # the best decode ended in eos rather than at max_len
    seconds: float
    step_s: float  # of which inside model.step_distribution


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans for calls into mlcap while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self.current_round = -1
        self.in_op = False
        self.timed_wall_s = 0.0
        self.timed_covered_s = 0.0
        self.timed_self_s = {layer: 0.0 for layer in LAYERS}
        self.entries_in_rounds = 0
        self.tokens_in_rounds = 0
        self.beam_calls: list[BeamCall] = []
        self.checkpoint_bytes = 0
        self._depth: dict[int, int] = {}
        self._token_calls = 0
        self._max_depth = 0
        self._search_step_s = 0.0
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- installing -------------------------------------------------------

    def _build_patches(self) -> None:
        wrapped: dict[int, object] = {}
        for module in MODULES:
            prefix = _short(module)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(f"{prefix}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        label = f"{prefix}.{obj.__name__}.{meth}"
                        if inspect.isfunction(raw):
                            self._patches.append((obj, meth, raw, self._wrap(label, raw)))
                        elif isinstance(raw, classmethod):
                            self._patches.append(
                                (obj, meth, raw, classmethod(self._wrap(label, raw.__func__)))
                            )
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patches.append((module, attr, obj, wrapped[id(obj)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _label(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def _wrap(self, label: str, fn):
        sid = self._label(label)
        layer = label.split(".", 1)[0]
        observe = {
            "beam.beam_search": self._observe_beam,
            "model.step_distribution": self._observe_step,
            "data.save_checkpoint": self._observe_save,
            "trainer.make_batch": self._observe_batch,
        }.get(label)
        starts_search = label == "beam.beam_search"
        tape_op = layer == "autodiff" and label.split(".")[1] in TAPE_OPS
        bwd_sid = self._label(label + ".bwd") if tape_op else -1

        def wrapper(*args, **kwargs):
            if starts_search:
                self._depth.clear()
                self._token_calls = 0
                self._max_depth = 0
                self._search_step_s = 0.0
            frame = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, sid, layer)
            if observe is not None:
                observe(args, out)
            if tape_op and out.entry is not None:
                out.entry.rule = self._wrap_rule(bwd_sid, out.entry.rule)
                if self.current_round >= 0:
                    self.entries_in_rounds += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_rule(self, sid: int, rule):
        def traced_rule(g):
            frame = self._open()
            try:
                rule(g)
            finally:
                self._close(frame, sid, "autodiff")

        return traced_rule

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, sid: int, layer: str) -> None:
        end = perf_counter()
        self._stack.pop()
        span, start, children = frame
        duration = end - start
        own = duration - children
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
            if self.in_op:
                self.timed_covered_s += duration
        if self.in_op:
            self.timed_self_s[layer] += own
        self.span_id.append(span)
        self.parent.append(parent_id)
        self.name.append(sid)
        self.round.append(self.current_round)
        self.start.append(start)
        self.end.append(end)
        self.self_s.append(own)

    # -- observers for counts the spans do not carry ------------------------

    def _observe_step(self, args, out) -> None:
        state, token = args[0], args[1]
        depth = self._depth.get(id(state), 0) + 1
        self._depth[id(out[0])] = depth
        self._max_depth = max(self._max_depth, depth)
        if isinstance(token, (int, np.integer)):
            self._token_calls += 1
        self._search_step_s += self.end[-1] - self.start[-1]  # the span just closed

    def _observe_beam(self, args, out) -> None:
        params, config = args[2], args[3]
        v = params.dims.vocab
        emittable = v - len({int(i) for i in config.exclude_ids if 0 <= int(i) < v})
        # Every expansion step scores each live hypothesis against every
        # emittable id; the live hypotheses of all steps are exactly the
        # token-fed decoder steps (the start token, then each survivor).
        # The deepest decoder state is the feature, the start token and
        # steps - 1 emitted ids, so steps = depth - 1.
        steps = max(1, self._max_depth - 1)
        best = out[0][0] if out else []
        ended_eos = bool(best) and best[-1] == vocab.EOS_ID
        if self.current_round >= 0:
            self.beam_calls.append(BeamCall(
                config.width, self._token_calls * emittable, steps, ended_eos,
                self.end[-1] - self.start[-1], self._search_step_s,
            ))

    def _observe_batch(self, args, out) -> None:
        if self.current_round >= 0:
            self.tokens_in_rounds += out.token_count

    def _observe_save(self, args, out) -> None:
        self.checkpoint_bytes = os.path.getsize(args[0])

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Times and counts of the autodiff, model, trainer and metrics layers
        are per traced round; the beam figures are per width-5 decode,
        except the two decode counts, which are per round. Checkpoint and vocabulary
        times are seconds per call over the whole traced run, set-up
        included, because most of those calls happen in set-up.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        in_round = np.frombuffer(self.round, dtype=np.int32) >= 0
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        r = max(1, rounds)
        out: dict[str, tuple[float, str]] = {}

        def mask(label: str, rounds_only: bool = True):
            sid = self._name_ids.get(label)
            if sid is None:
                return np.zeros(names.shape, dtype=bool)
            m = names == sid
            return m & in_round if rounds_only else m

        def total(label: str) -> float:
            return float(dur[mask(label)].sum())

        def calls(label: str) -> int:
            return int(mask(label).sum())

        def per_call(label: str) -> float:
            m = mask(label, rounds_only=False)
            return float(dur[m].mean()) if m.any() else 0.0

        bwd_total = 0.0
        for op in TAPE_OPS:
            label = f"autodiff.{op}"
            out[f"{label}.calls"] = (calls(label) / r, "count")
            out[f"{label}.fwd_s"] = (total(label) / r, "s")
            out[f"{label}.bwd_s"] = (total(label + ".bwd") / r, "s")
            bwd_total += total(label + ".bwd")
        out["autodiff.log_softmax.calls"] = (calls("autodiff.log_softmax") / r, "count")
        out["autodiff.log_softmax.fwd_s"] = (total("autodiff.log_softmax") / r, "s")
        backward_s = total("autodiff.backward")
        backward_calls = calls("autodiff.backward")
        out["autodiff.backward_s"] = (backward_s / r, "s")
        out["autodiff.tape_walk_s"] = ((backward_s - bwd_total) / r, "s")
        out["autodiff.tape_entries_per_step"] = (
            self.entries_in_rounds / backward_calls if backward_calls else 0.0, "count"
        )

        for fn in ("make_batch", "sequence_loss", "collect_gradients", "adam_step", "validation_score"):
            out[f"trainer.{fn}_s"] = (total(f"trainer.{fn}") / r, "s")
        out["trainer.steps"] = (calls("trainer.sequence_loss") / r, "count")
        out["trainer.tokens"] = (self.tokens_in_rounds / r, "count")

        for fn in ("advance_state", "step_distribution"):
            out[f"model.{fn}.calls"] = (calls(f"model.{fn}") / r, "count")
            out[f"model.{fn}_s"] = (total(f"model.{fn}") / r, "s")

        wide = [c for c in self.beam_calls if c.width == BEAM_WIDTH]
        greedy = [c.seconds for c in self.beam_calls if c.width == 1]
        n = len(wide)
        p50, ptop, _ = percentile_summary([c.seconds for c in wide])
        out["beam.beam_search_s_p50"] = (p50, "s")
        out["beam.beam_search_s_ptop"] = (ptop, "s")
        out["beam.decodes"] = (n / r, "count")
        out["beam.candidates_scored"] = (sum(c.candidates for c in wide) / n if n else 0.0, "count")
        out["beam.steps_per_image"] = (sum(c.steps for c in wide) / n if n else 0.0, "count")
        out["beam.select_s"] = (sum(c.seconds - c.step_s for c in wide) / n if n else 0.0, "s")
        out["beam.eos_share"] = (sum(c.eos for c in wide) / n if n else 0.0, "ratio")
        out["beam.greedy_decodes"] = (len(greedy) / r, "count")
        out["beam.greedy_search_s_p50"] = (percentile_summary(greedy)[0], "s")

        out["metrics.bleu_n_s"] = (total("metrics.bleu_n") / r, "s")
        out["metrics.cider_s"] = (total("metrics.cider") / r, "s")

        out["data.save_checkpoint_s"] = (per_call("data.save_checkpoint"), "s")
        out["data.load_checkpoint_s"] = (per_call("data.load_checkpoint"), "s")
        out["data.checkpoint_bytes"] = (float(self.checkpoint_bytes), "bytes")
        out["vocab.build_vocab_s"] = (per_call("vocab.build_vocab"), "s")
        out["vocab.encode_s"] = (per_call("vocab.Vocabulary.encode"), "s")

        covered = self.timed_covered_s
        out["trace.timed_wall_s"] = (self.timed_wall_s / r, "s")
        for layer in LAYERS:
            out[f"trace.self_s.{layer}"] = (self.timed_self_s[layer] / r, "s")
        out["trace.uncovered_s"] = ((self.timed_wall_s - covered) / r, "s")
        out["trace.spans"] = (float(len(self.name)), "count")
        return out

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names in ``names``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            round=np.frombuffer(self.round, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_s=np.frombuffer(self.self_s, dtype=np.float64),
        )


def percentile_summary(samples) -> tuple[float, float, float | None]:
    """Median, the highest percentile with at least ten samples beyond it,
    and that percentile (None, with the median repeated, when n < 20)."""
    if not samples:
        return 0.0, 0.0, None
    values = np.asarray(samples, dtype=np.float64)
    p50 = float(np.percentile(values, 50))
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p50, float(np.percentile(values, p)), p
    return p50, p50, None
